package bench

import (
	"fmt"
	"testing"
	"time"
)

// quickWorkload is a small, fast workload for tests.
func quickWorkload(algo Algo, net Net) Workload {
	return Workload{
		Algo:        algo,
		Net:         net,
		N:           5,
		Messages:    4,
		Batching:    true,
		TickEvery:   5 * time.Millisecond,
		SteadyTicks: 5,
		Seed:        2015,
		Timeout:     30 * time.Second,
	}
}

// TestRunAllCells: every {algo} × {net} cell completes, delivers
// everywhere, and produces sane counters.
func TestRunAllCells(t *testing.T) {
	for _, algo := range []Algo{AlgoMajority, AlgoQuiescent} {
		for _, net := range []Net{NetMesh, NetUDP} {
			algo, net := algo, net
			t.Run(fmt.Sprintf("%s-%s", algo, net), func(t *testing.T) {
				res, err := Run(quickWorkload(algo, net))
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if res.Deliveries != 5*4 {
					t.Fatalf("deliveries=%d, want 20", res.Deliveries)
				}
				if res.SentFrames == 0 || res.SentMsgs == 0 || res.SentBytes == 0 {
					t.Fatalf("empty counters: %+v", res)
				}
				if res.SentFrames > res.SentMsgs {
					t.Fatalf("more frames than messages: %d > %d", res.SentFrames, res.SentMsgs)
				}
				if res.Oversized != 0 {
					t.Fatalf("oversized frames on %s: %d", net, res.Oversized)
				}
				if res.FramesPerDelivery <= 0 || res.BytesPerDelivery <= 0 {
					t.Fatalf("derived metrics missing: %+v", res)
				}
				if algo == AlgoQuiescent && !res.Quiesced {
					t.Fatal("quiescent cluster never went quiet")
				}
				if algo == AlgoMajority && res.SteadyFrames <= 0 {
					t.Fatal("majority run has no steady-state window")
				}
			})
		}
	}
}

// TestBatchingReducesFrames: the core claim — on a steady-state mesh
// workload, batching cuts frames per delivered message by at least 2×
// without inflating bytes per delivery. (The checked-in
// BENCH_batching.json asserts the same at n=25; this guards the
// property at CI scale.)
func TestBatchingReducesFrames(t *testing.T) {
	w := quickWorkload(AlgoMajority, NetMesh)
	c, err := Compare(w)
	if err != nil {
		t.Fatalf("compare: %v", err)
	}
	if c.FramesImprovement < 2 {
		t.Fatalf("frames improvement %.2fx < 2x (on=%.2f off=%.2f frames/delivery)",
			c.FramesImprovement, c.On.SteadyFramesPerDelivery, c.Off.SteadyFramesPerDelivery)
	}
	// Batch framing is pure concatenation; allow only sampling noise.
	if c.BytesRatio > 1.02 {
		t.Fatalf("batched run inflated bytes per delivery: ratio %.4f", c.BytesRatio)
	}
	if hits := c.On.CacheHits; hits == 0 {
		t.Fatal("encode cache never hit during steady-state retransmission")
	}
}

// TestAckEncodingReducesAckBytes: the delta encoding's core claim at CI
// scale — a quiescent mesh workload spends measurably fewer ACK bytes
// per delivered message than the full-set baseline, with both runs
// reaching genuine quiescence. (The checked-in BENCH_batching.json
// asserts the ≥5× bar at n=100; at n=5 the full sets are small, so the
// gate here is conservative.)
func TestAckEncodingReducesAckBytes(t *testing.T) {
	a, err := CompareAckEncoding(quickWorkload(AlgoQuiescent, NetMesh))
	if err != nil {
		t.Fatalf("compare: %v", err)
	}
	if !a.Delta.Quiesced || !a.FullSet.Quiesced {
		t.Fatal("comparison accepted a non-quiescent run")
	}
	if a.Delta.AckBytes == 0 || a.FullSet.AckBytes == 0 {
		t.Fatalf("ack byte counters empty: delta=%d full=%d", a.Delta.AckBytes, a.FullSet.AckBytes)
	}
	if a.AckBytesImprovement < 1.2 {
		t.Fatalf("ack bytes improvement %.2fx < 1.2x (full=%.1f delta=%.1f ackB/delivery)",
			a.AckBytesImprovement, a.FullSet.AckBytesPerDelivery, a.Delta.AckBytesPerDelivery)
	}
	// Sanity on the split: ACK bytes never exceed total bytes.
	if a.Delta.AckBytes > a.Delta.SentBytes || a.FullSet.AckBytes > a.FullSet.SentBytes {
		t.Fatalf("ack bytes exceed totals: %+v / %+v", a.Delta, a.FullSet)
	}
}

// TestCompareAckEncodingRejectsMajority: the comparison is specifically
// about Algorithm 2's labeled ACKs.
func TestCompareAckEncodingRejectsMajority(t *testing.T) {
	if _, err := CompareAckEncoding(quickWorkload(AlgoMajority, NetMesh)); err == nil {
		t.Fatal("majority workload accepted")
	}
}

// TestCompactionReducesLabelStorage: the label-storage claim of
// interned acker views (DESIGN.md §10) at CI scale — a quiescent mesh
// cell physically retains fewer label slots than its views hold
// logically, which is what a per-view copy of every set would store.
func TestCompactionReducesLabelStorage(t *testing.T) {
	r, err := Run(quickWorkload(AlgoQuiescent, NetMesh))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if r.AckLabelStorage == 0 {
		t.Fatal("no label storage sampled")
	}
	if ratio := float64(r.AckLabels) / float64(r.AckLabelStorage); ratio < 1.5 {
		t.Fatalf("label storage improvement %.2fx < 1.5x (logical=%d stored=%d)",
			ratio, r.AckLabels, r.AckLabelStorage)
	}
	if r.SteadyHeapAlloc == 0 {
		t.Fatal("steady heap sample missing")
	}
}

// TestHeartbeatCellRuns: the heartbeat stack completes the bench
// workload end to end — deliveries everywhere, algorithm quiescence,
// beat bytes measured.
func TestHeartbeatCellRuns(t *testing.T) {
	res, err := Run(quickWorkload(AlgoHeartbeat, NetMesh))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Deliveries != 5*4 {
		t.Fatalf("deliveries=%d, want 20", res.Deliveries)
	}
	if !res.Quiesced {
		t.Fatal("heartbeat algorithm traffic never quiesced")
	}
	if res.BeatBytes == 0 || res.SteadyBeatBytes <= 0 {
		t.Fatalf("beat accounting empty: total=%d steady=%.1f", res.BeatBytes, res.SteadyBeatBytes)
	}
}

// TestBeatEncodingReducesBeatBytes: the BEATΔ claim at CI scale — over
// the same steady window, delta beat streams cost measurably fewer
// bytes than legacy full beats (22B → 15B per steady frame ≈ 1.47×).
func TestBeatEncodingReducesBeatBytes(t *testing.T) {
	c, err := CompareBeatEncoding(quickWorkload(AlgoHeartbeat, NetMesh))
	if err != nil {
		t.Fatalf("compare: %v", err)
	}
	if c.BeatBytesImprovement < 1.3 {
		t.Fatalf("beat bytes improvement %.2fx < 1.3x (legacy=%.1f delta=%.1f steady beatB)",
			c.BeatBytesImprovement, c.Legacy.SteadyBeatBytes, c.Delta.SteadyBeatBytes)
	}
	if c.DeltaBeatFrameB >= c.LegacyBeatFrameB {
		t.Fatalf("delta beat frames (%.1fB) not smaller than legacy (%.1fB)",
			c.DeltaBeatFrameB, c.LegacyBeatFrameB)
	}
}

// TestBatchingUDPNoOversized: batched frames must respect the UDP
// datagram budget — the Oversized counter stays at zero.
func TestBatchingUDPNoOversized(t *testing.T) {
	res, err := Run(quickWorkload(AlgoMajority, NetUDP))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Oversized != 0 {
		t.Fatalf("UDP dropped %d oversized frames; batches must stay within FrameBudget", res.Oversized)
	}
}

// benchCells runs one workload per benchmark op, reporting the derived
// per-delivery metrics. Use:
//
//	go test -bench=Batching -benchtime=1x ./internal/bench
func benchCell(b *testing.B, algo Algo, net Net, batching bool) {
	b.Helper()
	var last Result
	for i := 0; i < b.N; i++ {
		w := quickWorkload(algo, net)
		w.Batching = batching
		w.Seed = 2015 + uint64(i)
		res, err := Run(w)
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		last = res
	}
	b.ReportMetric(last.FramesPerDelivery, "frames/delivery")
	b.ReportMetric(last.BytesPerDelivery, "bytes/delivery")
	b.ReportMetric(last.AllocsPerDelivery, "allocs/delivery")
	b.ReportMetric(last.MsgsPerFrame, "msgs/frame")
}

func BenchmarkBatchingMajorityMeshOn(b *testing.B)   { benchCell(b, AlgoMajority, NetMesh, true) }
func BenchmarkBatchingMajorityMeshOff(b *testing.B)  { benchCell(b, AlgoMajority, NetMesh, false) }
func BenchmarkBatchingMajorityUDPOn(b *testing.B)    { benchCell(b, AlgoMajority, NetUDP, true) }
func BenchmarkBatchingMajorityUDPOff(b *testing.B)   { benchCell(b, AlgoMajority, NetUDP, false) }
func BenchmarkBatchingQuiescentMeshOn(b *testing.B)  { benchCell(b, AlgoQuiescent, NetMesh, true) }
func BenchmarkBatchingQuiescentMeshOff(b *testing.B) { benchCell(b, AlgoQuiescent, NetMesh, false) }
func BenchmarkBatchingQuiescentUDPOn(b *testing.B)   { benchCell(b, AlgoQuiescent, NetUDP, true) }
func BenchmarkBatchingQuiescentUDPOff(b *testing.B)  { benchCell(b, AlgoQuiescent, NetUDP, false) }
