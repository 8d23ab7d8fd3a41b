// Package bench measures the live runtime's wire efficiency: frames,
// bytes and allocations per URB-delivered message, for both paper
// algorithms, over both real transports, with batching on or off.
//
// It exists to quantify the batched retransmission pipeline: both
// algorithms retransmit their whole MSG set on every Task-1 tick, so an
// unbatched runtime pays one transport frame per message per tick per
// node — O(n²·|MSG|) datagrams that cap cluster size long before the
// algorithms do. Batching coalesces each Step's broadcasts into frames
// bounded by the transport's FrameBudget; since batch framing is pure
// concatenation it changes frame counts, never byte counts.
//
// Bytes are accounted per wire-message class: Result.AckBytes isolates
// the ACK-family cost (full-set, delta and resync frames) from MSG
// dissemination, and CompareAckEncoding measures Algorithm 2's delta
// ACK encoding (DESIGN.md §8) against the paper-literal full-set form
// it replaces. Result.InboxOverflows counts receiver-side load
// shedding, the direct saturation signal.
//
// A Workload runs in two phases. The dissemination phase broadcasts
// Messages payloads round-robin and waits until every node has
// delivered all of them. Then, for the non-quiescent Majority
// algorithm, a steady-state phase samples the counters until the
// cluster has sent a fixed number of additional wire messages
// (SteadyTicks ticks' worth) — conditioning the sample on message
// count, not wall time, makes batched and unbatched runs directly
// comparable, because the wire-message stream is batching-invariant.
// For the Quiescent algorithm the run instead waits for cluster-wide
// quiescence: its steady state is silence, so the interesting cost is
// the total spent reaching it.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/node"
	"anonurb/internal/obs"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
	"anonurb/internal/xrand"
)

// Algo selects the URB algorithm under measurement.
type Algo string

// The two paper algorithms, plus the full heartbeat stack (Algorithm 2
// over fd.Heartbeat instead of the oracle — the only workload with BEAT
// traffic, which is what the beat-encoding comparison measures).
const (
	AlgoMajority  Algo = "majority"
	AlgoQuiescent Algo = "quiescent"
	AlgoHeartbeat Algo = "heartbeat"
)

// Net selects the transport under measurement.
type Net string

// The two real transports (Chaos is a wrapper, measured via the
// conformance suite rather than here).
const (
	NetMesh Net = "mesh"
	NetUDP  Net = "udp"
)

// Workload describes one benchmark run.
type Workload struct {
	Algo Algo `json:"algo"`
	Net  Net  `json:"net"`
	// N is the cluster size.
	N int `json:"n"`
	// Messages is the number of URB-broadcasts, issued round-robin
	// across the nodes. Deliveries therefore total N*Messages.
	Messages int `json:"messages"`
	// Payload is the broadcast payload size in bytes (default 64).
	Payload int `json:"payload"`
	// Batching selects the node sending mode under measurement.
	Batching bool `json:"batching"`
	// FullSetAcks makes the Quiescent algorithm attach the full AΘ label
	// set to every ACK (the paper-literal wire form) instead of the
	// delta encoding that is the benchmark default (DESIGN.md §8). The
	// full-set form is the baseline the delta encoding is measured
	// against; it is what saturated the n=100 cells (~1.6 KB per ACK,
	// one re-ACK per MSG reception). Ignored by Majority, whose ACKs are
	// constant-size.
	FullSetAcks bool `json:"full_set_acks,omitempty"`
	// LegacyBeats makes heartbeat workloads emit full 22-byte ALIVE
	// beats instead of the delta beat streams that are the benchmark
	// default (DESIGN.md §10): the baseline of the beat-encoding
	// comparison. Ignored by the oracle-backed algorithms (no beats).
	LegacyBeats bool `json:"legacy_beats,omitempty"`
	// TickEvery is the Task-1 period (default 20ms).
	TickEvery time.Duration `json:"tick_every_ns"`
	// SteadyTicks sizes the Majority steady-state sample window, in
	// ticks' worth of wire messages (default 8). Ignored for Quiescent.
	SteadyTicks int `json:"steady_ticks"`
	// Trace installs a lifecycle tracer (DESIGN.md §14) on every node —
	// the tracer-on configuration of the observability overhead
	// comparison. Off is the production default the baseline measures.
	Trace bool `json:"trace,omitempty"`
	// Seed drives tick phases and tag streams.
	Seed uint64 `json:"seed"`
	// Timeout bounds each phase separately — dissemination, then the
	// steady-state window or quiescence wait — so a slow first phase
	// cannot starve the second; a run takes at most ~2×Timeout.
	// Default 60s.
	Timeout time.Duration `json:"-"`
}

// String names the workload compactly.
func (w Workload) String() string {
	mode := "off"
	if w.Batching {
		mode = "on"
	}
	s := fmt.Sprintf("%s/%s/n=%d/batch=%s", w.Algo, w.Net, w.N, mode)
	if w.Algo != AlgoMajority && w.FullSetAcks {
		s += "/acks=full"
	}
	if w.Algo == AlgoHeartbeat && w.LegacyBeats {
		s += "/beats=legacy"
	}
	if w.Trace {
		s += "/trace=on"
	}
	return s
}

// Result is one workload's measurement.
type Result struct {
	Workload Workload `json:"workload"`

	// Run-wide totals, cluster-wide, from process start to sample end.
	Deliveries uint64 `json:"deliveries"`
	SentFrames uint64 `json:"sent_frames"`
	SentMsgs   uint64 `json:"sent_msgs"`
	SentBytes  uint64 `json:"sent_bytes"`
	// AckBytes is the ACK-family slice of SentBytes (full-set ACKs,
	// delta ACKs and resync requests): Algorithm 2's dominant wire cost,
	// tracked separately so the delta encoding's win is measurable.
	AckBytes uint64 `json:"ack_bytes"`
	// BeatBytes is the BEAT/heartbeat slice of SentBytes — zero for the
	// oracle-backed workloads here, nonzero for heartbeat-stack runs.
	BeatBytes uint64 `json:"beat_bytes"`
	// InboxOverflows counts inbound frames the transports shed on full
	// inboxes — the direct saturation signal (a saturated cell sheds
	// load here; a healthy one counts zero).
	InboxOverflows uint64  `json:"inbox_overflows"`
	RecvFrames     uint64  `json:"recv_frames"`
	RecvMsgs       uint64  `json:"recv_msgs"`
	Oversized      uint64  `json:"oversized"`
	Allocs         uint64  `json:"allocs"`
	ElapsedMS      float64 `json:"elapsed_ms"`
	// TraceEvents is the total lifecycle events recorded across the
	// cluster's tracers (zero unless Workload.Trace).
	TraceEvents uint64 `json:"trace_events,omitempty"`
	// Quiesced reports whether the cluster reached silence (Quiescent
	// algorithm only; for heartbeat workloads it reports ALGORITHM
	// quiescence — every MSG set drained — since detector beats continue
	// by design; always false for Majority, which never quiesces).
	Quiesced     bool    `json:"quiesced"`
	QuiescenceMS float64 `json:"quiescence_ms,omitempty"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`

	// Steady-state memory, sampled once the cluster is quiescent (or the
	// steady window closes): HeapAlloc after a forced GC, plus the
	// algorithms' retained ACK bookkeeping — the acker views held and
	// the label slots they store logically vs physically (interned views
	// collapse the latter; DESIGN.md §10).
	SteadyHeapAlloc uint64 `json:"steady_heap_alloc"`
	AckViews        uint64 `json:"ack_views"`
	AckLabels       uint64 `json:"ack_labels"`
	AckLabelStorage uint64 `json:"ack_label_storage"`

	// Steady-state window (Majority only): counter deltas over the
	// sample window, normalised to exactly the targeted number of wire
	// messages so batched and unbatched runs compare at identical
	// message volume.
	SteadyFrames float64 `json:"steady_frames,omitempty"`
	SteadyMsgs   float64 `json:"steady_msgs,omitempty"`
	SteadyBytes  float64 `json:"steady_bytes,omitempty"`

	// Steady-state beat window (heartbeat workloads only): beat bytes
	// over a SteadyTicks-sized window once the algorithm has quiesced —
	// the traffic class that never stops, normalised per beat so the
	// delta encoding's per-frame saving is read off directly.
	SteadyBeatBytes  float64 `json:"steady_beat_bytes,omitempty"`
	SteadyBeats      float64 `json:"steady_beats,omitempty"`
	SteadyBeatFrameB float64 `json:"steady_beat_frame_bytes,omitempty"`

	// Derived metrics. Deliveries is the denominator everywhere: the
	// N*Messages URB-deliveries this workload sustains.
	FramesPerDelivery    float64 `json:"frames_per_delivery"`
	BytesPerDelivery     float64 `json:"bytes_per_delivery"`
	AckBytesPerDelivery  float64 `json:"ack_bytes_per_delivery"`
	BeatBytesPerDelivery float64 `json:"beat_bytes_per_delivery,omitempty"`
	AllocsPerDelivery    float64 `json:"allocs_per_delivery"`
	MsgsPerFrame         float64 `json:"msgs_per_frame"`
	// Steady variants: the per-delivery cost of keeping the cluster in
	// steady state for the sample window (Majority only).
	SteadyFramesPerDelivery float64 `json:"steady_frames_per_delivery,omitempty"`
	SteadyBytesPerDelivery  float64 `json:"steady_bytes_per_delivery,omitempty"`
	SteadyMsgsPerFrame      float64 `json:"steady_msgs_per_frame,omitempty"`
}

// counters is one cluster-wide counter sample.
type counters struct {
	frames, msgs, bytes, ackBytes, beatBytes uint64
}

// Run executes one workload and returns its measurement.
func Run(w Workload) (Result, error) {
	if w.N < 1 || w.Messages < 1 {
		return Result{}, fmt.Errorf("bench: N and Messages must be >= 1")
	}
	if w.Payload <= 0 {
		w.Payload = 64
	}
	if w.TickEvery <= 0 {
		w.TickEvery = 20 * time.Millisecond
	}
	if w.SteadyTicks <= 0 {
		w.SteadyTicks = 8
	}
	if w.Timeout <= 0 {
		w.Timeout = 60 * time.Second
	}

	// --- build the cluster -------------------------------------------
	start := time.Now()
	var (
		trs     []transport.Transport
		udps    []*transport.UDP
		mesh    *transport.Mesh
		cleanup func()
	)
	switch w.Net {
	case NetMesh:
		// Reliable zero-delay links and deep inboxes: the workload
		// measures runtime overhead, and a deterministic per-tick
		// message mix keeps batched and unbatched byte counts
		// comparable (loss resilience is the test suite's job).
		mesh = transport.NewMesh(transport.MeshConfig{
			N:          w.N,
			Link:       channel.Reliable{D: channel.FixedDelay(0)},
			Unit:       time.Millisecond,
			Seed:       w.Seed,
			InboxDepth: 1 << 16,
		})
		for i := 0; i < w.N; i++ {
			trs = append(trs, mesh.Endpoint(i))
		}
		cleanup = func() { mesh.Close() }
	case NetUDP:
		group, err := transport.UDPGroup(w.N, 1<<14)
		if err != nil {
			return Result{}, fmt.Errorf("bench: udp group: %w", err)
		}
		udps = group
		for _, u := range group {
			trs = append(trs, u)
		}
		cleanup = func() {
			for _, u := range group {
				u.Close()
			}
		}
	default:
		return Result{}, fmt.Errorf("bench: unknown net %q", w.Net)
	}
	defer cleanup()

	var oracle *fd.Oracle
	if w.Algo == AlgoQuiescent {
		correct := make([]bool, w.N)
		for i := range correct {
			correct[i] = true
		}
		oracle = fd.NewOracle(fd.OracleConfig{N: w.N, Noise: fd.NoiseExact, Seed: w.Seed}, correct)
	}
	clock := func() int64 { return int64(time.Since(start) / time.Millisecond) }

	metrics := node.NewMetrics()
	var tracers []*obs.Tracer
	nodes := make([]*node.Node, w.N)
	inboxes := make([]<-chan node.Delivery, w.N)
	tagRoot := xrand.SplitLabeled(w.Seed, "bench-tags")
	for i := 0; i < w.N; i++ {
		var proc urb.Process
		switch w.Algo {
		case AlgoMajority:
			proc = urb.NewMajority(w.N, ident.NewSource(tagRoot.Split()), urb.Config{})
		case AlgoQuiescent:
			proc = urb.NewQuiescent(oracle.Handle(i, clock), ident.NewSource(tagRoot.Split()),
				urb.Config{DeltaAcks: !w.FullSetAcks})
		case AlgoHeartbeat:
			// The full Section VI stack: Algorithm 2 over fd.Heartbeat,
			// ALIVE beats multiplexed on the same transport. The trust
			// timeout is generous against the tick period — the mesh here
			// is loss-free and the bench measures steady-state wire cost,
			// not detector robustness.
			timeout := int64(50 * w.TickEvery / time.Millisecond)
			if timeout < 50 {
				timeout = 50
			}
			proc = urb.NewHeartbeatHost(ident.NewSource(tagRoot.Split()), timeout, 1, clock,
				urb.Config{DeltaAcks: !w.FullSetAcks, DeltaBeats: !w.LegacyBeats})
		default:
			return Result{}, fmt.Errorf("bench: unknown algo %q", w.Algo)
		}
		nodeOpts := []node.Option{
			node.WithTickEvery(w.TickEvery),
			node.WithSeed(xrand.HashStream(w.Seed, uint64(i))),
			node.WithBatching(w.Batching),
			node.WithObserver(metrics),
			node.WithInboxDepth(w.Messages + 16),
		}
		if w.Trace {
			// Wall nanoseconds since run start: the timestamps the
			// timelines and Chrome export read.
			t := obs.New(i, 0, func() int64 { return int64(time.Since(start)) })
			tracers = append(tracers, t)
			nodeOpts = append(nodeOpts, node.WithTracer(t))
		}
		nodes[i] = node.New(proc, trs[i], nodeOpts...)
		inboxes[i] = nodes[i].Deliveries()
	}
	stopAll := func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}
	defer stopAll()

	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)

	// The run context has no deadline of its own — each phase enforces
	// its Timeout below, so a slow dissemination cannot eat the steady
	// phase's budget. Nodes stay alive until teardown.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, nd := range nodes {
		if err := nd.Start(ctx); err != nil {
			return Result{}, fmt.Errorf("bench: start: %w", err)
		}
	}

	// --- dissemination phase -----------------------------------------
	payload := make([]byte, w.Payload)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < w.Messages; i++ {
		payload[0] = byte(i) // distinct bodies → distinct MsgIDs even across tag reuse
		if _, err := nodes[i%w.N].Broadcast(payload); err != nil {
			return Result{}, fmt.Errorf("bench: broadcast %d: %w", i, err)
		}
	}
	disseminate, cancelDisseminate := context.WithTimeout(ctx, w.Timeout)
	defer cancelDisseminate()
	var wg sync.WaitGroup
	delivered := make([]int, w.N)
	for i := range nodes {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range w.Messages {
				select {
				case _, ok := <-inboxes[i]:
					if !ok {
						return
					}
					delivered[i]++
				case <-disseminate.Done():
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, d := range delivered {
		if d != w.Messages {
			return Result{}, fmt.Errorf("bench: node %d delivered %d/%d before timeout (%s)",
				i, d, w.Messages, w)
		}
	}

	res := Result{Workload: w, Deliveries: uint64(w.N) * uint64(w.Messages)}

	// --- steady-state / quiescence phase -----------------------------
	sample := func() counters {
		var c counters
		for _, nd := range nodes {
			f, _, _ := nd.FrameStats()
			m, _ := nd.MessageStats()
			c.frames += f
			c.msgs += m
			_, ack, beat, _, _ := nd.ByteStats()
			c.ackBytes += ack
			c.beatBytes += beat
		}
		// SentBytesTotal, not Snapshot: the sampler polls every
		// millisecond while the cluster is sending, and a full Snapshot
		// summarises histograms under the observer mutex every node's
		// send path needs — the measurement would perturb itself. The
		// ack split comes from the nodes' atomic counters for the same
		// reason.
		c.bytes = metrics.SentBytesTotal()
		return c
	}

	switch w.Algo {
	case AlgoMajority:
		// Per tick the cluster retransmits N*Messages MSGs; every MSG
		// copy received triggers an ACK, so a loss-free tick moves
		// N*Messages*(1+N) wire messages. Conditioning the window on
		// that count (not on wall time) makes runs comparable.
		c0 := sample()
		perTick := uint64(w.N) * uint64(w.Messages) * uint64(1+w.N)
		target := uint64(w.SteadyTicks) * perTick
		deadline := time.Now().Add(w.Timeout)
		var c1 counters
		for {
			c1 = sample()
			if c1.msgs-c0.msgs >= target {
				break
			}
			if time.Now().After(deadline) {
				return Result{}, fmt.Errorf("bench: steady window starved: %d/%d msgs (%s)",
					c1.msgs-c0.msgs, target, w)
			}
			time.Sleep(time.Millisecond)
		}
		dm := float64(c1.msgs - c0.msgs)
		// Normalise the deltas to exactly `target` messages: sampling
		// granularity overshoots by up to a tick's burst, and the
		// overshoot differs between runs.
		scale := float64(target) / dm
		res.SteadyMsgs = float64(target)
		res.SteadyFrames = float64(c1.frames-c0.frames) * scale
		res.SteadyBytes = float64(c1.bytes-c0.bytes) * scale
		del := float64(res.Deliveries)
		res.SteadyFramesPerDelivery = res.SteadyFrames / del
		res.SteadyBytesPerDelivery = res.SteadyBytes / del
		if res.SteadyFrames > 0 {
			res.SteadyMsgsPerFrame = res.SteadyMsgs / res.SteadyFrames
		}
	case AlgoQuiescent:
		quietWindow := 5 * w.TickEvery
		deadline := time.Now().Add(w.Timeout)
		for {
			quiet := true
			for _, nd := range nodes {
				if !nd.QuietFor(quietWindow) {
					quiet = false
					break
				}
			}
			if quiet {
				res.Quiesced = true
				res.QuiescenceMS = float64(time.Since(start)-quietWindow) / float64(time.Millisecond)
				break
			}
			if time.Now().After(deadline) {
				break // measured anyway; Quiesced stays false
			}
			time.Sleep(time.Millisecond)
		}
	case AlgoHeartbeat:
		// Beats never stop, so transport silence never happens: algorithm
		// quiescence is every node's MSG set draining (all messages
		// delivered AND retired everywhere).
		deadline := time.Now().Add(w.Timeout)
		for {
			quiet := true
			for _, nd := range nodes {
				st, err := nd.Stats()
				if err != nil || st.MsgSet != 0 {
					quiet = false
					break
				}
			}
			if quiet {
				res.Quiesced = true
				res.QuiescenceMS = float64(time.Since(start)) / float64(time.Millisecond)
				break
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if res.Quiesced {
			// Steady beat window: the quiescent cluster's only traffic is
			// the detector's, N beats per tick. Conditioning on message
			// count (not wall time) makes the legacy and delta encodings
			// directly comparable, exactly as the batching windows do.
			c0 := sample()
			target := uint64(w.SteadyTicks) * uint64(w.N)
			beatDeadline := time.Now().Add(w.Timeout)
			var c1 counters
			for {
				c1 = sample()
				if c1.msgs-c0.msgs >= target {
					break
				}
				if time.Now().After(beatDeadline) {
					return Result{}, fmt.Errorf("bench: beat window starved: %d/%d msgs (%s)",
						c1.msgs-c0.msgs, target, w)
				}
				time.Sleep(time.Millisecond)
			}
			scale := float64(target) / float64(c1.msgs-c0.msgs)
			res.SteadyBeats = float64(target)
			res.SteadyBeatBytes = float64(c1.beatBytes-c0.beatBytes) * scale
			if res.SteadyBeats > 0 {
				res.SteadyBeatFrameB = res.SteadyBeatBytes / res.SteadyBeats
			}
		}
	}

	// Steady-state memory: force a GC so the sample reads retained
	// state, not garbage awaiting collection.
	runtime.GC()
	var steadyMem runtime.MemStats
	runtime.ReadMemStats(&steadyMem)
	res.SteadyHeapAlloc = steadyMem.HeapAlloc

	// --- teardown and totals -----------------------------------------
	stopAll()
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)

	final := sample()
	res.SentFrames = final.frames
	res.SentMsgs = final.msgs
	res.SentBytes = final.bytes
	res.AckBytes = final.ackBytes
	res.BeatBytes = final.beatBytes
	for _, nd := range nodes {
		_, rf, _ := nd.FrameStats()
		_, rm := nd.MessageStats()
		res.RecvFrames += rf
		res.RecvMsgs += rm
		h, m := nd.EncodeCacheStats()
		res.CacheHits += h
		res.CacheMisses += m
		if ov, ok := nd.InboxOverflows(); ok {
			res.InboxOverflows += ov
		}
		if st, err := nd.Stats(); err == nil {
			res.AckViews += uint64(st.AckEntries)
			res.AckLabels += uint64(st.AckLabels)
			res.AckLabelStorage += uint64(st.AckLabelStorage)
		}
	}
	for _, u := range udps {
		res.Oversized += u.Oversized()
	}
	for _, t := range tracers {
		res.TraceEvents += t.Total()
	}
	res.Allocs = mem1.Mallocs - mem0.Mallocs
	res.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)

	del := float64(res.Deliveries)
	res.FramesPerDelivery = float64(res.SentFrames) / del
	res.BytesPerDelivery = float64(res.SentBytes) / del
	res.AckBytesPerDelivery = float64(res.AckBytes) / del
	res.BeatBytesPerDelivery = float64(res.BeatBytes) / del
	res.AllocsPerDelivery = float64(res.Allocs) / del
	if res.SentFrames > 0 {
		res.MsgsPerFrame = float64(res.SentMsgs) / float64(res.SentFrames)
	}
	return res, nil
}

// Matrix returns the standard batching benchmark matrix:
// {majority, quiescent} × {mesh, udp} at n ∈ {5, 25, 100}. Small
// clusters keep several messages in flight so ticks have something to
// coalesce; n=100 runs a leaner workload (the unbatched baseline is an
// O(n²·|MSG|) datagram storm — the very behaviour the pipeline
// removes). quick trims the matrix to CI sizes: n ∈ {5, 25} on the
// mesh, n=5 on UDP.
func Matrix(seed uint64, quick bool) []Workload {
	type size struct {
		n, messages, steady int
		tick                time.Duration
		timeout             time.Duration
	}
	sizes := map[Net][]size{
		NetMesh: {
			// Long steady windows on the small mesh cells: the window is
			// conditioned on message count but its boundaries slice
			// mid-tick, and the residual mix noise on the bytes ratio
			// shrinks with window length (the n=25 cell is the
			// acceptance benchmark, so its ratio must be clean).
			{n: 5, messages: 4, steady: 32, tick: 10 * time.Millisecond, timeout: 60 * time.Second},
			{n: 25, messages: 4, steady: 32, tick: 20 * time.Millisecond, timeout: 120 * time.Second},
			{n: 100, messages: 2, steady: 2, tick: 100 * time.Millisecond, timeout: 180 * time.Second},
		},
		NetUDP: {
			{n: 5, messages: 4, steady: 8, tick: 20 * time.Millisecond, timeout: 60 * time.Second},
			{n: 25, messages: 4, steady: 5, tick: 30 * time.Millisecond, timeout: 120 * time.Second},
			{n: 100, messages: 2, steady: 1, tick: 200 * time.Millisecond, timeout: 300 * time.Second},
		},
	}
	var ws []Workload
	for _, net := range []Net{NetMesh, NetUDP} {
		for _, s := range sizes[net] {
			if quick && (s.n == 100 || (net == NetUDP && s.n == 25)) {
				continue
			}
			for _, algo := range []Algo{AlgoMajority, AlgoQuiescent} {
				ws = append(ws, Workload{
					Algo:        algo,
					Net:         net,
					N:           s.n,
					Messages:    s.messages,
					TickEvery:   s.tick,
					SteadyTicks: s.steady,
					Seed:        seed,
					Timeout:     s.timeout,
				})
			}
		}
	}
	return ws
}

// AckComparison pairs a full-set-ACK and a delta-ACK run of one
// Quiescent workload (batching on in both): the measurement of the
// incremental labeled-ACK encoding (DESIGN.md §8) against the
// paper-literal wire form it replaces.
type AckComparison struct {
	Name string `json:"name"`
	// Delta is the run with the incremental encoding (the default);
	// FullSet is the paper-literal full-set baseline.
	Delta   Result `json:"delta"`
	FullSet Result `json:"full_set"`
	// AckBytesImprovement is how many times fewer ACK bytes per
	// delivered message the delta encoding needs. >= 5 at n=100 is the
	// bar this optimisation sets for itself.
	AckBytesImprovement float64 `json:"ack_bytes_improvement"`
	// FramesImprovement is the same ratio for transport frames per
	// delivered message (rate-limited re-ACKs shrink the frame count on
	// top of the byte count).
	FramesImprovement float64 `json:"frames_improvement"`
	// QuiescenceImprovement is full-set quiescence time over delta
	// quiescence time: how much sooner the cluster falls silent once
	// label-set processing stops being the bottleneck.
	QuiescenceImprovement float64 `json:"quiescence_improvement"`
}

// CompareAckEncoding runs w (a Quiescent workload) with full-set ACKs
// and then with delta ACKs — batching on in both, same seed — and
// derives the improvement ratios. Runs that failed to reach genuine
// quiescence are rejected: their totals describe a truncated run.
func CompareAckEncoding(w Workload) (AckComparison, error) {
	if w.Algo != AlgoQuiescent {
		return AckComparison{}, fmt.Errorf("bench: ack-encoding comparison needs the quiescent algorithm, got %q", w.Algo)
	}
	w.Batching = true
	w.FullSetAcks = false
	delta, err := Run(w)
	if err != nil {
		return AckComparison{}, err
	}
	return CompareAckEncodingAgainst(w, delta)
}

// CompareAckEncodingAgainst is CompareAckEncoding reusing an
// already-measured delta run of w (batching on, FullSetAcks off, same
// seed) — the batching matrix has usually just produced exactly that
// run, and re-executing a large quiescent cell costs real wall-clock.
// Only the full-set baseline is run here.
func CompareAckEncodingAgainst(w Workload, delta Result) (AckComparison, error) {
	if w.Algo != AlgoQuiescent {
		return AckComparison{}, fmt.Errorf("bench: ack-encoding comparison needs the quiescent algorithm, got %q", w.Algo)
	}
	w.Batching = true
	w.FullSetAcks = true
	full, err := Run(w)
	if err != nil {
		return AckComparison{}, err
	}
	if !full.Quiesced || !delta.Quiesced {
		return AckComparison{}, fmt.Errorf("bench: %s did not quiesce within its timeout (full=%v delta=%v)",
			w, full.Quiesced, delta.Quiesced)
	}
	c := AckComparison{
		Name:    fmt.Sprintf("%s/%s/n=%d", w.Algo, w.Net, w.N),
		Delta:   delta,
		FullSet: full,
	}
	if delta.AckBytesPerDelivery > 0 {
		c.AckBytesImprovement = full.AckBytesPerDelivery / delta.AckBytesPerDelivery
	}
	if delta.FramesPerDelivery > 0 {
		c.FramesImprovement = full.FramesPerDelivery / delta.FramesPerDelivery
	}
	if delta.QuiescenceMS > 0 {
		c.QuiescenceImprovement = full.QuiescenceMS / delta.QuiescenceMS
	}
	return c, nil
}

// AckMatrix returns the ack-encoding comparison workloads: the
// Quiescent cells of the batching matrix, whose full-set baselines are
// exactly the runs the saturation caveat in EXPERIMENTS.md was about.
// quick trims to CI sizes as Matrix does.
func AckMatrix(seed uint64, quick bool) []Workload {
	var ws []Workload
	for _, w := range Matrix(seed, quick) {
		if w.Algo == AlgoQuiescent {
			ws = append(ws, w)
		}
	}
	return ws
}

// BeatComparison pairs a delta-beat and a legacy-beat run of one
// heartbeat workload: the measurement of the BEATΔ encoding (DESIGN.md
// §10) on the one traffic class a quiescent cluster pays forever.
type BeatComparison struct {
	Name string `json:"name"`
	// Delta is the run with BEATΔ streams (the default); Legacy beats
	// full 22-byte ALIVE frames.
	Delta  Result `json:"delta"`
	Legacy Result `json:"legacy"`
	// BeatBytesImprovement is how many times fewer beat bytes the delta
	// encoding pays over the same steady window.
	BeatBytesImprovement float64 `json:"beat_bytes_improvement"`
	// BeatFrameBytes reports the measured steady per-beat frame size,
	// legacy vs delta (22 vs 15 on an idle stream).
	LegacyBeatFrameB float64 `json:"legacy_beat_frame_bytes"`
	DeltaBeatFrameB  float64 `json:"delta_beat_frame_bytes"`
}

// CompareBeatEncoding runs w (a heartbeat workload) with delta beats
// and then with legacy beats — batching on, same seed — and derives the
// steady-window improvement.
func CompareBeatEncoding(w Workload) (BeatComparison, error) {
	if w.Algo != AlgoHeartbeat {
		return BeatComparison{}, fmt.Errorf("bench: beat-encoding comparison needs the heartbeat stack, got %q", w.Algo)
	}
	w.Batching = true
	w.LegacyBeats = false
	delta, err := Run(w)
	if err != nil {
		return BeatComparison{}, err
	}
	w.LegacyBeats = true
	legacy, err := Run(w)
	if err != nil {
		return BeatComparison{}, err
	}
	if !delta.Quiesced || !legacy.Quiesced {
		return BeatComparison{}, fmt.Errorf("bench: %s algorithm traffic did not quiesce (delta=%v legacy=%v)",
			w, delta.Quiesced, legacy.Quiesced)
	}
	c := BeatComparison{
		Name:             fmt.Sprintf("%s/%s/n=%d", w.Algo, w.Net, w.N),
		Delta:            delta,
		Legacy:           legacy,
		LegacyBeatFrameB: legacy.SteadyBeatFrameB,
		DeltaBeatFrameB:  delta.SteadyBeatFrameB,
	}
	if delta.SteadyBeatBytes > 0 {
		c.BeatBytesImprovement = legacy.SteadyBeatBytes / delta.SteadyBeatBytes
	}
	return c, nil
}

// BeatMatrix returns the beat-encoding comparison workloads: heartbeat
// stacks on the mesh. quick trims to the n=5 cell.
func BeatMatrix(seed uint64, quick bool) []Workload {
	sizes := []int{5, 25}
	if quick {
		sizes = []int{5}
	}
	var ws []Workload
	for _, n := range sizes {
		ws = append(ws, Workload{
			Algo:        AlgoHeartbeat,
			Net:         NetMesh,
			N:           n,
			Messages:    4,
			Batching:    true,
			TickEvery:   20 * time.Millisecond,
			SteadyTicks: 32,
			Seed:        seed,
			Timeout:     120 * time.Second,
		})
	}
	return ws
}

// Comparison pairs a batched and an unbatched run of one workload.
type Comparison struct {
	Name string `json:"name"`
	On   Result `json:"batching_on"`
	Off  Result `json:"batching_off"`
	// FramesImprovement is how many times fewer frames the batched run
	// needs per delivered message (steady-state window for Majority,
	// whole run for Quiescent). >= 2 is the bar the batching pipeline
	// sets for itself on steady-state workloads.
	FramesImprovement float64 `json:"frames_improvement"`
	// BytesRatio is batched bytes per delivery over unbatched (steady
	// basis as above); batching is pure concatenation, so this should
	// hover at or below 1.
	BytesRatio float64 `json:"bytes_ratio_on_over_off"`
	// AllocsRatio is batched allocations per delivery over unbatched
	// across the whole run.
	AllocsRatio float64 `json:"allocs_ratio_on_over_off"`
}

// Compare runs w with batching off and on (same seed) and derives the
// improvement ratios. Quiescent workloads that failed to reach genuine
// quiescence (timeout) are rejected rather than silently recorded as a
// valid comparison — their totals describe a truncated run.
func Compare(w Workload) (Comparison, error) {
	w.Batching = false
	off, err := Run(w)
	if err != nil {
		return Comparison{}, err
	}
	w.Batching = true
	on, err := Run(w)
	if err != nil {
		return Comparison{}, err
	}
	if w.Algo == AlgoQuiescent && (!off.Quiesced || !on.Quiesced) {
		return Comparison{}, fmt.Errorf("bench: %s did not quiesce within its timeout (off=%v on=%v)",
			w, off.Quiesced, on.Quiesced)
	}
	c := Comparison{Name: fmt.Sprintf("%s/%s/n=%d", w.Algo, w.Net, w.N), On: on, Off: off}
	onFrames, offFrames := on.SteadyFramesPerDelivery, off.SteadyFramesPerDelivery
	onBytes, offBytes := on.SteadyBytesPerDelivery, off.SteadyBytesPerDelivery
	if w.Algo == AlgoQuiescent {
		onFrames, offFrames = on.FramesPerDelivery, off.FramesPerDelivery
		onBytes, offBytes = on.BytesPerDelivery, off.BytesPerDelivery
	}
	if onFrames > 0 {
		c.FramesImprovement = offFrames / onFrames
	}
	if offBytes > 0 {
		c.BytesRatio = onBytes / offBytes
	}
	if off.AllocsPerDelivery > 0 {
		c.AllocsRatio = on.AllocsPerDelivery / off.AllocsPerDelivery
	}
	return c, nil
}
