// Benchmarks for the evaluation suite: one benchmark per table (T1-T6)
// and per figure (F1-F8) of DESIGN.md §4 — each op regenerates the whole
// experiment at quick scale — plus micro-benchmarks for the hot paths
// (tag generation, codec, channel verdicts, state-machine steps, oracle
// views).
//
// Run with:
//
//	go test -bench=. -benchmem
package anonurb

import (
	"fmt"
	"testing"

	"anonurb/internal/channel"
	"anonurb/internal/fd"
	"anonurb/internal/harness"
	"anonurb/internal/ident"
	"anonurb/internal/sim"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// benchExperiment runs one experiment generator per op.
func benchExperiment(b *testing.B, gen func(harness.Params) *harness.Table) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := gen(harness.Params{Seed: 2015 + uint64(i), Quick: true})
		if len(t.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkT1MajorityCorrectness(b *testing.B) { benchExperiment(b, harness.T1Correctness) }
func BenchmarkT2Impossibility(b *testing.B)       { benchExperiment(b, harness.T2Impossibility) }
func BenchmarkT3CrashTolerance(b *testing.B)      { benchExperiment(b, harness.T3CrashTolerance) }
func BenchmarkT4FDAblation(b *testing.B)          { benchExperiment(b, harness.T4FDAblation) }
func BenchmarkT5Baselines(b *testing.B)           { benchExperiment(b, harness.T5BaselineGuarantees) }
func BenchmarkT6PriceOfUniformity(b *testing.B)   { benchExperiment(b, harness.T6PriceOfUniformity) }
func BenchmarkF1QuiescenceCurve(b *testing.B)     { benchExperiment(b, harness.F1QuiescenceCurve) }
func BenchmarkF2LatencyVsLoss(b *testing.B)       { benchExperiment(b, harness.F2LatencyVsLoss) }
func BenchmarkF3MessagesVsN(b *testing.B)         { benchExperiment(b, harness.F3MessagesVsN) }
func BenchmarkF4QuiescenceVsGST(b *testing.B)     { benchExperiment(b, harness.F4QuiescenceVsGST) }
func BenchmarkF5MemoryFootprint(b *testing.B)     { benchExperiment(b, harness.F5MemoryFootprint) }
func BenchmarkF6FastDelivery(b *testing.B)        { benchExperiment(b, harness.F6FastDelivery) }
func BenchmarkF7AnonymityCost(b *testing.B)       { benchExperiment(b, harness.F7AnonymityCost) }
func BenchmarkF8HeartbeatVsOracle(b *testing.B)   { benchExperiment(b, harness.F8HeartbeatVsOracle) }

// BenchmarkSimulatedRun measures raw simulator throughput: one full
// Algorithm 2 convergence run per op, n=5, 20% loss.
func BenchmarkSimulatedRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		correct := []bool{true, true, true, true, true}
		oracle := fd.NewOracle(fd.OracleConfig{N: 5, Noise: fd.NoiseExact, Seed: uint64(i)}, correct)
		res := sim.NewEngine(sim.Config{
			N: 5,
			Factory: func(env sim.Env) urb.Process {
				return urb.NewQuiescent(oracle.Handle(env.Index, env.Now), env.Tags, urb.Config{})
			},
			Link:             channel.Bernoulli{P: 0.2, D: channel.UniformDelay{Min: 1, Max: 5}},
			Seed:             uint64(i),
			MaxTime:          100_000,
			Broadcasts:       []sim.ScheduledBroadcast{{At: 5, Proc: 0, Body: []byte("bench")}},
			StopWhenQuiet:    200,
			ExpectDeliveries: 1,
		}).Run()
		if !res.Quiescent {
			b.Fatal("bench run did not quiesce")
		}
	}
}

// BenchmarkTickPeriod is the ablation bench for the Task-1 period: the
// latency/overhead trade-off called out in DESIGN.md §5.
func BenchmarkTickPeriod(b *testing.B) {
	for _, period := range []sim.Time{5, 10, 20, 40} {
		b.Run(fmt.Sprintf("period=%d", period), func(b *testing.B) {
			var lastLatency float64
			for i := 0; i < b.N; i++ {
				res := sim.NewEngine(sim.Config{
					N: 5,
					Factory: func(env sim.Env) urb.Process {
						return urb.NewMajority(5, env.Tags, urb.Config{})
					},
					Link:             channel.Bernoulli{P: 0.2, D: channel.UniformDelay{Min: 1, Max: 5}},
					Seed:             uint64(i),
					TickEvery:        period,
					MaxTime:          100_000,
					Broadcasts:       []sim.ScheduledBroadcast{{At: 5, Proc: 0, Body: []byte("tick")}},
					ExpectDeliveries: 1,
				}).Run()
				lastLatency = float64(res.EndTime)
			}
			b.ReportMetric(lastLatency, "vtime/convergence")
		})
	}
}

// --- micro-benchmarks -------------------------------------------------

func BenchmarkTagGeneration(b *testing.B) {
	src := ident.NewSource(xrand.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = src.Next()
	}
}

func BenchmarkWireEncodeAck(b *testing.B) {
	labels := make([]ident.Tag, 8)
	rng := xrand.New(2)
	for i := range labels {
		labels[i] = ident.Tag{Hi: rng.Uint64() | 1, Lo: rng.Uint64()}
	}
	m := wire.NewLabeledAck(wire.MsgID{Tag: ident.Tag{Hi: 1, Lo: 2}, Body: "payload"},
		ident.Tag{Hi: 3, Lo: 4}, labels)
	buf := make([]byte, 0, m.EncodedSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.Encode(buf[:0])
	}
}

func BenchmarkWireDecodeAck(b *testing.B) {
	labels := make([]ident.Tag, 8)
	rng := xrand.New(3)
	for i := range labels {
		labels[i] = ident.Tag{Hi: rng.Uint64() | 1, Lo: rng.Uint64()}
	}
	enc := wire.NewLabeledAck(wire.MsgID{Tag: ident.Tag{Hi: 1, Lo: 2}, Body: "payload"},
		ident.Tag{Hi: 3, Lo: 4}, labels).Encode(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChannelBernoulliVerdict(b *testing.B) {
	w := channel.NewNetwork(8, channel.Bernoulli{P: 0.2, D: channel.UniformDelay{Min: 1, Max: 5}},
		xrand.New(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Send(int64(i), i&7, (i+1)&7, 64)
	}
}

func BenchmarkMajorityReceiveMsg(b *testing.B) {
	p := urb.NewMajority(5, ident.NewSource(xrand.New(5)), urb.Config{})
	msgs := make([]wire.Message, 64)
	rng := xrand.New(6)
	for i := range msgs {
		msgs[i] = wire.NewMsg(wire.MsgID{
			Tag:  ident.Tag{Hi: rng.Uint64() | 1, Lo: rng.Uint64()},
			Body: "m",
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Receive(msgs[i&63])
	}
}

func BenchmarkQuiescentReceiveAck(b *testing.B) {
	view := fd.Normalize(fd.View{
		{Label: ident.Tag{Hi: 1, Lo: 1}, Number: 1 << 30}, // never deliver: pure bookkeeping cost
		{Label: ident.Tag{Hi: 2, Lo: 1}, Number: 1 << 30},
		{Label: ident.Tag{Hi: 3, Lo: 1}, Number: 1 << 30},
	})
	det := fd.Static{Theta: view, Star: view}
	p := urb.NewQuiescent(det, ident.NewSource(xrand.New(7)), urb.Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	labels := []ident.Tag{{Hi: 1, Lo: 1}, {Hi: 2, Lo: 1}, {Hi: 3, Lo: 1}}
	acks := make([]wire.Message, 64)
	rng := xrand.New(8)
	for i := range acks {
		acks[i] = wire.NewLabeledAck(id, ident.Tag{Hi: rng.Uint64() | 1, Lo: rng.Uint64()}, labels)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Receive(acks[i&63])
	}
}

func BenchmarkOracleViewExact(b *testing.B) {
	correct := make([]bool, 16)
	for i := range correct {
		correct[i] = i%3 != 0
	}
	o := fd.NewOracle(fd.OracleConfig{N: 16, Noise: fd.NoiseExact, Seed: 9}, correct)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.ATheta(1, int64(i))
	}
}

func BenchmarkOracleViewAdversarial(b *testing.B) {
	correct := make([]bool, 16)
	for i := range correct {
		correct[i] = i%3 != 0
	}
	o := fd.NewOracle(fd.OracleConfig{
		N: 16, Noise: fd.NoiseAdversarial, GST: 1 << 40, NoisePeriod: 10, Seed: 10,
	}, correct)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.ATheta(1, int64(i))
	}
}

// BenchmarkQuiescentTickHistory measures one Task-1 pass of a process
// that has retired 1k or 10k messages and holds eight undelivered ones
// in MSG_i, under unchanged views. The retirement index makes a pass
// cost O(|MSG_i| + dirty records), so ns/op must stay flat across the
// two history sizes; growth with history is a regression.
func BenchmarkQuiescentTickHistory(b *testing.B) {
	for _, retired := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("retired=%d", retired), func(b *testing.B) {
			l := func(i uint64) ident.Tag { return ident.Tag{Hi: i, Lo: 1} }
			view := fd.Normalize(fd.View{{Label: l(1), Number: 3}, {Label: l(2), Number: 3}, {Label: l(3), Number: 3}})
			p := urb.NewQuiescent(fd.Static{Theta: view, Star: view}, ident.NewSource(xrand.New(11)),
				urb.Config{DeltaAcks: true, CheckOnTick: true})
			labels := []ident.Tag{l(1), l(2), l(3)}
			for i := 0; i < retired; i++ {
				id := wire.MsgID{Tag: ident.Tag{Hi: 77, Lo: uint64(i + 1)}, Body: fmt.Sprintf("h%05d", i)}
				p.Receive(wire.NewMsg(id))
				for a := uint64(0); a < 3; a++ {
					p.Receive(wire.NewAckSnapshot(id, l(100+a), 1, labels))
				}
				if i%64 == 63 {
					p.Tick()
				}
			}
			for i := 0; i < 8; i++ {
				p.Receive(wire.NewMsg(wire.MsgID{Tag: ident.Tag{Hi: 78, Lo: uint64(i + 1)}, Body: "live"}))
			}
			p.Tick()
			if st := p.Stats(); st.Retired != retired || st.MsgSet != 8 {
				b.Fatalf("setup: Retired=%d MsgSet=%d", st.Retired, st.MsgSet)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Tick()
			}
		})
	}
}
