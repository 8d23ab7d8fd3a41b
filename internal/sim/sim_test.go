package sim

import (
	"testing"

	"anonurb/internal/channel"
	"anonurb/internal/fd"
	"anonurb/internal/trace"
	"anonurb/internal/urb"
)

// majorityFactory builds Algorithm 1 processes.
func majorityFactory(n int, cfg urb.Config) Factory {
	return func(env Env) urb.Process {
		return urb.NewMajority(n, env.Tags, cfg)
	}
}

// quiescentFactory builds Algorithm 2 processes wired to an oracle.
func quiescentFactory(o *fd.Oracle, cfg urb.Config) Factory {
	return func(env Env) urb.Process {
		return urb.NewQuiescent(o.Handle(env.Index, env.Now), env.Tags, cfg)
	}
}

func lossy(p float64) channel.LinkModel {
	return channel.Bernoulli{P: p, D: channel.UniformDelay{Min: 1, Max: 5}}
}

func TestEngineMajorityLossless(t *testing.T) {
	const n = 5
	res := NewEngine(Config{
		N:       n,
		Factory: majorityFactory(n, urb.Config{}),
		Link:    channel.Reliable{D: channel.FixedDelay(2)},
		Seed:    1,
		MaxTime: 2000,
		Broadcasts: []ScheduledBroadcast{
			{At: 5, Proc: 0, Body: []byte("alpha")},
			{At: 7, Proc: 3, Body: []byte("beta")},
		},
		ExpectDeliveries: 2,
	}).Run()
	if len(res.Broadcasts) != 2 {
		t.Fatalf("broadcasts recorded: %d", len(res.Broadcasts))
	}
	for i := 0; i < n; i++ {
		if got := len(res.Deliveries[i]); got != 2 {
			t.Fatalf("p%d delivered %d, want 2 (end=%d)", i, got, res.EndTime)
		}
	}
	if res.EndTime >= 2000 {
		t.Fatal("should have stopped early on ExpectDeliveries")
	}
}

func TestEngineMajorityUnderLossAndCrashes(t *testing.T) {
	// n=7, t=3 < n/2: three crashes mid-run, 30% loss. All four
	// survivors must deliver both messages.
	const n = 7
	crash := []Time{Never, 18, Never, 25, Never, 40, Never}
	res := NewEngine(Config{
		N:       n,
		Factory: majorityFactory(n, urb.Config{}),
		Link:    lossy(0.3),
		Seed:    42,
		MaxTime: 3000, // no early stop: crashes must actually fire
		CrashAt: crash,
		Broadcasts: []ScheduledBroadcast{
			{At: 5, Proc: 1, Body: []byte("from-a-faulty-sender")},
			{At: 9, Proc: 0, Body: []byte("from-a-correct-sender")},
		},
	}).Run()
	for i := 0; i < n; i++ {
		if crash[i] != Never {
			continue
		}
		if got := len(res.Deliveries[i]); got != 2 {
			t.Fatalf("correct p%d delivered %d, want 2", i, got)
		}
	}
	if !res.Crashed[1] || !res.Crashed[3] || !res.Crashed[5] {
		t.Fatal("crash schedule not applied")
	}
}

func TestEngineDeterministicReplay(t *testing.T) {
	mk := func() Result {
		return NewEngine(Config{
			N:       5,
			Factory: majorityFactory(5, urb.Config{}),
			Link:    lossy(0.25),
			Seed:    777,
			MaxTime: 3000,
			CrashAt: []Time{Never, 50, Never, Never, Never},
			Broadcasts: []ScheduledBroadcast{
				{At: 3, Proc: 0, Body: []byte("x")},
				{At: 11, Proc: 2, Body: []byte("y")},
			},
			ExpectDeliveries: 2,
		}).Run()
	}
	a, b := mk(), mk()
	if a.EndTime != b.EndTime || a.Net != b.Net || a.LastSend != b.LastSend {
		t.Fatalf("replay diverged: %+v vs %+v", a.Net, b.Net)
	}
	for i := range a.Deliveries {
		if len(a.Deliveries[i]) != len(b.Deliveries[i]) {
			t.Fatalf("p%d delivery counts differ", i)
		}
		for j := range a.Deliveries[i] {
			if a.Deliveries[i][j] != b.Deliveries[i][j] {
				t.Fatalf("p%d delivery %d differs", i, j)
			}
		}
	}
}

func TestEngineQuiescentExactOracle(t *testing.T) {
	const n = 5
	crash := []Time{Never, Never, 80, Never, Never}
	correct := CorrectSet(n, crash, nil)
	oracle := fd.NewOracle(fd.OracleConfig{N: n, Noise: fd.NoiseExact, Seed: 9}, correct)
	res := NewEngine(Config{
		N:       n,
		Factory: quiescentFactory(oracle, urb.Config{}),
		Link:    lossy(0.2),
		Seed:    9,
		MaxTime: 50_000,
		CrashAt: crash,
		Broadcasts: []ScheduledBroadcast{
			{At: 5, Proc: 0, Body: []byte("one")},
			{At: 9, Proc: 3, Body: []byte("two")},
		},
		StopWhenQuiet:    200,
		ExpectDeliveries: 2,
	}).Run()
	if !res.Quiescent {
		t.Fatalf("run did not quiesce (end=%d lastSend=%d)", res.EndTime, res.LastSend)
	}
	for i := 0; i < n; i++ {
		if crash[i] != Never {
			continue
		}
		if got := len(res.Deliveries[i]); got != 2 {
			t.Fatalf("correct p%d delivered %d, want 2", i, got)
		}
		if res.ProcStats[i].MsgSet != 0 {
			t.Fatalf("p%d still retransmitting %d messages", i, res.ProcStats[i].MsgSet)
		}
		if res.ProcStats[i].Retired != 2 {
			t.Fatalf("p%d retired %d, want 2", i, res.ProcStats[i].Retired)
		}
	}
}

func TestEngineQuiescentWithGSTAndNoise(t *testing.T) {
	const n = 4
	crash := []Time{Never, 60, Never, Never}
	correct := CorrectSet(n, crash, nil)
	for _, mode := range []fd.NoiseMode{fd.NoiseBenign, fd.NoiseAdversarial} {
		oracle := fd.NewOracle(fd.OracleConfig{
			N: n, GST: 400, Noise: mode, NoisePeriod: 20, Seed: 5,
		}, correct)
		res := NewEngine(Config{
			N:       n,
			Factory: quiescentFactory(oracle, urb.Config{}),
			Link:    lossy(0.15),
			Seed:    5,
			MaxTime: 100_000,
			CrashAt: crash,
			Broadcasts: []ScheduledBroadcast{
				{At: 5, Proc: 0, Body: []byte("pre-gst")},
			},
			StopWhenQuiet:    300,
			ExpectDeliveries: 1,
		}).Run()
		if !res.Quiescent {
			t.Fatalf("mode %v: not quiescent by %d", mode, res.EndTime)
		}
		for i := 0; i < n; i++ {
			if crash[i] == Never && len(res.Deliveries[i]) != 1 {
				t.Fatalf("mode %v: p%d delivered %d", mode, i, len(res.Deliveries[i]))
			}
		}
		if res.LastSend < 400 {
			t.Fatalf("mode %v: quiescence before GST is suspicious (lastSend=%d)", mode, res.LastSend)
		}
	}
}

func TestEngineMajorityNeverQuiesces(t *testing.T) {
	const n = 3
	res := NewEngine(Config{
		N:                n,
		Factory:          majorityFactory(n, urb.Config{}),
		Link:             channel.Reliable{D: channel.FixedDelay(1)},
		Seed:             3,
		MaxTime:          5000,
		Broadcasts:       []ScheduledBroadcast{{At: 2, Proc: 0, Body: []byte("forever")}},
		StopWhenQuiet:    500,
		ExpectDeliveries: 0,
	}).Run()
	if res.Quiescent {
		t.Fatal("Algorithm 1 cannot be quiescent")
	}
	if res.EndTime < 5000 {
		t.Fatalf("should have run to MaxTime, ended at %d", res.EndTime)
	}
	// The retransmission keeps going to the end.
	if res.LastSend < 4900 {
		t.Fatalf("lastSend %d: Task 1 stopped early?", res.LastSend)
	}
}

func TestEngineFastDeliverThenCrashAdversary(t *testing.T) {
	// The paper's remark: a process URB-delivers from ACKs alone and
	// immediately crashes. Uniform agreement must still hold: all
	// correct processes deliver.
	const n = 5
	crashAfter := []int{0, 1, 0, 0, 0} // p1 dies right after its 1st delivery
	correct := CorrectSet(n, nil, crashAfter)
	// RevealToFaulty lets the doomed process see the correct labels, so
	// it can assemble delivery evidence before anyone else; without it a
	// faulty process's own label is never claimed by two ackers in exact
	// mode and it cannot deliver at all (see fd.OracleConfig).
	oracle := fd.NewOracle(fd.OracleConfig{
		N: n, Noise: fd.NoiseExact, RevealToFaulty: 1, Seed: 11,
	}, correct)
	res := NewEngine(Config{
		N:                    n,
		Factory:              quiescentFactory(oracle, urb.Config{}),
		Link:                 lossy(0.2),
		Seed:                 11,
		MaxTime:              50_000,
		CrashAfterDeliveries: crashAfter,
		Broadcasts:           []ScheduledBroadcast{{At: 5, Proc: 1, Body: []byte("doomed-sender")}},
		StopWhenQuiet:        200,
		ExpectDeliveries:     1,
	}).Run()
	if !res.Crashed[1] {
		t.Fatal("adversary did not trigger")
	}
	if len(res.Deliveries[1]) != 1 {
		t.Fatalf("p1 should have delivered exactly once before dying, got %d", len(res.Deliveries[1]))
	}
	for i := 0; i < n; i++ {
		if i == 1 {
			continue
		}
		if len(res.Deliveries[i]) != 1 {
			t.Fatalf("uniform agreement violated: p%d delivered %d", i, len(res.Deliveries[i]))
		}
	}
}

func TestEngineSampling(t *testing.T) {
	const n = 3
	res := NewEngine(Config{
		N:           n,
		Factory:     majorityFactory(n, urb.Config{}),
		Link:        channel.Reliable{D: channel.FixedDelay(1)},
		Seed:        4,
		MaxTime:     500,
		Broadcasts:  []ScheduledBroadcast{{At: 2, Proc: 0, Body: []byte("s")}},
		SampleEvery: 50,
	}).Run()
	if len(res.Samples) < 8 {
		t.Fatalf("samples: %d", len(res.Samples))
	}
	var last uint64
	for _, s := range res.Samples {
		if s.CumSent < last {
			t.Fatal("cumulative sends must be monotone")
		}
		last = s.CumSent
		if len(s.Stats) != n {
			t.Fatal("sample stats width")
		}
	}
	if last == 0 {
		t.Fatal("no traffic sampled")
	}
}

func TestEngineSingleProcess(t *testing.T) {
	// n=1: the majority threshold is 1 ack (2*1 > 1); the process hears
	// its own MSG over the lossy self-link and delivers.
	res := NewEngine(Config{
		N:                1,
		Factory:          majorityFactory(1, urb.Config{}),
		Link:             lossy(0.5),
		Seed:             6,
		MaxTime:          10_000,
		Broadcasts:       []ScheduledBroadcast{{At: 1, Proc: 0, Body: []byte("solo")}},
		ExpectDeliveries: 1,
	}).Run()
	if len(res.Deliveries[0]) != 1 {
		t.Fatal("single process must deliver its own broadcast")
	}
}

func TestEngineObserverPlumbing(t *testing.T) {
	const n = 3
	// obs counts the hook's events by kind.
	var obs struct {
		broadcasts, sends, drops, receives, delivers, crashes int
	}
	count := func(e trace.Event) {
		switch e.Kind {
		case trace.KindBroadcast:
			obs.broadcasts++
		case trace.KindSend:
			obs.sends++
			if e.Dropped {
				obs.drops++
			}
		case trace.KindReceive:
			obs.receives++
		case trace.KindDeliver:
			obs.delivers++
		case trace.KindCrash:
			obs.crashes++
		}
	}
	res := NewEngine(Config{
		N:                n,
		Factory:          majorityFactory(n, urb.Config{}),
		Link:             lossy(0.2),
		Seed:             8,
		MaxTime:          5000,
		CrashAt:          []Time{Never, Never, 100},
		Broadcasts:       []ScheduledBroadcast{{At: 2, Proc: 0, Body: []byte("watch")}},
		Observers:        []func(trace.Event){count},
		ExpectDeliveries: 1,
	}).Run()
	if obs.broadcasts != 1 {
		t.Fatalf("broadcasts observed: %d", obs.broadcasts)
	}
	if obs.sends == 0 || obs.receives == 0 || obs.delivers == 0 {
		t.Fatalf("observer missed events: %+v", obs)
	}
	if uint64(obs.sends) != res.Net.Sent {
		t.Fatalf("observer sends %d != net %d", obs.sends, res.Net.Sent)
	}
	if uint64(obs.drops) != res.Net.Dropped {
		t.Fatalf("observer drops %d != net %d", obs.drops, res.Net.Dropped)
	}
	if res.EndTime >= 100 && obs.crashes != 1 {
		t.Fatalf("crashes observed: %d", obs.crashes)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	okFactory := majorityFactory(1, urb.Config{})
	link := channel.Blackhole{}
	mustPanic("N", func() { NewEngine(Config{N: 0, Factory: okFactory, Link: link}) })
	mustPanic("Factory", func() { NewEngine(Config{N: 1, Link: link}) })
	mustPanic("Link", func() { NewEngine(Config{N: 1, Factory: okFactory}) })
	mustPanic("CrashAt", func() {
		NewEngine(Config{N: 2, Factory: okFactory, Link: link, CrashAt: []Time{1}})
	})
	mustPanic("BroadcastProc", func() {
		NewEngine(Config{N: 1, Factory: okFactory, Link: link,
			Broadcasts: []ScheduledBroadcast{{At: 1, Proc: 9, Body: []byte("x")}}})
	})
}

func TestCorrectSet(t *testing.T) {
	got := CorrectSet(4, []Time{Never, 5, Never, 0}, nil)
	want := []bool{true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CorrectSet[%d] = %v", i, got[i])
		}
	}
	got = CorrectSet(3, nil, []int{0, 2, 0})
	if got[0] != true || got[1] != false || got[2] != true {
		t.Fatalf("CorrectSet with delivery crashes: %v", got)
	}
}
