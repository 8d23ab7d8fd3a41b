package sim

import (
	"testing"

	"anonurb/internal/channel"
	"anonurb/internal/fd"
	"anonurb/internal/store"
	"anonurb/internal/trace"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
)

// assertNoDuplicateDeliveries fails if any process delivered an ID twice
// (uniform integrity — across restarts included).
func assertNoDuplicateDeliveries(t *testing.T, res Result) {
	t.Helper()
	for i, ds := range res.Deliveries {
		seen := make(map[wire.MsgID]bool)
		for _, d := range ds {
			if seen[d.ID] {
				t.Fatalf("proc %d delivered %v twice", i, d.ID)
			}
			seen[d.ID] = true
		}
	}
}

// TestSimCrashRecoverMajority: a process crashes mid-run, restarts from
// its store, and the run converges with uniform agreement intact — the
// recovered process delivers everything, re-delivers nothing.
func TestSimCrashRecoverMajority(t *testing.T) {
	const n = 5
	stores := make([]store.Store, n)
	stores[0] = store.NewMem()
	res := NewEngine(Config{
		N: n,
		Factory: func(env Env) urb.Process {
			return urb.NewMajority(n, env.Tags, urb.Config{})
		},
		Link:            channel.Bernoulli{P: 0.2, D: channel.UniformDelay{Min: 1, Max: 4}},
		Seed:            2015,
		MaxTime:         100_000,
		CrashAt:         []Time{60, Never, Never, Never, Never},
		RecoverAt:       []Time{400, Never, Never, Never, Never},
		Stores:          stores,
		CheckpointEvery: 50,
		Broadcasts: []ScheduledBroadcast{
			{At: 5, Proc: 0, Body: []byte("from-the-crasher")},
			{At: 9, Proc: 1, Body: []byte("from-a-survivor")},
			{At: 500, Proc: 2, Body: []byte("after-recovery")},
		},
		ExpectDeliveries: 3,
	}).Run()

	if !res.Recovered[0] {
		t.Fatal("proc 0 did not recover")
	}
	if res.Crashed[0] {
		t.Fatal("a recovered process must not report crashed")
	}
	assertNoDuplicateDeliveries(t, res)
	// Uniform agreement in the crash-recovery reading: every process that
	// ended the run live — the recovered one included — delivered all
	// three messages.
	for i := 0; i < n; i++ {
		if res.Crashed[i] {
			continue
		}
		if got := len(res.Deliveries[i]); got != 3 {
			t.Fatalf("proc %d delivered %d/3 messages", i, got)
		}
	}
	// The recovered process's pre-crash deliveries survived: its list
	// contains the pre-crash message exactly once even though the crash
	// landed right after dissemination began.
	if len(res.Deliveries[0]) != 3 {
		t.Fatalf("recovered proc delivered %d/3", len(res.Deliveries[0]))
	}
}

// TestSimCrashRecoverQuiescent: Algorithm 2 with the oracle, one process
// crash-recovering. The recovered process counts as correct, so the
// oracle keeps its label trusted; after recovery it re-acks under its
// pinned tag_acks and the cluster still retires everything and falls
// silent.
func TestSimCrashRecoverQuiescent(t *testing.T) {
	// Delta ACKs over interned acker views: crash-recovery restores the
	// shared sets from the snapshot's set table and reaches the quiescent
	// endgame.
	t.Run("delta", func(t *testing.T) {
		testSimCrashRecoverQuiescent(t, urb.Config{DeltaAcks: true})
	})
}

func testSimCrashRecoverQuiescent(t *testing.T, cfg urb.Config) {
	const n = 4
	correct := make([]bool, n)
	for i := range correct {
		correct[i] = true // crash-recovery: proc 0 resumes, so it is correct
	}
	oracle := fd.NewOracle(fd.OracleConfig{N: n, Noise: fd.NoiseExact, Seed: 2015}, correct)
	stores := make([]store.Store, n)
	stores[0] = store.NewMem()

	var eng *Engine
	eng = NewEngine(Config{
		N: n,
		Factory: func(env Env) urb.Process {
			// eng is nil while NewEngine builds the processes; the clock
			// closure is only invoked during Run, after the assignment.
			return urb.NewQuiescent(oracle.Handle(env.Index, func() int64 { return eng.Now() }), env.Tags, cfg)
		},
		Link:            channel.Bernoulli{P: 0.15, D: channel.UniformDelay{Min: 1, Max: 3}},
		Seed:            7,
		MaxTime:         200_000,
		CrashAt:         []Time{40, Never, Never, Never},
		RecoverAt:       []Time{600, Never, Never, Never},
		Stores:          stores,
		CheckpointEvery: 20,
		Broadcasts: []ScheduledBroadcast{
			// m-one completes before the crash; m-two is broadcast while
			// proc 0 is down, so with the oracle counting proc 0 as
			// correct (number = 4) nobody can even deliver it — the whole
			// cluster is blocked until the durable process returns and
			// acks. Recovery is load-bearing, not incidental.
			{At: 5, Proc: 1, Body: []byte("m-one")},
			{At: 45, Proc: 2, Body: []byte("m-two")},
		},
		StopWhenQuiet:    300,
		ExpectDeliveries: 2,
	})
	res := eng.Run()

	if !res.Recovered[0] {
		t.Fatal("proc 0 did not recover")
	}
	if !res.Quiescent {
		t.Fatalf("run did not quiesce (end=%d, lastSend=%d)", res.EndTime, res.LastSend)
	}
	if res.EndTime < 600 {
		t.Fatalf("run ended at %d, before the recovery it depends on", res.EndTime)
	}
	assertNoDuplicateDeliveries(t, res)
	for i := 0; i < n; i++ {
		if got := len(res.Deliveries[i]); got != 2 {
			t.Fatalf("proc %d delivered %d/2", i, got)
		}
		if res.ProcStats[i].MsgSet != 0 {
			t.Fatalf("proc %d still retransmitting %d messages after quiescence", i, res.ProcStats[i].MsgSet)
		}
	}
	// The recovered process retired everything it knew, like everyone
	// else — quiescence is cluster-wide, restarts included.
	if res.ProcStats[0].Retired == 0 {
		t.Fatal("recovered process retired nothing")
	}
}

// TestSimRecoverObserver: the hook sees exactly one recover event per
// recovery, at the scheduled time.
func TestSimRecoverObserver(t *testing.T) {
	const n = 3
	stores := make([]store.Store, n)
	stores[1] = store.NewMem()
	var recovered []int
	var at []Time
	record := func(e trace.Event) {
		if e.Kind == trace.KindRecover {
			recovered = append(recovered, e.Proc)
			at = append(at, e.At)
		}
	}
	NewEngine(Config{
		N: n,
		Factory: func(env Env) urb.Process {
			return urb.NewMajority(n, env.Tags, urb.Config{})
		},
		Link:      channel.Reliable{D: channel.FixedDelay(1)},
		Seed:      3,
		MaxTime:   300, // no delivery stop: the run must outlive the recovery
		CrashAt:   []Time{Never, 40, Never},
		RecoverAt: []Time{Never, 200, Never},
		Stores:    stores,
		Broadcasts: []ScheduledBroadcast{
			{At: 5, Proc: 0, Body: []byte("x")},
		},
		Observers: []func(trace.Event){record},
	}).Run()
	if len(recovered) != 1 || recovered[0] != 1 {
		t.Fatalf("recover events for %v, want [1]", recovered)
	}
	if at[0] != 200 {
		t.Fatalf("recover event at t=%d, want 200", at[0])
	}
}
