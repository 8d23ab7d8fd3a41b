package trace_test

// Tests that record real simulator runs. They live in the external test
// package because the simulator emits trace.Event and so imports trace.

import (
	"bytes"
	"testing"

	"anonurb/internal/channel"
	"anonurb/internal/sim"
	"anonurb/internal/trace"
	"anonurb/internal/urb"
)

func TestRecorderEndToEnd(t *testing.T) {
	// Record a real simulator run and check it end-to-end, including
	// wire-level channel integrity.
	const n = 4
	rec := trace.NewRecorder(trace.Options{Wire: true})
	res := sim.NewEngine(sim.Config{
		N: n,
		Factory: func(env sim.Env) urb.Process {
			return urb.NewMajority(n, env.Tags, urb.Config{})
		},
		Link:             channel.Bernoulli{P: 0.2, D: channel.UniformDelay{Min: 1, Max: 4}},
		Seed:             13,
		MaxTime:          20_000,
		CrashAt:          []sim.Time{sim.Never, sim.Never, sim.Never, 60},
		Broadcasts:       []sim.ScheduledBroadcast{{At: 3, Proc: 0, Body: []byte("hello")}},
		Observers:        []func(trace.Event){rec.Record},
		ExpectDeliveries: 1,
	}).Run()

	var sends, drops, receives uint64
	var lastSend int64
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindSend:
			sends++
			if e.Dropped {
				drops++
			}
			lastSend = e.At
		case trace.KindReceive:
			receives++
		}
	}
	if sends == 0 || sends != res.Net.Sent || drops != res.Net.Dropped {
		t.Fatalf("recorded sends diverge from engine: %d/%d vs %+v", sends, drops, res.Net)
	}
	rep := trace.NewChecker(n, res.Crashed).Check(rec.Events())
	if !rep.OK() {
		t.Fatalf("real run violates URB: %+v", rep.Violations)
	}
	if rep.TotalDeliveries == 0 {
		t.Fatal("no deliveries recorded")
	}
	if receives == 0 || lastSend == 0 || lastSend != res.LastSend {
		t.Fatalf("recorded receives %d, last send %d (engine %d)", receives, lastSend, res.LastSend)
	}
}

// TestResultEventsCheck: a Result's ledger alone, as events, passes the
// checker, and still does after a trip through the file format.
func TestResultEventsCheck(t *testing.T) {
	const n = 3
	res := sim.NewEngine(sim.Config{
		N: n,
		Factory: func(env sim.Env) urb.Process {
			return urb.NewMajority(n, env.Tags, urb.Config{})
		},
		Link:             channel.Reliable{D: channel.FixedDelay(1)},
		Seed:             14,
		MaxTime:          5000,
		Broadcasts:       []sim.ScheduledBroadcast{{At: 3, Proc: 1, Body: []byte("x")}},
		ExpectDeliveries: 1,
	}).Run()
	rep := trace.NewChecker(n, res.Crashed).Check(res.Events())
	if !rep.OK() {
		t.Fatalf("checker flagged a clean run: %+v", rep.Violations)
	}
	if rep.Broadcast != 1 {
		t.Fatalf("broadcast count %d", rep.Broadcast)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, n, res.Crashed, res.Events()); err != nil {
		t.Fatal(err)
	}
	h, events, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep := trace.NewChecker(h.N, h.Crashed).Check(events); !rep.OK() || rep.Broadcast != 1 {
		t.Fatalf("report after round trip %+v", rep)
	}
}

func TestTraceRoundTripCheckerAgrees(t *testing.T) {
	// Round-tripping a real run through the file format must not change
	// the checker's verdict.
	const n = 4
	rec := trace.NewRecorder(trace.Options{Wire: true})
	res := sim.NewEngine(sim.Config{
		N: n,
		Factory: func(env sim.Env) urb.Process {
			return urb.NewMajority(n, env.Tags, urb.Config{})
		},
		Link:             channel.Bernoulli{P: 0.2, D: channel.UniformDelay{Min: 1, Max: 4}},
		Seed:             31,
		MaxTime:          20_000,
		Broadcasts:       []sim.ScheduledBroadcast{{At: 3, Proc: 0, Body: []byte("io")}},
		Observers:        []func(trace.Event){rec.Record},
		ExpectDeliveries: 1,
	}).Run()

	var buf bytes.Buffer
	if err := trace.Write(&buf, n, res.Crashed, rec.Events()); err != nil {
		t.Fatal(err)
	}
	h, events, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	before := trace.NewChecker(n, res.Crashed).Check(rec.Events())
	after := trace.NewChecker(h.N, h.Crashed).Check(events)
	if before.OK() != after.OK() ||
		before.TotalDeliveries != after.TotalDeliveries ||
		before.Broadcast != after.Broadcast ||
		before.FastDeliveries != after.FastDeliveries {
		t.Fatalf("verdicts diverged: %+v vs %+v", before, after)
	}
}

// TestTraceRoundTripKeepsWireFields: every wire event of a churning
// heartbeat run with delta ACKs and delta beats — epochs, flags,
// removed labels, beat references, snapshot-transfer offsets, totals
// and checksums — re-encodes to the same bytes after a trip through the
// file format, so the channel-integrity rule tells apart exactly the
// messages the in-process check does.
func TestTraceRoundTripKeepsWireFields(t *testing.T) {
	const n = 4
	rec := trace.NewRecorder(trace.Options{Wire: true})
	res := sim.NewEngine(sim.Config{
		N: n,
		Factory: func(env sim.Env) urb.Process {
			return urb.NewHeartbeatHost(env.Tags, 100, 1, env.Now, urb.Config{DeltaAcks: true, DeltaBeats: true})
		},
		Link:    channel.Bernoulli{P: 0.2, D: channel.UniformDelay{Min: 1, Max: 4}},
		Seed:    7,
		MaxTime: 1_000,
		JoinAt:  []sim.Time{0, 0, 0, 400},
		Broadcasts: []sim.ScheduledBroadcast{
			{At: 50, Proc: 0, Body: []byte("pre-join")},
			{At: 600, Proc: 1, Body: []byte("post-join")},
		},
		Observers: []func(trace.Event){rec.Record},
	}).Run()
	if res.JoinedAt[3] == sim.Never {
		t.Fatal("joiner never completed: the run carries no snapshot transfer")
	}

	var buf bytes.Buffer
	if err := trace.Write(&buf, n, res.Crashed, rec.Events()); err != nil {
		t.Fatal(err)
	}
	_, got, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Events()
	if len(got) != len(want) {
		t.Fatalf("events %d, want %d", len(got), len(want))
	}
	distinct := map[string]bool{}
	for i := range want {
		if want[i].Kind != trace.KindSend && want[i].Kind != trace.KindReceive {
			continue
		}
		enc := want[i].Msg.Encode(nil)
		if !bytes.Equal(got[i].Msg.Encode(nil), enc) {
			t.Fatalf("event %d re-encodes differently after a round trip:\n%v\n%v", i, want[i].Msg, got[i].Msg)
		}
		distinct[string(enc)] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("only %d distinct wire messages: the run exercises too little", len(distinct))
	}
	before := trace.NewChecker(n, res.Crashed).Check(want)
	after := trace.NewChecker(n, res.Crashed).Check(got)
	if !before.OK() || !after.OK() {
		t.Fatalf("verdicts: before %+v, after %+v", before.Violations, after.Violations)
	}
}
