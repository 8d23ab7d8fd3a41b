package trace

import (
	"strings"
	"testing"

	"anonurb/internal/channel"
	"anonurb/internal/ident"
	"anonurb/internal/sim"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
)

func id(h uint64, body string) wire.MsgID {
	return wire.MsgID{Tag: ident.Tag{Hi: h, Lo: 1}, Body: body}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindBroadcast: "broadcast", KindSend: "send", KindReceive: "receive",
		KindDeliver: "deliver", KindCrash: "crash",
	} {
		if k.String() != want {
			t.Fatalf("%v", k)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatal("unknown kind")
	}
}

func TestCheckerCleanRun(t *testing.T) {
	c := NewChecker(3, []bool{false, false, true})
	m := id(1, "a")
	events := []Event{
		{At: 1, Kind: KindBroadcast, Proc: 0, ID: m},
		{At: 5, Kind: KindDeliver, Proc: 0, ID: m},
		{At: 6, Kind: KindDeliver, Proc: 1, ID: m},
		{At: 7, Kind: KindDeliver, Proc: 2, ID: m},
		{At: 8, Kind: KindCrash, Proc: 2},
	}
	rep := c.Check(events)
	if !rep.OK() {
		t.Fatalf("clean run flagged: %v", rep.Violations)
	}
	if rep.Broadcast != 1 || rep.TotalDeliveries != 3 {
		t.Fatalf("counters: %+v", rep)
	}
}

func TestCheckerDuplicateDelivery(t *testing.T) {
	c := NewChecker(1, []bool{false})
	m := id(1, "a")
	rep := c.Check([]Event{
		{At: 1, Kind: KindBroadcast, Proc: 0, ID: m},
		{At: 2, Kind: KindDeliver, Proc: 0, ID: m},
		{At: 3, Kind: KindDeliver, Proc: 0, ID: m},
	})
	if rep.OK() || rep.Violations[0].Property != "uniform-integrity" {
		t.Fatalf("missed duplicate delivery: %+v", rep.Violations)
	}
}

func TestCheckerPhantomDelivery(t *testing.T) {
	c := NewChecker(1, []bool{false})
	rep := c.Check([]Event{
		{At: 2, Kind: KindDeliver, Proc: 0, ID: id(9, "ghost")},
	})
	if rep.OK() {
		t.Fatal("missed phantom delivery")
	}
	if !strings.Contains(rep.Err().Error(), "never URB-broadcast") {
		t.Fatalf("wrong violation: %v", rep.Err())
	}
}

func TestCheckerValidity(t *testing.T) {
	c := NewChecker(2, []bool{false, false})
	m := id(1, "a")
	rep := c.Check([]Event{
		{At: 1, Kind: KindBroadcast, Proc: 0, ID: m},
		{At: 5, Kind: KindDeliver, Proc: 1, ID: m},
		// p0 (correct broadcaster) never delivers its own message.
	})
	found := false
	for _, v := range rep.Violations {
		if v.Property == "validity" {
			found = true
		}
	}
	if !found {
		t.Fatalf("validity violation missed: %+v", rep.Violations)
	}
}

func TestCheckerUniformAgreement(t *testing.T) {
	// p1 (faulty) delivers then crashes; correct p0 never delivers.
	c := NewChecker(2, []bool{false, true})
	m := id(1, "a")
	rep := c.Check([]Event{
		{At: 1, Kind: KindBroadcast, Proc: 1, ID: m},
		{At: 2, Kind: KindDeliver, Proc: 1, ID: m},
		{At: 3, Kind: KindCrash, Proc: 1},
	})
	found := false
	for _, v := range rep.Violations {
		if v.Property == "uniform-agreement" {
			found = true
		}
	}
	if !found {
		t.Fatalf("agreement violation missed: %+v", rep.Violations)
	}
}

func TestCheckerFaultyBroadcasterNoValidityObligation(t *testing.T) {
	// A faulty broadcaster whose message nobody delivers is fine.
	c := NewChecker(2, []bool{true, false})
	m := id(1, "a")
	rep := c.Check([]Event{
		{At: 1, Kind: KindBroadcast, Proc: 0, ID: m},
		{At: 2, Kind: KindCrash, Proc: 0},
	})
	if !rep.OK() {
		t.Fatalf("false positive: %+v", rep.Violations)
	}
}

func TestCheckerActingAfterCrash(t *testing.T) {
	c := NewChecker(1, []bool{true})
	m := id(1, "a")
	rep := c.Check([]Event{
		{At: 1, Kind: KindBroadcast, Proc: 0, ID: m},
		{At: 2, Kind: KindCrash, Proc: 0},
		{At: 3, Kind: KindDeliver, Proc: 0, ID: m},
	})
	found := false
	for _, v := range rep.Violations {
		if v.Property == "crash-model" {
			found = true
		}
	}
	if !found {
		t.Fatalf("crash-model violation missed: %+v", rep.Violations)
	}
}

func TestCheckerDeliverAtCrashInstantAllowed(t *testing.T) {
	// The fast-deliver-then-crash adversary delivers and crashes at the
	// same virtual instant; that is legal.
	c := NewChecker(2, []bool{true, false})
	m := id(1, "a")
	rep := c.Check([]Event{
		{At: 1, Kind: KindBroadcast, Proc: 1, ID: m},
		{At: 2, Kind: KindDeliver, Proc: 0, ID: m},
		{At: 2, Kind: KindCrash, Proc: 0},
		{At: 3, Kind: KindDeliver, Proc: 1, ID: m},
	})
	if !rep.OK() {
		t.Fatalf("same-instant crash flagged: %+v", rep.Violations)
	}
}

func TestCheckerTagCollision(t *testing.T) {
	c := NewChecker(2, []bool{false, false})
	m := id(1, "a")
	rep := c.Check([]Event{
		{At: 1, Kind: KindBroadcast, Proc: 0, ID: m},
		{At: 2, Kind: KindBroadcast, Proc: 1, ID: m},
	})
	if rep.OK() || !strings.Contains(rep.Err().Error(), "collision") {
		t.Fatalf("collision missed: %+v", rep.Violations)
	}
}

func TestCheckerChannelIntegrity(t *testing.T) {
	c := NewChecker(2, []bool{false, false})
	msg := wire.NewMsg(id(1, "a"))
	rep := c.Check([]Event{
		{At: 1, Kind: KindSend, Proc: 0, Dst: 1, Msg: msg},
		{At: 2, Kind: KindReceive, Proc: 1, Msg: msg},
		{At: 3, Kind: KindReceive, Proc: 1, Msg: msg}, // duplicated!
	})
	found := false
	for _, v := range rep.Violations {
		if v.Property == "channel-integrity" {
			found = true
		}
	}
	if !found {
		t.Fatalf("duplication missed: %+v", rep.Violations)
	}
}

func TestCheckerFastDeliveryCounting(t *testing.T) {
	c := NewChecker(1, []bool{false})
	m := id(1, "a")
	rep := c.Check([]Event{
		{At: 1, Kind: KindBroadcast, Proc: 0, ID: m},
		{At: 2, Kind: KindDeliver, Proc: 0, ID: m, Fast: true},
	})
	if rep.FastDeliveries != 1 {
		t.Fatalf("fast deliveries %d", rep.FastDeliveries)
	}
}

func TestRecorderEndToEnd(t *testing.T) {
	// Record a real simulator run and check it end-to-end, including
	// wire-level channel integrity.
	const n = 4
	rec := NewRecorder(Options{Wire: true})
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
		Observers:        []sim.Observer{rec},
		ExpectDeliveries: 1,
	}).Run()

	sends, drops := rec.Sends()
	if sends == 0 || sends != res.Net.Sent || drops != res.Net.Dropped {
		t.Fatalf("recorder counts diverge from engine: %d/%d vs %+v", sends, drops, res.Net)
	}
	rep := NewChecker(n, res.Crashed).Check(rec.Events())
	if !rep.OK() {
		t.Fatalf("real run violates URB: %+v", rep.Violations)
	}
	if rep.TotalDeliveries == 0 {
		t.Fatal("no deliveries recorded")
	}
	if rec.Receives() == 0 || rec.LastSend() == 0 {
		t.Fatal("recorder counters")
	}
}

func TestCheckResultConvenience(t *testing.T) {
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
	rep := CheckResult(res)
	if !rep.OK() {
		t.Fatalf("CheckResult flagged a clean run: %+v", rep.Violations)
	}
	if rep.Broadcast != 1 {
		t.Fatalf("broadcast count %d", rep.Broadcast)
	}
}

func TestCheckerNonConvergentMode(t *testing.T) {
	// With CheckConvergent disabled, missing deliveries are tolerated
	// (used for truncated runs) but integrity still applies.
	c := NewChecker(2, []bool{false, false})
	c.CheckConvergent = false
	m := id(1, "a")
	rep := c.Check([]Event{
		{At: 1, Kind: KindBroadcast, Proc: 0, ID: m},
	})
	if !rep.OK() {
		t.Fatalf("non-convergent mode flagged missing deliveries: %+v", rep.Violations)
	}
}

func TestTimelineRendering(t *testing.T) {
	m := id(1, "hello")
	events := []Event{
		{At: 5, Kind: KindBroadcast, Proc: 0, ID: m},
		{At: 14, Kind: KindDeliver, Proc: 2, ID: m, Fast: true},
		{At: 60, Kind: KindCrash, Proc: 3},
		{At: 7, Kind: KindSend, Proc: 0, Dst: 1, Msg: wire.NewMsg(m), Dropped: true},
	}
	out := Timeline(4, events, TimelineOptions{Wire: true})
	for _, want := range []string{"URB-broadcast", "deliver", "(fast)", "crash", "⊘"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	// Events must come out time-sorted: the send at t=7 precedes the
	// delivery at t=14.
	if strings.Index(out, "t=7") > strings.Index(out, "t=14") {
		t.Fatalf("timeline not sorted:\n%s", out)
	}
	// Without Wire, sends are hidden.
	quiet := Timeline(4, events, TimelineOptions{})
	if strings.Contains(quiet, "⊘") {
		t.Fatal("wire events shown despite Wire=false")
	}
}

func TestTimelineTruncation(t *testing.T) {
	var events []Event
	for i := 0; i < 20; i++ {
		events = append(events, Event{At: int64(i), Kind: KindCrash, Proc: 0})
	}
	out := Timeline(2, events, TimelineOptions{MaxEvents: 5})
	if !strings.Contains(out, "more events") {
		t.Fatalf("truncation marker missing:\n%s", out)
	}
	if strings.Count(out, "crash") != 5 {
		t.Fatalf("truncation miscounted:\n%s", out)
	}
}

func TestTimelineWideSystemCompactLanes(t *testing.T) {
	events := []Event{{At: 1, Kind: KindCrash, Proc: 20}}
	out := Timeline(32, events, TimelineOptions{})
	if !strings.Contains(out, "p20") {
		t.Fatalf("compact lane label missing:\n%s", out)
	}
}

func TestCheckerRedelivered(t *testing.T) {
	m := id(1, "a")
	bcast := Event{At: 1, Kind: KindBroadcast, Proc: 0, ID: m}
	deliver := func(p int, at int64) Event { return Event{At: at, Kind: KindDeliver, Proc: p, ID: m} }
	adopt := Event{At: 3, Kind: KindAdopt, Proc: 1, ID: m}
	for _, tc := range []struct {
		name        string
		events      []Event
		redelivered int
	}{
		{"once each", []Event{bcast, deliver(0, 2), deliver(1, 2)}, 0},
		{"twice at one proc", []Event{bcast, deliver(0, 2), deliver(1, 2), deliver(1, 4)}, 1},
		{"three times at one proc", []Event{bcast, deliver(0, 2), deliver(0, 3), deliver(0, 4), deliver(1, 4)}, 2},
		{"adopted, never delivered", []Event{bcast, deliver(0, 2), adopt}, 0},
		{"adopted then delivered", []Event{bcast, deliver(0, 2), adopt, deliver(1, 4)}, 1},
		{"delivered then adopted", []Event{bcast, deliver(0, 2), deliver(1, 2), adopt}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := NewChecker(2, []bool{false, false}).Check(tc.events)
			if rep.Redelivered != tc.redelivered {
				t.Fatalf("redelivered %d, want %d", rep.Redelivered, tc.redelivered)
			}
			integrity := 0
			for _, v := range rep.Violations {
				if v.Property != "uniform-integrity" {
					t.Fatalf("unexpected violation %v", v)
				}
				integrity++
			}
			if integrity != tc.redelivered || len(rep.Missing) != 0 {
				t.Fatalf("violations %v, missing %v", rep.Violations, rep.Missing)
			}
		})
	}
}
