package rb

import (
	"testing"

	"anonurb/internal/channel"
	"anonurb/internal/ident"
	"anonurb/internal/sim"
	"anonurb/internal/trace"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

func src(seed uint64) *ident.Source { return ident.NewSource(xrand.New(seed)) }

func TestBestEffortDeliversOnceOnReception(t *testing.T) {
	p := NewBestEffort(src(1))
	id := wire.MsgID{Tag: ident.Tag{Hi: 1, Lo: 1}, Body: "m"}
	s := p.Receive(wire.NewMsg(id))
	if len(s.Deliveries) != 1 {
		t.Fatal("no delivery on first reception")
	}
	s = p.Receive(wire.NewMsg(id))
	if len(s.Deliveries) != 0 {
		t.Fatal("duplicate delivery")
	}
	if p.Stats().Delivered != 1 {
		t.Fatal("stats")
	}
}

func TestBestEffortBroadcastSelfDelivers(t *testing.T) {
	p := NewBestEffort(src(2))
	id, s := p.Broadcast([]byte("x"))
	if len(s.Broadcasts) != 1 || s.Broadcasts[0].Kind != wire.KindMsg {
		t.Fatal("must transmit exactly once")
	}
	if len(s.Deliveries) != 1 || s.Deliveries[0].ID != id {
		t.Fatal("sender must self-deliver")
	}
	// No periodic retransmission.
	if ticks := p.Tick(); len(ticks.Broadcasts) != 0 {
		t.Fatal("best effort must not retransmit")
	}
}

func TestBestEffortIgnoresAcks(t *testing.T) {
	p := NewBestEffort(src(3))
	s := p.Receive(wire.NewAck(wire.MsgID{Tag: ident.Tag{Hi: 1}, Body: "m"}, ident.Tag{Hi: 2}))
	if len(s.Deliveries)+len(s.Broadcasts) != 0 {
		t.Fatal("BEB has no ACK handling")
	}
}

func TestEagerRBRelaysExactlyOnce(t *testing.T) {
	p := NewEagerRB(src(4))
	id := wire.MsgID{Tag: ident.Tag{Hi: 1, Lo: 1}, Body: "m"}
	s := p.Receive(wire.NewMsg(id))
	if len(s.Broadcasts) != 1 || len(s.Deliveries) != 1 {
		t.Fatalf("first reception should relay+deliver: %v", s)
	}
	s = p.Receive(wire.NewMsg(id))
	if len(s.Broadcasts)+len(s.Deliveries) != 0 {
		t.Fatal("relay must happen exactly once")
	}
}

func TestIDedMajorityByIdentity(t *testing.T) {
	p := NewIDed(0, 3, src(5))
	id := wire.MsgID{Tag: ident.Tag{Hi: 1, Lo: 1}, Body: "m"}
	ackFrom := func(who uint64) wire.Message {
		return wire.NewAck(id, ident.Tag{Hi: idSentinel, Lo: who})
	}
	p.Receive(ackFrom(1))
	s := p.Receive(ackFrom(1)) // duplicate identity
	if len(s.Deliveries) != 0 {
		t.Fatal("duplicate identity counted")
	}
	s = p.Receive(ackFrom(2))
	if len(s.Deliveries) != 1 {
		t.Fatal("majority of identities should deliver")
	}
	// Receiving MSG generates an identity-ACK.
	s = p.Receive(wire.NewMsg(id))
	if len(s.Broadcasts) != 1 || s.Broadcasts[0].AckTag.Lo != 0 ||
		s.Broadcasts[0].AckTag.Hi != idSentinel {
		t.Fatalf("identity ack malformed: %v", s.Broadcasts)
	}
	// Non-identity acks are ignored.
	s = p.Receive(wire.NewAck(id, ident.Tag{Hi: 7, Lo: 7}))
	if len(s.Deliveries) != 0 {
		t.Fatal("foreign ack accepted")
	}
}

func TestIDedRetransmitsForever(t *testing.T) {
	p := NewIDed(1, 3, src(6))
	p.Broadcast([]byte("m"))
	for i := 0; i < 10; i++ {
		if len(p.Tick().Broadcasts) != 1 {
			t.Fatal("IDed URB must retransmit like Algorithm 1")
		}
	}
	if p.Stats().MsgSet != 1 {
		t.Fatal("stats")
	}
}

// simFactoryBEB et al. adapt the baselines to the simulator.
func beFactory() sim.Factory {
	return func(env sim.Env) urb.Process { return NewBestEffort(env.Tags) }
}

func eagerFactory() sim.Factory {
	return func(env sim.Env) urb.Process { return NewEagerRB(env.Tags) }
}

func idedFactory(n int) sim.Factory {
	return func(env sim.Env) urb.Process { return NewIDed(env.Index, n, env.Tags) }
}

func TestBestEffortLosesAgreementUnderLoss(t *testing.T) {
	// One shot over a 60%-lossy network: with high probability some
	// process misses the single copy and BEB never recovers — that is
	// the gap URB closes. (Deterministic seed: the gap reliably shows.)
	const n = 8
	res := sim.NewEngine(sim.Config{
		N:          n,
		Factory:    beFactory(),
		Link:       channel.Bernoulli{P: 0.6, D: channel.FixedDelay(2)},
		Seed:       12,
		MaxTime:    2_000,
		Broadcasts: []sim.ScheduledBroadcast{{At: 5, Proc: 0, Body: []byte("m")}},
	}).Run()
	got := 0
	for _, ds := range res.Deliveries {
		got += len(ds)
	}
	if got == 0 || got == n {
		t.Fatalf("seed should produce partial delivery for the demo, got %d/%d", got, n)
	}
	rep := trace.NewChecker(len(res.Deliveries), res.Crashed).Check(res.Events())
	agreementBroken := false
	for _, v := range rep.Violations {
		if v.Property == "uniform-agreement" {
			agreementBroken = true
		}
	}
	if !agreementBroken {
		t.Fatal("expected the checker to flag BEB's missing agreement")
	}
}

func TestEagerRBConvergesOnReliableChannels(t *testing.T) {
	// On reliable channels eager RB delivers everywhere in one round —
	// its home turf.
	const n = 6
	res := sim.NewEngine(sim.Config{
		N:                n,
		Factory:          eagerFactory(),
		Link:             channel.Reliable{D: channel.FixedDelay(2)},
		Seed:             13,
		MaxTime:          2_000,
		Broadcasts:       []sim.ScheduledBroadcast{{At: 5, Proc: 0, Body: []byte("m")}},
		ExpectDeliveries: 1,
	}).Run()
	rep := trace.NewChecker(len(res.Deliveries), res.Crashed).Check(res.Events())
	if err := rep.Err(); err != nil {
		t.Fatalf("eager RB on reliable channels must be clean: %v", err)
	}
	for i, ds := range res.Deliveries {
		if len(ds) != 1 {
			t.Fatalf("p%d delivered %d", i, len(ds))
		}
	}
}

func TestIDedConvergesUnderLossAndCrashes(t *testing.T) {
	const n = 5
	res := sim.NewEngine(sim.Config{
		N:                n,
		Factory:          idedFactory(n),
		Link:             channel.Bernoulli{P: 0.3, D: channel.UniformDelay{Min: 1, Max: 4}},
		Seed:             14,
		MaxTime:          50_000,
		CrashAt:          []sim.Time{sim.Never, sim.Never, sim.Never, sim.Never, 40},
		Broadcasts:       []sim.ScheduledBroadcast{{At: 5, Proc: 0, Body: []byte("m")}},
		ExpectDeliveries: 1,
	}).Run()
	rep := trace.NewChecker(len(res.Deliveries), res.Crashed).Check(res.Events())
	if err := rep.Err(); err != nil {
		t.Fatalf("IDed URB run not clean: %v", err)
	}
	for i := 0; i < 4; i++ {
		if len(res.Deliveries[i]) != 1 {
			t.Fatalf("correct p%d did not deliver", i)
		}
	}
}

func TestAnonymousRBDeliverOnFirstReception(t *testing.T) {
	p := NewAnonymousRB(src(7))
	id := wire.MsgID{Tag: ident.Tag{Hi: 4, Lo: 4}, Body: "m"}
	s := p.Receive(wire.NewMsg(id))
	if len(s.Deliveries) != 1 {
		t.Fatal("no delivery on first reception")
	}
	if len(p.Tick().Broadcasts) != 1 {
		t.Fatal("receiver must join the forever-retransmission")
	}
	if len(p.Receive(wire.NewMsg(id)).Deliveries) != 0 {
		t.Fatal("duplicate delivery")
	}
}

func TestAnonymousRBBroadcasterSelfDelivers(t *testing.T) {
	p := NewAnonymousRB(src(8))
	id, s := p.Broadcast([]byte("mine"))
	if len(s.Deliveries) != 1 || s.Deliveries[0].ID != id {
		t.Fatal("broadcaster must deliver its own message immediately")
	}
	for i := 0; i < 5; i++ {
		if len(p.Tick().Broadcasts) != 1 {
			t.Fatal("non-quiescent by design")
		}
	}
	if st := p.Stats(); st.MsgSet != 1 || st.Delivered != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestAnonymousRBIgnoresAcksAndBeats(t *testing.T) {
	p := NewAnonymousRB(src(9))
	id := wire.MsgID{Tag: ident.Tag{Hi: 4, Lo: 4}, Body: "m"}
	if s := p.Receive(wire.NewAck(id, ident.Tag{Hi: 1, Lo: 1})); len(s.Deliveries) != 0 {
		t.Fatal("ACKs are not AnonymousRB traffic")
	}
	if s := p.Receive(wire.NewBeat(ident.Tag{Hi: 2, Lo: 2})); len(s.Deliveries) != 0 {
		t.Fatal("beats are not AnonymousRB traffic")
	}
}

func TestAnonymousRBCorrectAgreementUnderLoss(t *testing.T) {
	// All-correct run over a 40%-lossy mesh: forever-retransmission gets
	// everything everywhere (the companion TR's claim).
	const n = 5
	res := sim.NewEngine(sim.Config{
		N:                n,
		Factory:          func(env sim.Env) urb.Process { return NewAnonymousRB(env.Tags) },
		Link:             channel.Bernoulli{P: 0.4, D: channel.UniformDelay{Min: 1, Max: 4}},
		Seed:             41,
		MaxTime:          100_000,
		Broadcasts:       []sim.ScheduledBroadcast{{At: 5, Proc: 0, Body: []byte("rb")}},
		ExpectDeliveries: 1,
	}).Run()
	for i, ds := range res.Deliveries {
		if len(ds) != 1 {
			t.Fatalf("p%d delivered %d", i, len(ds))
		}
	}
	if err := trace.NewChecker(len(res.Deliveries), res.Crashed).Check(res.Events()).Err(); err != nil {
		t.Fatal(err)
	}
}
