package nemesis

import (
	"testing"

	"anonurb/internal/harness"
	"anonurb/internal/ident"
	"anonurb/internal/sim"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
)

// faultyDelivery wraps a process and tampers with its first delivery
// exactly once: with redeliver set it re-emits that Delivery on its
// next Step, otherwise it swallows it. The inner process believes it
// delivered either way, so nothing downstream corrects the fault; only
// the auditors' referee, trace.Checker, can notice. The wrapper hides
// the inner explainer, so no audit can excuse the fault either.
type faultyDelivery struct {
	urb.Process
	redeliver bool
	tampered  bool
	pending   []urb.Delivery
	victim    wire.MsgID
}

func (f *faultyDelivery) tamper(s urb.Step) urb.Step {
	if len(f.pending) > 0 {
		s.Deliveries = append(f.pending, s.Deliveries...)
		f.pending = nil
	}
	if !f.tampered && len(s.Deliveries) > 0 {
		f.tampered = true
		f.victim = s.Deliveries[0].ID
		if f.redeliver {
			f.pending = []urb.Delivery{s.Deliveries[0]}
		} else {
			s.Deliveries = s.Deliveries[1:]
		}
	}
	return s
}

func (f *faultyDelivery) Broadcast(body []byte) (wire.MsgID, urb.Step) {
	id, s := f.Process.Broadcast(body)
	return id, f.tamper(s)
}

func (f *faultyDelivery) Receive(m wire.Message) urb.Step { return f.tamper(f.Process.Receive(m)) }

func (f *faultyDelivery) Tick() urb.Step { return f.tamper(f.Process.Tick()) }

// faultless is a campaign whose only stage adds zero loss for one
// unit (a campaign needs a stage): any audit failure is the double's
// doing.
func faultless(t *testing.T) Campaign {
	c, err := Parse("name=faultless;loss@0-1:0;deadline=1500")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkCaught asserts the audit verdict the double must produce: one
// re-delivery, or exactly one stall naming the victim proc and id.
func checkCaught(t *testing.T, a Audit, f *faultyDelivery, proc int) {
	t.Helper()
	if a.OK() {
		t.Fatalf("audit passed a faulty process:\n%s", a.Report())
	}
	if f.redeliver {
		if a.Redelivered != 1 {
			t.Fatalf("redelivered %d, want 1:\n%s", a.Redelivered, a.Report())
		}
		return
	}
	if a.Redelivered != 0 || len(a.Stalls) != 1 ||
		a.Stalls[0].Proc != proc || a.Stalls[0].ID != f.victim {
		t.Fatalf("want exactly one stall of p%d on %v:\n%s", proc, f.victim, a.Report())
	}
}

// TestRefereeCatchesFaultyDeliverySim and its live twin run the same
// doubles through both auditors: one referee, sim and live.
func TestRefereeCatchesFaultyDeliverySim(t *testing.T) {
	const victim = 1
	for _, redeliver := range []bool{true, false} {
		cfg, _ := baseScenario(harness.AlgoMajority, 1).Build()
		inner := cfg.Factory
		f := &faultyDelivery{redeliver: redeliver}
		cfg.Factory = func(env sim.Env) urb.Process {
			p := inner(env)
			if env.Index != victim {
				return p
			}
			f.Process = p
			return f
		}
		res, err := RunSim(cfg, faultless(t))
		if err != nil {
			t.Fatal(err)
		}
		checkCaught(t, res.Audit, f, victim)
	}
}

func TestRefereeCatchesFaultyDeliveryLive(t *testing.T) {
	const n, victim = 3, 1
	for _, redeliver := range []bool{true, false} {
		cfg := liveConfig(n, 5)
		f := &faultyDelivery{redeliver: redeliver}
		cfg.Factory = func(index int, tags *ident.Source, _ func() int64) urb.Process {
			p := urb.NewMajority(n, tags, urb.Config{})
			if index != victim {
				return p
			}
			f.Process = p
			return f
		}
		res, err := RunLive(LiveRun{Config: cfg, Campaign: faultless(t), Broadcasts: liveWorkload(n)})
		if err != nil {
			t.Fatal(err)
		}
		checkCaught(t, res.Audit, f, victim)
	}
}
