package trace

import (
	"fmt"

	"anonurb/internal/sim"
	"anonurb/internal/wire"
)

// Violation describes one property failure found by a checker.
type Violation struct {
	Property string
	Detail   string
}

// Error renders the violation.
func (v Violation) Error() string { return v.Property + ": " + v.Detail }

// Missing is one obliged message a correct process neither delivered
// nor adopted: an open validity or uniform-agreement obligation.
type Missing struct {
	Proc int
	ID   wire.MsgID
}

// Report is the outcome of checking one run.
type Report struct {
	Violations []Violation
	// Broadcast counts distinct URB-broadcast messages.
	Broadcast int
	// FastDeliveries counts deliveries that happened before any MSG copy
	// arrived at the deliverer.
	FastDeliveries int
	// TotalDeliveries counts all deliveries.
	TotalDeliveries int
	// Missing lists, when the eventual properties are checked, every
	// obliged message a correct process neither delivered nor adopted,
	// sorted by process, then by first appearance in the trace
	// (broadcast order). A message is obliged when its broadcaster is
	// correct or anybody delivered it; a faulty broadcaster's message
	// nobody delivered may legally vanish. The validity and
	// uniform-agreement violations are derived from it.
	Missing []Missing
	// Redelivered counts deliveries beyond the first of one id at one
	// process. Adoption at join is a process's first delivery of an id,
	// so delivering adopted history counts too.
	Redelivered int
}

// OK reports whether no property was violated.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns the first violation as an error, or nil.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return r.Violations[0]
}

func (r *Report) add(property, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Property: property,
		Detail:   fmt.Sprintf(format, args...),
	})
}

// Checker verifies a recorded run against the URB properties. n is the
// system size; crashed[i] gives the run's ground-truth crash outcomes
// (a process that never crashed in the run counts as correct, per the
// paper's definition of correctness in a run). A caller that holds only
// some processes to the eventual properties — one that left, or whose
// join never completed — marks the others crashed.
type Checker struct {
	n       int
	crashed []bool
	// CheckConvergent enables the eventual properties (validity,
	// agreement) and Report.Missing, which are only meaningful if the
	// run was given enough time to converge.
	CheckConvergent bool
}

// NewChecker builds a checker for a run over n processes.
func NewChecker(n int, crashed []bool) *Checker {
	return &Checker{n: n, crashed: crashed, CheckConvergent: true}
}

// Check runs every applicable property check.
func (c *Checker) Check(events []Event) *Report {
	rep := &Report{}

	type procID struct {
		proc int
		id   wire.MsgID
	}
	broadcasts := make(map[wire.MsgID]Event)
	var order []wire.MsgID // ids by first appearance: Report.Missing's order
	deliverers := make(map[wire.MsgID]int)
	deliveryCount := make(map[procID]int)
	adopted := make(map[procID]bool)
	crashedAt := make(map[int]sim.Time)
	// Channel accounting: copies offered per (dst, encoded message) vs
	// copies received — receives must never exceed surviving sends
	// (channels neither create nor duplicate messages).
	type linkKey struct {
		dst int
		enc string
	}
	offered := make(map[linkKey]int)
	received := make(map[linkKey]int)
	sawWire := false

	// redelivered records a second holding of k.id at k.proc: a repeat
	// delivery, or a delivery of adopted history.
	redelivered := func(k procID) {
		rep.Redelivered++
		if n := deliveryCount[k]; n > 1 {
			rep.add("uniform-integrity", "p%d delivered %v %d times", k.proc, k.id, n)
		} else {
			rep.add("uniform-integrity", "p%d delivered %v which it adopted at join", k.proc, k.id)
		}
	}
	for _, e := range events {
		switch e.Kind {
		case KindBroadcast:
			if prev, dup := broadcasts[e.ID]; dup {
				rep.add("tag-uniqueness",
					"message %v broadcast twice (p%d then p%d): tag collision",
					e.ID, prev.Proc, e.Proc)
			} else if deliverers[e.ID] == 0 {
				order = append(order, e.ID)
			}
			broadcasts[e.ID] = e
			rep.Broadcast++
		case KindDeliver:
			rep.TotalDeliveries++
			if e.Fast {
				rep.FastDeliveries++
			}
			k := procID{proc: e.Proc, id: e.ID}
			b, known := broadcasts[e.ID]
			if deliveryCount[k]++; deliveryCount[k] == 1 {
				if deliverers[e.ID]++; deliverers[e.ID] == 1 && !known {
					order = append(order, e.ID)
				}
			}
			if deliveryCount[k] > 1 || adopted[k] {
				redelivered(k)
			}
			if !known {
				rep.add("uniform-integrity",
					"p%d delivered %v which was never URB-broadcast", e.Proc, e.ID)
			} else if e.At < b.At {
				rep.add("causality", "p%d delivered %v at %d before its broadcast at %d",
					e.Proc, e.ID, e.At, b.At)
			}
		case KindAdopt:
			k := procID{proc: e.Proc, id: e.ID}
			if adopted[k] {
				break
			}
			adopted[k] = true
			if deliveryCount[k] > 0 {
				redelivered(k)
			}
		case KindCrash:
			crashedAt[e.Proc] = e.At
		case KindSend:
			sawWire = true
			if !e.Dropped {
				offered[linkKey{dst: e.Dst, enc: string(e.Msg.Encode(nil))}]++
			}
		case KindReceive:
			received[linkKey{dst: e.Proc, enc: string(e.Msg.Encode(nil))}]++
		}
	}

	// No process acts after its crash.
	for _, e := range events {
		if at, dead := crashedAt[e.Proc]; dead && e.At > at &&
			(e.Kind == KindDeliver || e.Kind == KindBroadcast || e.Kind == KindSend) {
			rep.add("crash-model", "p%d %s at %d after crashing at %d",
				e.Proc, e.Kind, e.At, at)
		}
	}

	if sawWire {
		for k, got := range received {
			if sent := offered[k]; got > sent {
				rep.add("channel-integrity",
					"p%d received %d copies of a message but only %d survived the link",
					k.dst, got, sent)
			}
		}
	}

	if !c.CheckConvergent {
		return rep
	}
	var obliged []wire.MsgID
	for _, id := range order {
		if b, known := broadcasts[id]; deliverers[id] > 0 || known && !c.crashed[b.Proc] {
			obliged = append(obliged, id)
		}
	}
	for p := 0; p < c.n; p++ {
		if c.crashed[p] {
			continue
		}
		for _, id := range obliged {
			if k := (procID{proc: p, id: id}); deliveryCount[k] == 0 && !adopted[k] {
				rep.Missing = append(rep.Missing, Missing{Proc: p, ID: id})
			}
		}
	}
	// Validity: a correct broadcaster delivers its own message.
	for _, m := range rep.Missing {
		if b, known := broadcasts[m.ID]; known && b.Proc == m.Proc {
			rep.add("validity", "correct broadcaster p%d never delivered its own %v",
				m.Proc, m.ID)
		}
	}
	// Uniform agreement: if anyone delivered id, every correct process
	// delivered (or adopted) id.
	for _, m := range rep.Missing {
		if by := deliverers[m.ID]; by > 0 {
			rep.add("uniform-agreement",
				"%v delivered by %d process(es) but correct p%d never delivered it",
				m.ID, by, m.Proc)
		}
	}
	return rep
}

// CheckResult is a convenience wrapper: run the checker against a
// sim.Result (no wire events needed).
func CheckResult(res sim.Result) *Report {
	return NewChecker(len(res.Deliveries), res.Crashed).Check(ResultEvents(res))
}

// ResultEvents converts a sim.Result into checker events: its
// broadcasts, its deliveries, and the history each mid-run joiner
// adopted (stamped with its join time).
func ResultEvents(res sim.Result) []Event {
	var events []Event
	for _, b := range res.Broadcasts {
		events = append(events, Event{At: b.At, Kind: KindBroadcast, Proc: b.Proc, ID: b.ID})
	}
	for p, ds := range res.Deliveries {
		for _, d := range ds {
			events = append(events, Event{At: d.At, Kind: KindDeliver, Proc: p, ID: d.ID, Fast: d.Fast})
		}
	}
	return append(events, AdoptEvents(res)...)
}

// AdoptEvents lists the history res's mid-run joiners adopted, in
// broadcast order. A sim.Observer never sees adoption, so a recorded
// trace of a churn run needs these appended.
func AdoptEvents(res sim.Result) []Event {
	var events []Event
	for p, ids := range res.Adopted {
		for _, b := range res.Broadcasts {
			if ids[b.ID] {
				events = append(events, Event{At: res.JoinedAt[p], Kind: KindAdopt, Proc: p, ID: b.ID})
			}
		}
	}
	return events
}
