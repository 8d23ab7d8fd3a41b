// Package trace records runs and checks them against the URB
// specification.
//
// The checkers operate on ground truth the algorithms never see (who
// broadcast what, who crashed): they are the referee, not part of the
// protocol. Each check corresponds to one property from Section II of the
// paper, plus channel sanity checks matching the fair lossy channel
// definition and the quiescence property of Theorem 3.
//
// Checker is the repository's only URB referee (DESIGN.md §14): the
// harness, the nemesis sim and live auditors and the benches turn their
// records into events and read one Report. Live runs share no clock, so
// their events carry At = 0 and the time-based rules never fire.
//
// A note on finite runs: Validity and Uniform Agreement are *eventual*
// properties ("eventually delivers"); on a finite trace they are checked
// at end of run, so they are meaningful only for runs that were given
// enough virtual time to converge. The harness always runs to convergence
// (or reports that it did not) before applying them.
package trace

import (
	"fmt"

	"anonurb/internal/sim"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
)

// Kind enumerates trace event kinds.
type Kind uint8

// Trace event kinds.
const (
	KindBroadcast Kind = iota
	KindSend
	KindReceive
	KindDeliver
	KindCrash
	// KindAdopt records that a mid-run joiner adopted a message as
	// already delivered from its donor's snapshot (DESIGN.md §13).
	KindAdopt
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindBroadcast:
		return "broadcast"
	case KindSend:
		return "send"
	case KindReceive:
		return "receive"
	case KindDeliver:
		return "deliver"
	case KindCrash:
		return "crash"
	case KindAdopt:
		return "adopt"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one recorded run event.
type Event struct {
	At   sim.Time
	Kind Kind
	// Proc is the acting process (broadcaster, sender, receiver,
	// deliverer, crasher, adopter).
	Proc int
	// Dst is the destination for send events.
	Dst int
	// ID is the application message for broadcast/deliver/adopt events.
	ID wire.MsgID
	// Msg is the wire message for send/receive events.
	Msg wire.Message
	// Dropped marks lost copies on send events.
	Dropped bool
	// Fast marks fast deliveries.
	Fast bool
}

// Options controls what the recorder keeps.
type Options struct {
	// Wire records send/receive events (can be voluminous); broadcast,
	// deliver and crash events are always kept.
	Wire bool
}

// Recorder implements sim.Observer and accumulates events.
type Recorder struct {
	opt    Options
	events []Event
	// counters maintained even when wire events are not stored
	sends, drops, receives uint64
	lastSend               sim.Time
}

var _ sim.Observer = (*Recorder)(nil)

// NewRecorder returns an empty recorder.
func NewRecorder(opt Options) *Recorder {
	return &Recorder{opt: opt}
}

// OnBroadcast implements sim.Observer.
func (r *Recorder) OnBroadcast(t sim.Time, proc int, id wire.MsgID) {
	r.events = append(r.events, Event{At: t, Kind: KindBroadcast, Proc: proc, ID: id})
}

// OnSend implements sim.Observer.
func (r *Recorder) OnSend(t sim.Time, src, dst int, m wire.Message, dropped bool, _ sim.Time) {
	r.sends++
	if dropped {
		r.drops++
	}
	r.lastSend = t
	if r.opt.Wire {
		r.events = append(r.events, Event{At: t, Kind: KindSend, Proc: src, Dst: dst, Msg: m, Dropped: dropped})
	}
}

// OnReceive implements sim.Observer.
func (r *Recorder) OnReceive(t sim.Time, dst int, m wire.Message) {
	r.receives++
	if r.opt.Wire {
		r.events = append(r.events, Event{At: t, Kind: KindReceive, Proc: dst, Msg: m})
	}
}

// OnDeliver implements sim.Observer.
func (r *Recorder) OnDeliver(t sim.Time, proc int, d urb.Delivery) {
	r.events = append(r.events, Event{At: t, Kind: KindDeliver, Proc: proc, ID: d.ID, Fast: d.Fast})
}

// OnCrash implements sim.Observer.
func (r *Recorder) OnCrash(t sim.Time, proc int) {
	r.events = append(r.events, Event{At: t, Kind: KindCrash, Proc: proc})
}

// Events returns the recorded events in order.
func (r *Recorder) Events() []Event { return r.events }

// Sends returns (copies offered, copies dropped).
func (r *Recorder) Sends() (uint64, uint64) { return r.sends, r.drops }

// Receives returns copies received.
func (r *Recorder) Receives() uint64 { return r.receives }

// LastSend returns the time of the last offered copy.
func (r *Recorder) LastSend() sim.Time { return r.lastSend }
