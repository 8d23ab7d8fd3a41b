// Package trace is the record of a simulated run and its referee.
//
// Event is the one record of a run: the simulator emits every
// broadcast, wire copy, delivery, crash, recovery, join, leave and
// adoption as an Event through its single hook (sim.Config.Observers),
// and every consumer — Recorder, the JSONL file format, the Chrome
// lifecycle exporter, the replay schedule recorder — reads that
// stream. The package imports neither the simulator nor the
// algorithms: it knows runs only through their events.
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
	// KindRecover records a crashed process restarting from its store.
	KindRecover
	// KindJoin records a mid-run joiner going live; Bytes is the
	// snapshot container size it pulled.
	KindJoin
	// KindLeave records a process leaving for good; its crash event
	// precedes it.
	KindLeave
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
	case KindRecover:
		return "recover"
	case KindJoin:
		return "join"
	case KindLeave:
		return "leave"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one run event.
type Event struct {
	// At is the virtual time (0 for live runs, which share no clock).
	At   int64
	Kind Kind
	// Proc is the acting process (broadcaster, sender, receiver,
	// deliverer, crasher, adopter, recovering, joining or leaving
	// process).
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
	// Bytes is the snapshot container size on join events.
	Bytes int
}

// Options controls what the recorder keeps.
type Options struct {
	// Wire records send/receive events (can be voluminous); broadcast,
	// deliver, crash and adopt events are always kept.
	Wire bool
}

// Recorder accumulates the events a trace file and the checker read:
// broadcast, deliver, crash and adopt always, send and receive under
// Options.Wire. Its Record method is a simulator hook.
type Recorder struct {
	opt    Options
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder(opt Options) *Recorder {
	return &Recorder{opt: opt}
}

// Record keeps e if it is a kind the recorder stores.
func (r *Recorder) Record(e Event) {
	switch e.Kind {
	case KindSend, KindReceive:
		if !r.opt.Wire {
			return
		}
	case KindRecover, KindJoin, KindLeave:
		return
	}
	r.events = append(r.events, e)
}

// Events returns the recorded events in order.
func (r *Recorder) Events() []Event { return r.events }
