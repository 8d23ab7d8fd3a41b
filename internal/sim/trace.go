package sim

import (
	"anonurb/internal/obs"
	"anonurb/internal/trace"
	"anonurb/internal/wire"
)

// TraceObserver turns the simulator's event stream into an obs.Tracer:
// one merged, virtually-timestamped lifecycle trace for the whole run
// (DESIGN.md §14). Virtual time stands in for the tracer's clock — the
// exporter never reads wall time, so recording a trace keeps the run
// deterministic: the same seed produces byte-identical traces.
//
// The engine emits a send event per copy per link; recording every copy
// of every retransmission would bury the lifecycle signal, so Record
// keeps a FIRST_SEND per (process, message) for MSG kinds and drops
// the rest. Receptions and deliveries are recorded in full (the ring
// bounds memory, not the run); adoptions are not lifecycle points.
type TraceObserver struct {
	tr *obs.Tracer
	// firstSent dedupes FIRST_SEND per origin process and message copy.
	firstSent map[firstKey]struct{}
}

type firstKey struct {
	proc int
	id   wire.MsgID
}

// NewTraceObserver builds the exporter with a ring of the given
// capacity (0 selects obs.DefaultCapacity).
func NewTraceObserver(capacity int) *TraceObserver {
	return &TraceObserver{
		// Node -1: events carry the per-event process index instead.
		tr:        obs.New(-1, capacity, nil),
		firstSent: make(map[firstKey]struct{}),
	}
}

// Tracer exposes the underlying tracer (for obs.WriteChromeTrace,
// obs.Timelines, obs.WriteReport).
func (o *TraceObserver) Tracer() *obs.Tracer { return o.tr }

// Events returns the recorded events, oldest first.
func (o *TraceObserver) Events() []obs.Event { return o.tr.Events() }

// Record is the simulator hook (Config.Observers). A recovery is a
// crash-family event with Need=1 marking the restart, a join is
// SNAP_DONE with the container size, and a leave is a crash.
func (o *TraceObserver) Record(e trace.Event) {
	switch e.Kind {
	case trace.KindBroadcast:
		o.tr.EmitAt(e.At, e.Proc, obs.Event{Kind: obs.EvBroadcast, Msg: e.ID})
	case trace.KindSend:
		if e.Msg.Kind != wire.KindMsg {
			return
		}
		k := firstKey{proc: e.Proc, id: e.Msg.ID()}
		if _, ok := o.firstSent[k]; ok {
			return
		}
		o.firstSent[k] = struct{}{}
		o.tr.EmitAt(e.At, e.Proc, obs.Event{Kind: obs.EvFirstSend, Msg: k.id})
	case trace.KindReceive:
		ev := obs.Event{Kind: obs.EvRecv, Have: int64(e.Msg.Kind)}
		if !e.Msg.Kind.IsBeat() && !e.Msg.Kind.IsSnap() {
			ev.Msg = e.Msg.ID()
		}
		o.tr.EmitAt(e.At, e.Proc, ev)
	case trace.KindDeliver:
		ev := obs.Event{Kind: obs.EvDeliver, Msg: e.ID}
		if e.Fast {
			ev.Have = 1
		}
		o.tr.EmitAt(e.At, e.Proc, ev)
	case trace.KindCrash, trace.KindLeave:
		o.tr.EmitAt(e.At, e.Proc, obs.Event{Kind: obs.EvCrash, Have: int64(e.Proc)})
	case trace.KindRecover:
		o.tr.EmitAt(e.At, e.Proc, obs.Event{Kind: obs.EvCrash, Have: int64(e.Proc), Need: 1})
	case trace.KindJoin:
		o.tr.EmitAt(e.At, e.Proc, obs.Event{Kind: obs.EvSnapDone, Have: int64(e.Bytes), Need: int64(e.Bytes)})
	}
}
