package obs

import (
	"testing"

	"anonurb/internal/ident"
	"anonurb/internal/wire"
)

func mid(n uint64, body string) wire.MsgID {
	return wire.MsgID{Tag: ident.Tag{Hi: 1, Lo: n}, Body: body}
}

// TestNilTracerIsSafe is the off-state contract: every emit and every
// query must be callable through a nil receiver, because the algorithm
// emit sites pay only a pointer test when tracing is off.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Broadcast(mid(1, "a"))
	tr.FirstSendMsg(wire.NewMsg(mid(1, "a")))
	tr.Recv(mid(1, "a"), wire.KindMsg)
	tr.AckProgress(mid(1, "a"), ident.Tag{}, 1, 3)
	tr.Deliver(mid(1, "a"), false)
	tr.Retire(mid(1, "a"))
	tr.AdmitDemote(7)
	tr.Snap(EvSnapDone, 0, 0)
	tr.Send(mid(1, "a"), wire.KindMsg)
	tr.Crash(2)
	tr.EmitAt(5, 0, Event{Kind: EvRecv})
	if tr.Total() != 0 || tr.Dropped() != 0 || tr.Events() != nil || tr.Node() != -1 {
		t.Fatal("nil tracer reported state")
	}
}

// TestRingWrapAndDropped checks the bounded-ring contract: the latest
// capacity events are retained in emission order, the rest counted as
// dropped, and sequence numbers stay dense across the wrap.
func TestRingWrapAndDropped(t *testing.T) {
	tr := New(3, 4, nil)
	for i := uint64(1); i <= 10; i++ {
		tr.Deliver(mid(i, "x"), false)
	}
	if tr.Total() != 10 || tr.Dropped() != 6 {
		t.Fatalf("total=%d dropped=%d, want 10/6", tr.Total(), tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("event %d: seq %d, want %d", i, e.Seq, want)
		}
		if e.Node != 3 || e.Kind != EvDeliver {
			t.Fatalf("event %d: %+v", i, e)
		}
		// nil clock: At falls back to the sequence number.
		if e.At != int64(e.Seq) {
			t.Fatalf("event %d: at %d, want seq %d", i, e.At, e.Seq)
		}
	}
}

// TestBodyInternRoundTrip checks that message bodies survive the
// pointer-free ring: slots store interned indices, Events rehydrates
// the original strings — including across the compaction that bounds
// the intern table once the ring has wrapped many times over.
func TestBodyInternRoundTrip(t *testing.T) {
	tr := New(0, 8, nil)
	// 100 distinct messages through an 8-slot ring forces several
	// compactions (table rebuilds at 2x capacity).
	for i := uint64(1); i <= 100; i++ {
		tr.Broadcast(mid(i, string(rune('a'+i%26))))
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	for i, e := range evs {
		n := uint64(93 + i)
		want := mid(n, string(rune('a'+n%26)))
		if e.Msg != want {
			t.Fatalf("event %d: msg %+v, want %+v", i, e.Msg, want)
		}
	}
	if got := len(tr.bodies); got > 2*len(tr.buf) {
		t.Fatalf("intern table grew to %d entries, want <= %d", got, 2*len(tr.buf))
	}
}

// TestFirstSendDedup checks the send-path dedup, which never
// materialises a MsgID for retransmissions: one FIRST_SEND per
// broadcast tag.
func TestFirstSendDedup(t *testing.T) {
	tr := New(0, 0, nil)
	for _, m := range []wire.Message{wire.NewMsg(mid(1, "payload")), wire.NewMsg(mid(2, "other"))} {
		for i := 0; i < 5; i++ {
			tr.FirstSendMsg(m)
		}
	}
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2 (one FIRST_SEND per message)", len(evs))
	}
	for _, e := range evs {
		if e.Kind != EvFirstSend {
			t.Fatalf("kind %v, want FIRST_SEND", e.Kind)
		}
	}
}

// TestMergeOrders checks the merged-cluster view: events interleave by
// timestamp, ties break by node then sequence.
func TestMergeOrders(t *testing.T) {
	a, b := New(0, 0, nil), New(1, 0, nil)
	a.EmitAt(10, 0, Event{Kind: EvBroadcast, Msg: mid(1, "m")})
	b.EmitAt(5, 1, Event{Kind: EvRecv, Msg: mid(1, "m")})
	b.EmitAt(10, 1, Event{Kind: EvDeliver, Msg: mid(1, "m")})
	evs := Merge(a, b)
	if len(evs) != 3 {
		t.Fatalf("merged %d events, want 3", len(evs))
	}
	if evs[0].Kind != EvRecv || evs[1].Kind != EvBroadcast || evs[2].Kind != EvDeliver {
		t.Fatalf("merge order wrong: %v %v %v", evs[0].Kind, evs[1].Kind, evs[2].Kind)
	}
}

// BenchmarkEmit is the cost of one steady-state emit with the tracer
// on: one clock call, one mutex, one pointer-free slot write.
func BenchmarkEmit(b *testing.B) {
	tr := New(0, 0, func() int64 { return 1 })
	id := mid(1, "benchmark-body")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.AckProgress(id, ident.Tag{}, 2, 3)
	}
}
