package sim

import (
	"testing"

	"anonurb/internal/channel"
	"anonurb/internal/store"
	"anonurb/internal/trace"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
)

// TestEngineEventStreamMatchesResult: the hook's event stream of a run
// with a crash, a recovery from a store, a join and a leave agrees with
// every Result ledger — the stream is the run, not a second account of
// it.
func TestEngineEventStreamMatchesResult(t *testing.T) {
	const n = 5
	stores := make([]store.Store, n)
	stores[1] = store.NewMem()
	var events []trace.Event
	res := NewEngine(Config{
		N:                 n,
		Factory:           hbFactory(urb.Config{DeltaAcks: true}),
		Link:              channel.Bernoulli{P: 0.15, D: channel.UniformDelay{Min: 1, Max: 4}},
		Seed:              11,
		MaxTime:           60_000,
		Stores:            stores,
		CheckpointEvery:   250,
		CrashAt:           []Time{Never, 300, Never, Never, Never},
		RecoverAt:         []Time{Never, 700, Never, Never, Never},
		JoinAt:            []Time{0, 0, 0, 0, 500},
		LeaveAt:           []Time{0, 0, 0, 1500, 0},
		NoEarlyStopBefore: 1500,
		Broadcasts: []ScheduledBroadcast{
			{At: 100, Proc: 0, Body: []byte("before-join")},
			{At: 900, Proc: 2, Body: []byte("after-recovery")},
			{At: 1800, Proc: 4, Body: []byte("from-joiner")},
		},
		ExpectDeliveries: 3,
		Observers:        []func(trace.Event){func(e trace.Event) { events = append(events, e) }},
	}).Run()
	if !res.Recovered[1] || !res.Left[3] || res.JoinedAt[4] == Never || len(res.Adopted[4]) == 0 {
		t.Fatalf("run lacks a lifecycle step: recovered=%v left=%v joinedAt=%d adopted=%d",
			res.Recovered, res.Left, res.JoinedAt[4], len(res.Adopted[4]))
	}

	var broadcasts []BroadcastAt
	deliveries := make([][]DeliveryAt, n)
	var sent, dropped uint64
	adopted := make([]map[wire.MsgID]bool, n)
	var crashes, recovers, joins, leaves []trace.Event
	for i, e := range events {
		if i > 0 && e.At < events[i-1].At {
			t.Fatalf("event %d at %d precedes event %d at %d", i, e.At, i-1, events[i-1].At)
		}
		switch e.Kind {
		case trace.KindBroadcast:
			broadcasts = append(broadcasts, BroadcastAt{ID: e.ID, Proc: e.Proc, At: e.At})
		case trace.KindDeliver:
			deliveries[e.Proc] = append(deliveries[e.Proc], DeliveryAt{ID: e.ID, At: e.At, Fast: e.Fast})
		case trace.KindSend:
			sent++
			if e.Dropped {
				dropped++
			}
		case trace.KindAdopt:
			if e.At != res.JoinedAt[e.Proc] {
				t.Fatalf("p%d adopt at %d, joined at %d", e.Proc, e.At, res.JoinedAt[e.Proc])
			}
			if adopted[e.Proc] == nil {
				adopted[e.Proc] = map[wire.MsgID]bool{}
			}
			if adopted[e.Proc][e.ID] {
				t.Fatalf("p%d adopted %v twice", e.Proc, e.ID)
			}
			adopted[e.Proc][e.ID] = true
		case trace.KindCrash:
			crashes = append(crashes, e)
		case trace.KindRecover:
			recovers = append(recovers, e)
		case trace.KindJoin:
			joins = append(joins, e)
		case trace.KindLeave:
			leaves = append(leaves, e)
		}
	}

	if len(broadcasts) != len(res.Broadcasts) {
		t.Fatalf("broadcast events %d, Result.Broadcasts %d", len(broadcasts), len(res.Broadcasts))
	}
	for i, b := range res.Broadcasts {
		if broadcasts[i] != b {
			t.Fatalf("broadcast %d: event %+v, result %+v", i, broadcasts[i], b)
		}
	}
	for p := range res.Deliveries {
		if len(deliveries[p]) != len(res.Deliveries[p]) {
			t.Fatalf("p%d deliver events %d, Result.Deliveries %d", p, len(deliveries[p]), len(res.Deliveries[p]))
		}
		for i, d := range res.Deliveries[p] {
			if deliveries[p][i] != d {
				t.Fatalf("p%d delivery %d: event %+v, result %+v", p, i, deliveries[p][i], d)
			}
		}
	}
	if sent != res.Net.Sent || dropped != res.Net.Dropped {
		t.Fatalf("send events %d (%d dropped), Result.Net %+v", sent, dropped, res.Net)
	}
	for p := range res.Adopted {
		if len(adopted[p]) != len(res.Adopted[p]) {
			t.Fatalf("p%d adopt events %d, Result.Adopted %d", p, len(adopted[p]), len(res.Adopted[p]))
		}
		for id := range res.Adopted[p] {
			if !adopted[p][id] {
				t.Fatalf("p%d adopted %v without an adopt event", p, id)
			}
		}
	}
	if len(recovers) != 1 || recovers[0].Proc != 1 || recovers[0].At != 700 {
		t.Fatalf("recover events %+v, want p1 at 700", recovers)
	}
	if len(joins) != 1 || joins[0].Proc != 4 || joins[0].At != res.JoinedAt[4] || joins[0].Bytes != res.JoinBytes[4] {
		t.Fatalf("join events %+v, want p4 at %d with %d bytes", joins, res.JoinedAt[4], res.JoinBytes[4])
	}
	if len(leaves) != 1 || leaves[0].Proc != 3 || leaves[0].At != 1500 {
		t.Fatalf("leave events %+v, want p3 at 1500", leaves)
	}
	// A leave is a crash on the wire: p1's crash, then p3's.
	if len(crashes) != 2 || crashes[0].Proc != 1 || crashes[0].At != 300 ||
		crashes[1].Proc != 3 || crashes[1].At != 1500 {
		t.Fatalf("crash events %+v, want p1 at 300 and p3 at 1500", crashes)
	}
}
