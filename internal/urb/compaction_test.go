package urb

import (
	"fmt"
	"testing"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// --- unit tests for the interned representation --------------------------

// TestQuiescentCompactionSharesSets: ackers with equal label views share
// one interned set from their first ACK on — before delivery, and
// whatever order each acker listed its labels in — and the Stats report
// the collapse.
func TestQuiescentCompactionSharesSets(t *testing.T) {
	view := fd.Normalize(fd.View{{Label: lbl(1), Number: 4}})
	det := fd.Static{Theta: view, Star: view}
	p := NewQuiescent(det, ident.NewSource(xrand.New(1)), Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	for i := uint64(0); i < 3; i++ {
		labels := []ident.Tag{lbl(1), lbl(2)}
		if i == 1 {
			labels = []ident.Tag{lbl(2), lbl(1), lbl(2)}
		}
		p.Receive(wire.NewLabeledAck(id, lbl(100+i), labels))
	}
	if p.HasDelivered(id) {
		t.Fatal("setup: delivered with 3 of 4 claims")
	}
	st := p.Stats()
	if st.AckLabels != 6 {
		t.Fatalf("AckLabels = %d, want 6 (3 ackers × 2 labels)", st.AckLabels)
	}
	if st.AckLabelStorage != 2 {
		t.Fatalf("AckLabelStorage = %d, want 2 (one shared set)", st.AckLabelStorage)
	}
	e := p.ackState(id).byAcker[lbl(100)].set
	if len(p.sets.m) != 1 || e.refs != 3 {
		t.Fatalf("intern table holds %d sets, entry refs %d; want 1 set with 3 refs", len(p.sets.m), e.refs)
	}
	if p.Claims(id, lbl(1)) != 3 || p.Claims(id, lbl(2)) != 3 {
		t.Fatalf("claims: l1=%d l2=%d, want 3/3", p.Claims(id, lbl(1)), p.Claims(id, lbl(2)))
	}
}

// TestQuiescentCompactionCopyOnWrite: a delta folding into one shared
// view of an undelivered message must not leak into the other ackers
// sharing the set.
func TestQuiescentCompactionCopyOnWrite(t *testing.T) {
	view := fd.Normalize(fd.View{{Label: lbl(1), Number: 3}})
	det := fd.Static{Theta: view, Star: view}
	p := NewQuiescent(det, ident.NewSource(xrand.New(2)), Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	p.Receive(wire.NewAckSnapshot(id, lbl(100), 1, []ident.Tag{lbl(1)}))
	p.Receive(wire.NewAckSnapshot(id, lbl(101), 1, []ident.Tag{lbl(1)}))
	if st := p.Stats(); st.AckLabelStorage != 1 {
		t.Fatalf("setup: AckLabelStorage = %d, want 1 (one shared set)", st.AckLabelStorage)
	}
	// Acker 100 gains lbl(2); acker 101's view must not change.
	p.Receive(wire.NewAckDelta(id, lbl(100), 2, []ident.Tag{lbl(2)}, nil))
	if p.Claims(id, lbl(2)) != 1 {
		t.Fatalf("claims[l2] = %d, want 1", p.Claims(id, lbl(2)))
	}
	if got := len(p.ackState(id).byAcker[lbl(101)].set.labels); got != 1 {
		t.Fatalf("shared set mutated through the other acker: len=%d", got)
	}
	// And dropping it again re-merges the two views onto one set.
	p.Receive(wire.NewAckDelta(id, lbl(100), 3, nil, []ident.Tag{lbl(2)}))
	if st := p.Stats(); st.AckLabelStorage != 1 {
		t.Fatalf("AckLabelStorage = %d, want 1 after re-convergence", st.AckLabelStorage)
	}
	if p.HasDelivered(id) {
		t.Fatal("delivered with 2 of 3 claims")
	}
}

// TestQuiescentRetirementIndexReactsToViewShift: with the dirty index,
// a message evaluated (and left unretired) under one AP* view must be
// re-evaluated when the view changes, even if no ACK arrived in between
// — several clean no-op ticks notwithstanding.
func TestQuiescentRetirementIndexReactsToViewShift(t *testing.T) {
	theta := fd.Normalize(fd.View{{Label: lbl(1), Number: 2}})
	var star fd.View // empty: retirement disabled
	det := &fd.Func{
		ThetaFn: func() fd.View { return theta },
		StarFn:  func() fd.View { return star },
	}
	p := NewQuiescent(det, ident.NewSource(xrand.New(3)), Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	p.Receive(wire.NewMsg(id))
	p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1)}))
	p.Receive(wire.NewLabeledAck(id, lbl(101), []ident.Tag{lbl(1)}))
	if !p.HasDelivered(id) {
		t.Fatal("setup: not delivered")
	}
	// Clean ticks: delivered, claims satisfied, but AP* is empty — never
	// retire, and the dirty flags drain.
	for i := 0; i < 4; i++ {
		if s := p.Tick(); len(s.Broadcasts) != 1 {
			t.Fatalf("tick %d: want 1 retransmission, got %d", i, len(s.Broadcasts))
		}
	}
	if p.RetiredCount() != 0 {
		t.Fatal("retired with an empty AP* view")
	}
	// AP* reveals: the view key changes, the clean message must be
	// re-evaluated and retire.
	star = fd.Normalize(fd.View{{Label: lbl(1), Number: 2}})
	p.Tick()
	if p.RetiredCount() != 1 {
		t.Fatal("view shift alone did not trigger re-evaluation")
	}
	if s := p.Tick(); len(s.Broadcasts) != 0 {
		t.Fatalf("retired message still retransmitting: %v", s.Broadcasts)
	}
}

// TestQuiescentDeliveredAfterPurgeStillRetires is the regression guard
// for the ackState.purge / retireReady interplay: an acker whose labels
// were entirely purged (a dead acker) is dropped from the bookkeeping,
// and a message DELIVERED ONLY AFTER that purge must still pass the
// retirement guard — the dead acker must neither linger in the
// byAcker/ackerOrder scan nor block the "no acker claims a foreign
// label" clause. Guards the interned-view purge against reintroducing
// the dead-acker retention bug the D4 drop fixed.
func TestQuiescentDeliveredAfterPurgeStillRetires(t *testing.T) {
	for _, cfg := range []Config{{}, {DeltaAcks: true}} {
		t.Run(fmt.Sprintf("delta=%v", cfg.DeltaAcks), func(t *testing.T) {
			live := fd.Normalize(fd.View{{Label: lbl(1), Number: 2}})
			var star fd.View
			det := &fd.Func{
				ThetaFn: func() fd.View { return live },
				StarFn:  func() fd.View { return star },
			}
			p := NewQuiescent(det, ident.NewSource(xrand.New(4)), cfg)
			id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
			p.Receive(wire.NewMsg(id))
			// A doomed acker claims only a label outside every view (its
			// owner crashed before GST).
			p.Receive(wire.NewLabeledAck(id, lbl(66), []ident.Tag{lbl(99)}))
			p.Tick() // D4 purge: lbl(99) dies, acker 66 is dropped whole
			if p.Ackers(id) != 0 {
				t.Fatal("purged-empty acker not dropped")
			}
			checkInterned(t, "after purge", 0, p)
			// Delivery happens only now, after the purge.
			p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1)}))
			p.Receive(wire.NewLabeledAck(id, lbl(101), []ident.Tag{lbl(1)}))
			if !p.HasDelivered(id) {
				t.Fatal("setup: not delivered after purge")
			}
			// AP* reveals; the dead acker must not block retirement.
			star = fd.Normalize(fd.View{{Label: lbl(1), Number: 2}})
			p.Tick()
			if p.RetiredCount() != 1 {
				t.Fatalf("message delivered after a D4 purge did not retire (%+v)", p.Stats())
			}
		})
	}
}

// --- the interned-view invariant property test -----------------------------

// recoverProc crash-recovers process i of an eqCluster at the current
// point: snapshot, rebuild from the same constructor parameters,
// restore, rejoin — a crash landing exactly on a checkpoint. In-flight
// frames queued for i survive (fair-lossy channels may deliver late);
// the recovered instance processes them as a fresh incarnation.
func (c *eqCluster) recoverProc(t *testing.T, i int, seed uint64, cfg Config) {
	t.Helper()
	snap := c.procs[i].Snapshot()
	det := &fd.Func{
		ThetaFn: func() fd.View { return c.theta },
		StarFn:  func() fd.View { return c.star },
	}
	fresh := NewQuiescent(det, ident.NewSource(xrand.New(seed+uint64(i)*7919)), cfg)
	if err := fresh.Restore(snap); err != nil {
		t.Fatalf("recover p%d: %v", i, err)
	}
	fresh.Rejoin()
	c.procs[i] = fresh
}

// checkInterned asserts the interned-view invariants on every acker view
// of p: each message's claims equal a from-scratch recount over its
// views, every view holds a sorted duplicate-free set, equal-valued
// views share one intern entry (delivered or not), and each entry's refs
// equals the number of views holding it.
func checkInterned(t *testing.T, when string, i int, p *Quiescent) {
	t.Helper()
	byValue := make(map[string]*setEntry)
	holders := make(map[*setEntry]int)
	for _, r := range p.acked {
		st := r.st
		recount := make(map[ident.Tag]int)
		for _, acker := range st.ackerOrder {
			e := st.byAcker[acker].set
			for k, l := range e.labels {
				if k > 0 && !e.labels[k-1].Less(l) {
					t.Fatalf("%s: p%d %q: view set not sorted and duplicate-free: %v", when, i, r.id.Body, e.labels)
				}
				recount[l]++
			}
			key := string(appendSetKey(nil, e.labels))
			if prev, ok := byValue[key]; ok && prev != e {
				t.Fatalf("%s: p%d %q: equal views %v hold different entries", when, i, r.id.Body, e.labels)
			}
			byValue[key] = e
			holders[e]++
		}
		if len(recount) != len(st.claims) {
			t.Fatalf("%s: p%d %q: claims %v, recount %v", when, i, r.id.Body, st.claims, recount)
		}
		for l, c := range recount {
			if st.claims[l] != c {
				t.Fatalf("%s: p%d %q: claims[%s]=%d, recount %d", when, i, r.id.Body, l, st.claims[l], c)
			}
		}
	}
	if len(p.sets.m) != len(holders) {
		t.Fatalf("%s: p%d: intern table holds %d sets, views hold %d", when, i, len(p.sets.m), len(holders))
	}
	for e, n := range holders {
		if p.sets.m[e.key] != e || e.refs != n {
			t.Fatalf("%s: p%d: entry %v has refs %d, held by %d views (interned: %v)",
				when, i, e.labels, e.refs, n, p.sets.m[e.key] == e)
		}
	}
}

// TestQuiescentCompactionEquivalence drives randomized schedules through
// one cluster — under both ACK encodings, with a mid-run detector-view
// shift and a mid-run crash-recovery of a random process — and checks
// the interned-view invariants (checkInterned) on every process after
// every step: the shared representation must be equivalent to a
// per-view copy of every set. Same two-phase structure as
// TestQuiescentDeltaEquivalence: phase 1 reaches the claims fixpoint
// with retirement disabled, phase 2 reveals AP* and requires every
// message to retire everywhere.
func TestQuiescentCompactionEquivalence(t *testing.T) {
	for _, deltaAcks := range []bool{false, true} {
		for seed := uint64(1); seed <= 5; seed++ {
			deltaAcks, seed := deltaAcks, seed
			t.Run(fmt.Sprintf("delta=%v/seed=%d", deltaAcks, seed), func(t *testing.T) {
				rng := xrand.New(seed * 0x51ed2701)
				n := 3 + int(rng.Uint64()%3)
				msgs := 3 + int(rng.Uint64()%4)
				cfg := Config{
					DeltaAcks:        deltaAcks,
					CheckOnTick:      rng.Uint64()%2 == 0,
					RetireBeforeSend: rng.Uint64()%2 == 0,
					EagerFirstSend:   rng.Uint64()%2 == 0,
				}
				viewA := fd.Normalize(fd.View{
					{Label: lbl(1), Number: n},
					{Label: lbl(2), Number: n},
				})
				viewB := fd.Normalize(fd.View{
					{Label: lbl(1), Number: n},
					{Label: lbl(3), Number: n},
				})
				c := newEqCluster(n, seed, cfg, viewA.Clone())
				check := func(when string) {
					t.Helper()
					for i, p := range c.procs {
						checkInterned(t, when, i, p)
					}
				}

				steps := 200 + int(rng.Uint64()%200)
				shiftAt := steps/4 + int(rng.Uint64()%(uint64(steps)/2))
				crashAt := steps/4 + int(rng.Uint64()%(uint64(steps)/2))
				crashProc := int(rng.Uint64() % uint64(n))
				sent := 0
				for step := 0; step < steps; step++ {
					if step == shiftAt {
						c.theta = viewB.Clone()
					}
					if step == crashAt {
						c.recoverProc(t, crashProc, seed, cfg)
					}
					switch op := rng.Uint64() % 10; {
					case op < 6:
						c.deliverOne(int(rng.Uint64() % uint64(n)))
					case op < 8:
						c.absorb(c.procs[int(rng.Uint64()%uint64(n))].Tick())
					default:
						if sent >= msgs {
							continue
						}
						i := int(rng.Uint64() % uint64(n))
						_, s := c.procs[i].Broadcast([]byte(fmt.Sprintf("m%d", sent)))
						sent++
						c.absorb(s)
					}
					check(fmt.Sprintf("step %d", step))
				}
				for ; sent < msgs; sent++ {
					_, s := c.procs[0].Broadcast([]byte(fmt.Sprintf("m%d", sent)))
					c.absorb(s)
				}

				c.theta = viewB.Clone()
				c.settle(6)
				check("fixpoint")
				c.star = viewB.Clone()
				c.drain(t, "interned")
				check("quiescence")
				for i, p := range c.procs {
					if got := len(deliveredBodies(p)); got != msgs {
						t.Fatalf("p%d delivered %d/%d", i, got, msgs)
					}
					if got := p.RetiredCount(); got != msgs {
						t.Fatalf("p%d retired %d/%d after AP* reveal", i, got, msgs)
					}
					if st := p.Stats(); st.AckLabelStorage > st.AckLabels {
						t.Fatalf("p%d: storage %d exceeds logical %d", i, st.AckLabelStorage, st.AckLabels)
					}
				}
			})
		}
	}
}
