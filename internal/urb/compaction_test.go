package urb

import (
	"fmt"
	"testing"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// --- unit tests for the compacted representation --------------------------

// TestQuiescentCompactionSharesSets: once a message is delivered under
// CompactDelivered, ackers with equal label views share one interned
// set, and the Stats report the collapse.
func TestQuiescentCompactionSharesSets(t *testing.T) {
	view := fd.Normalize(fd.View{{Label: lbl(1), Number: 3}})
	det := fd.Static{Theta: view, Star: view}
	p := NewQuiescent(det, ident.NewSource(xrand.New(1)), Config{CompactDelivered: true})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	labels := []ident.Tag{lbl(1), lbl(2)}
	for i := uint64(0); i < 3; i++ {
		p.Receive(wire.NewLabeledAck(id, lbl(100+i), labels))
	}
	if !p.HasDelivered(id) {
		t.Fatal("setup: not delivered")
	}
	st := p.Stats()
	if st.CompactedMsgs != 1 {
		t.Fatalf("CompactedMsgs = %d, want 1", st.CompactedMsgs)
	}
	if st.AckLabels != 6 {
		t.Fatalf("AckLabels = %d, want 6 (3 ackers × 2 labels)", st.AckLabels)
	}
	if st.AckLabelStorage != 2 {
		t.Fatalf("AckLabelStorage = %d, want 2 (one shared set)", st.AckLabelStorage)
	}
	// Claims are untouched by the representation change.
	if p.Claims(id, lbl(1)) != 3 || p.Claims(id, lbl(2)) != 3 {
		t.Fatalf("claims perturbed: l1=%d l2=%d", p.Claims(id, lbl(1)), p.Claims(id, lbl(2)))
	}
}

// TestQuiescentCompactionCopyOnWrite: a delta folding into one shared
// view must not leak into the other ackers sharing the set.
func TestQuiescentCompactionCopyOnWrite(t *testing.T) {
	view := fd.Normalize(fd.View{{Label: lbl(1), Number: 2}})
	det := fd.Static{Theta: view, Star: view}
	p := NewQuiescent(det, ident.NewSource(xrand.New(2)), Config{CompactDelivered: true})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	p.Receive(wire.NewAckSnapshot(id, lbl(100), 1, []ident.Tag{lbl(1)}))
	p.Receive(wire.NewAckSnapshot(id, lbl(101), 1, []ident.Tag{lbl(1)})) // delivers, compacts
	if !p.HasDelivered(id) {
		t.Fatal("setup: not delivered")
	}
	// Acker 100 gains lbl(2); acker 101's view must not change.
	p.Receive(wire.NewAckDelta(id, lbl(100), 2, []ident.Tag{lbl(2)}, nil))
	if p.Claims(id, lbl(2)) != 1 {
		t.Fatalf("claims[l2] = %d, want 1", p.Claims(id, lbl(2)))
	}
	if got := p.ackState(id).byAcker[lbl(101)].labels.Len(); got != 1 {
		t.Fatalf("shared set mutated through the other acker: len=%d", got)
	}
	// And dropping it again re-merges the two views onto one set.
	p.Receive(wire.NewAckDelta(id, lbl(100), 3, nil, []ident.Tag{lbl(2)}))
	if st := p.Stats(); st.AckLabelStorage != 1 {
		t.Fatalf("AckLabelStorage = %d, want 1 after re-convergence", st.AckLabelStorage)
	}
}

// TestQuiescentRetirementIndexReactsToViewShift: with the dirty index,
// a message evaluated (and left unretired) under one AP* view must be
// re-evaluated when the view changes, even if no ACK arrived in between
// — several clean no-op ticks notwithstanding.
func TestQuiescentRetirementIndexReactsToViewShift(t *testing.T) {
	for _, compact := range []bool{false, true} {
		t.Run(fmt.Sprintf("compact=%v", compact), func(t *testing.T) {
			theta := fd.Normalize(fd.View{{Label: lbl(1), Number: 2}})
			var star fd.View // empty: retirement disabled
			det := &fd.Func{
				ThetaFn: func() fd.View { return theta },
				StarFn:  func() fd.View { return star },
			}
			p := NewQuiescent(det, ident.NewSource(xrand.New(3)), Config{CompactDelivered: compact})
			id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
			p.Receive(wire.NewMsg(id))
			p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1)}))
			p.Receive(wire.NewLabeledAck(id, lbl(101), []ident.Tag{lbl(1)}))
			if !p.HasDelivered(id) {
				t.Fatal("setup: not delivered")
			}
			// Clean ticks: delivered, claims satisfied, but AP* is empty —
			// never retire, and the dirty flags drain.
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
		})
	}
}

// TestQuiescentDeliveredAfterPurgeStillRetires is the regression guard
// for the ackState.purge / retireReady interplay: an acker whose labels
// were entirely purged (a dead acker) is dropped from the bookkeeping,
// and a message DELIVERED ONLY AFTER that purge must still pass the
// retirement guard — the dead acker must neither linger in the
// byAcker/ackerOrder scan nor block the "no acker claims a foreign
// label" clause. Guards the compaction refactor against reintroducing
// the dead-acker retention bug the D4 drop fixed.
func TestQuiescentDeliveredAfterPurgeStillRetires(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{CompactDelivered: true},
		{DeltaAcks: true},
		{DeltaAcks: true, CompactDelivered: true},
	} {
		t.Run(fmt.Sprintf("delta=%v/compact=%v", cfg.DeltaAcks, cfg.CompactDelivered), func(t *testing.T) {
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

// --- the compaction equivalence property test -----------------------------

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

// TestQuiescentCompactionEquivalence drives randomized schedules through
// two clusters that differ only in Config.CompactDelivered and requires
// identical claims maps, delivered sets and retirement endgames — under
// both ACK encodings, with a mid-run detector-view shift and a mid-run
// crash-recovery of a random process. Same two-phase structure as
// TestQuiescentDeltaEquivalence: phase 1 reaches the claims fixpoint
// with retirement disabled, phase 2 reveals AP* and requires identical
// quiescence.
func TestQuiescentCompactionEquivalence(t *testing.T) {
	for _, deltaAcks := range []bool{false, true} {
		for seed := uint64(1); seed <= 5; seed++ {
			deltaAcks, seed := deltaAcks, seed
			t.Run(fmt.Sprintf("delta=%v/seed=%d", deltaAcks, seed), func(t *testing.T) {
				rng := xrand.New(seed * 0x51ed2701)
				n := 3 + int(rng.Uint64()%3)
				msgs := 3 + int(rng.Uint64()%4)
				base := Config{
					DeltaAcks:        deltaAcks,
					CheckOnTick:      rng.Uint64()%2 == 0,
					RetireBeforeSend: rng.Uint64()%2 == 0,
					EagerFirstSend:   rng.Uint64()%2 == 0,
				}
				compactCfg := base
				compactCfg.CompactDelivered = true

				viewA := fd.Normalize(fd.View{
					{Label: lbl(1), Number: n},
					{Label: lbl(2), Number: n},
				})
				viewB := fd.Normalize(fd.View{
					{Label: lbl(1), Number: n},
					{Label: lbl(3), Number: n},
				})

				plain := newEqCluster(n, seed, base, viewA.Clone())
				compact := newEqCluster(n, seed, compactCfg, viewA.Clone())

				steps := 200 + int(rng.Uint64()%200)
				shiftAt := steps/4 + int(rng.Uint64()%(uint64(steps)/2))
				crashAt := steps/4 + int(rng.Uint64()%(uint64(steps)/2))
				crashProc := int(rng.Uint64() % uint64(n))
				sent := 0
				for step := 0; step < steps; step++ {
					if step == shiftAt {
						plain.theta = viewB.Clone()
						compact.theta = viewB.Clone()
					}
					if step == crashAt {
						plain.recoverProc(t, crashProc, seed, base)
						compact.recoverProc(t, crashProc, seed, compactCfg)
					}
					switch op := rng.Uint64() % 10; {
					case op < 6:
						i := int(rng.Uint64() % uint64(n))
						plain.deliverOne(i)
						compact.deliverOne(i)
					case op < 8:
						i := int(rng.Uint64() % uint64(n))
						plain.absorb(plain.procs[i].Tick())
						compact.absorb(compact.procs[i].Tick())
					default:
						if sent >= msgs {
							continue
						}
						i := int(rng.Uint64() % uint64(n))
						body := []byte(fmt.Sprintf("m%d", sent))
						sent++
						_, s := plain.procs[i].Broadcast(body)
						plain.absorb(s)
						_, s = compact.procs[i].Broadcast(body)
						compact.absorb(s)
					}
				}
				for ; sent < msgs; sent++ {
					body := []byte(fmt.Sprintf("m%d", sent))
					_, s := plain.procs[0].Broadcast(body)
					plain.absorb(s)
					_, s = compact.procs[0].Broadcast(body)
					compact.absorb(s)
				}

				plain.theta = viewB.Clone()
				compact.theta = viewB.Clone()
				plain.settle(6)
				compact.settle(6)
				compareClusters(t, "fixpoint", plain, compact, msgs)

				plain.star = viewB.Clone()
				compact.star = viewB.Clone()
				plain.drain(t, "plain")
				compact.drain(t, "compacted")
				compareClusters(t, "quiescence", plain, compact, msgs)
				for i := range compact.procs {
					if got := compact.procs[i].RetiredCount(); got != msgs {
						t.Fatalf("p%d retired %d/%d after AP* reveal", i, got, msgs)
					}
					// The compaction must actually be in effect, not just
					// harmless: every delivered message runs compacted.
					st := compact.procs[i].Stats()
					if st.CompactedMsgs == 0 {
						t.Fatalf("p%d: no compacted messages despite %d deliveries", i, st.Delivered)
					}
					if st.AckLabelStorage > st.AckLabels {
						t.Fatalf("p%d: storage %d exceeds logical %d", i, st.AckLabelStorage, st.AckLabels)
					}
				}
			})
		}
	}
}
