package urb

import (
	"fmt"
	"testing"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/store"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// TestQuiescentRejoinRebasesDeltaEpochs pins the incarnation rule: a
// recovered acker's fresh streams must start above every epoch its
// previous incarnation sent, or receivers still synced at the (lost)
// higher epochs discard its ACKs as stale — silently, forever.
func TestQuiescentRejoinRebasesDeltaEpochs(t *testing.T) {
	view := fd.Normalize(fd.View{{Label: lbl(1), Number: 99}})
	det := &fd.Func{
		ThetaFn: func() fd.View { return view },
		StarFn:  func() fd.View { return view },
	}
	sender := NewQuiescent(det, ident.NewSource(xrand.New(21)), Config{DeltaAcks: true})
	receiver := NewQuiescent(det, ident.NewSource(xrand.New(22)), Config{DeltaAcks: true})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}

	// Epoch 1 snapshot reaches the receiver; the checkpoint lands here.
	s := sender.Receive(wire.NewMsg(id))
	ack := s.Broadcasts[0].AckTag
	receiver.Receive(s.Broadcasts[0])
	checkpoint := sender.Snapshot()

	// After the checkpoint the view changes: the epoch-2 delta also
	// reaches the receiver (now synced at epoch 2 with {l1, l2}).
	view = fd.Normalize(fd.View{{Label: lbl(1), Number: 99}, {Label: lbl(2), Number: 99}})
	sender.Tick()
	s = sender.Receive(wire.NewMsg(id))
	receiver.Receive(s.Broadcasts[0])
	if receiver.Claims(id, lbl(2)) != 1 {
		t.Fatal("setup: epoch-2 delta not applied")
	}

	// Crash. The successor restores the checkpoint (ledger at epoch 1 —
	// the epoch-2 increment is in the lost window) and rejoins.
	succ := NewQuiescent(det, ident.NewSource(xrand.New(21)), Config{DeltaAcks: true})
	if err := succ.Restore(checkpoint); err != nil {
		t.Fatal(err)
	}
	succ.Rejoin()

	// The view shifts again while the successor is live: {l1, l3}. Its
	// re-ACK opens a fresh stream; the receiver must end up holding
	// exactly {l1, l3} for this acker.
	view = fd.Normalize(fd.View{{Label: lbl(1), Number: 99}, {Label: lbl(3), Number: 99}})
	succ.Tick()
	s = succ.Receive(wire.NewMsg(id))
	if len(s.Broadcasts) != 1 {
		t.Fatalf("successor did not re-ACK: %v", s.Broadcasts)
	}
	snap := s.Broadcasts[0]
	if snap.AckTag != ack {
		t.Fatalf("successor acked under %s, predecessor used %s", snap.AckTag, ack)
	}
	if snap.Flags&wire.AckFlagSnapshot == 0 || snap.Epoch <= 2 {
		t.Fatalf("rejoined stream must open with a snapshot above the old epochs, got %v", snap)
	}
	receiver.Receive(snap)
	if receiver.Claims(id, lbl(2)) != 0 || receiver.Claims(id, lbl(3)) != 1 || receiver.Claims(id, lbl(1)) != 1 {
		t.Fatalf("receiver diverged after recovery: l1=%d l2=%d l3=%d",
			receiver.Claims(id, lbl(1)), receiver.Claims(id, lbl(2)), receiver.Claims(id, lbl(3)))
	}
	// A second recovery rebases again (the floor is persisted).
	snap2 := succ.Snapshot()
	succ2 := NewQuiescent(det, ident.NewSource(xrand.New(21)), Config{DeltaAcks: true})
	if err := succ2.Restore(snap2); err != nil {
		t.Fatal(err)
	}
	floorBefore := succ2.epochFloor
	succ2.Rejoin()
	if succ2.epochFloor <= floorBefore {
		t.Fatalf("second rejoin did not advance the floor: %d -> %d", floorBefore, succ2.epochFloor)
	}
}

// --- randomized crash-recover equivalence ---------------------------------

// recHost wraps one process of the crash-recovery cluster with its
// durability plumbing: a store receiving write-ahead events and periodic
// checkpoints, and the seed needed to rebuild an identical tag stream.
type recHost struct {
	proc  *Quiescent
	store *store.Mem
	seed  uint64
}

// recCluster is the eqCluster of the delta-equivalence test extended
// with per-process stores and crash/recover support: lossless in-order
// queues, shared oracle-style views, and a harness that persists durable
// events exactly as the live node does.
type recCluster struct {
	hosts  []*recHost
	queues [][]wire.Message
	theta  fd.View
	star   fd.View
	det    fd.Detector
	cfg    Config
}

func newRecCluster(n int, seed uint64, cfg Config, theta fd.View) *recCluster {
	c := &recCluster{queues: make([][]wire.Message, n), theta: theta}
	c.det = &fd.Func{
		ThetaFn: func() fd.View { return c.theta },
		StarFn:  func() fd.View { return c.star },
	}
	c.cfg = cfg
	for i := 0; i < n; i++ {
		s := seed + uint64(i)*7919
		c.hosts = append(c.hosts, &recHost{
			proc:  NewQuiescent(c.det, ident.NewSource(xrand.New(s)), cfg),
			store: store.NewMem(),
			seed:  s,
		})
	}
	return c
}

// absorb persists a Step's durable events write-ahead (as the node
// does), then broadcasts its wire messages to every queue.
func (c *recCluster) absorb(i int, s Step) {
	h := c.hosts[i]
	for _, ev := range s.Durable {
		if err := h.store.AppendWAL(ev.EncodeWAL()); err != nil {
			panic(err)
		}
	}
	for _, d := range s.Deliveries {
		if err := h.store.AppendWAL(DeliverEvent(d).EncodeWAL()); err != nil {
			panic(err)
		}
	}
	for _, m := range s.Broadcasts {
		for j := range c.queues {
			c.queues[j] = append(c.queues[j], m)
		}
	}
}

func (c *recCluster) deliverOne(i int) {
	if len(c.queues[i]) == 0 {
		return
	}
	m := c.queues[i][0]
	c.queues[i] = c.queues[i][1:]
	c.absorb(i, c.hosts[i].proc.Receive(m))
}

// checkpoint snapshots process i into its store.
func (c *recCluster) checkpoint(i int) {
	if err := c.hosts[i].store.SaveSnapshot(c.hosts[i].proc.Snapshot()); err != nil {
		panic(err)
	}
}

// crashRecover kills process i — its queued frames are lost — and
// rebuilds it from its store, exactly as the hosts do: restore, replay,
// rejoin, compact.
func (c *recCluster) crashRecover(t *testing.T, i int) {
	t.Helper()
	h := c.hosts[i]
	c.queues[i] = nil // in-flight frames die with the process
	snap, wal, err := h.store.Load()
	if err != nil {
		t.Fatal(err)
	}
	p := NewQuiescent(c.det, ident.NewSource(xrand.New(h.seed)), c.cfg)
	if snap != nil {
		if err := p.Restore(snap); err != nil {
			t.Fatalf("proc %d restore: %v", i, err)
		}
	}
	for k, raw := range wal {
		rec, err := DecodeWALRecord(raw)
		if err != nil {
			t.Fatalf("proc %d wal %d: %v", i, k, err)
		}
		if err := p.ApplyWAL(rec); err != nil {
			t.Fatalf("proc %d replay %d: %v", i, k, err)
		}
	}
	p.Rejoin()
	if err := h.store.SaveSnapshot(p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	h.proc = p
}

// settle and drain mirror the delta-equivalence harness.
func (c *recCluster) settle(rounds int) {
	for r := 0; r < rounds; r++ {
		for i := range c.hosts {
			c.absorb(i, c.hosts[i].proc.Tick())
		}
		for i := range c.hosts {
			for len(c.queues[i]) > 0 {
				c.deliverOne(i)
			}
		}
	}
}

func (c *recCluster) drain(t *testing.T, name string) {
	t.Helper()
	for round := 0; round < 400; round++ {
		for i := range c.hosts {
			for len(c.queues[i]) > 0 {
				c.deliverOne(i)
			}
		}
		sent := 0
		for i := range c.hosts {
			s := c.hosts[i].proc.Tick()
			sent += len(s.Broadcasts)
			c.absorb(i, s)
		}
		if sent == 0 {
			empty := true
			for i := range c.hosts {
				if len(c.queues[i]) > 0 {
					empty = false
					break
				}
			}
			if empty {
				return
			}
		}
	}
	t.Fatalf("%s cluster did not quiesce within the drain budget", name)
}

// claimsByLabel flattens one process's claim counters keyed by message
// body (shared oracle labels are comparable across clusters).
func claimsByLabel(p *Quiescent) map[string]map[ident.Tag]int {
	out := make(map[string]map[ident.Tag]int)
	for id, st := range p.ackStates() {
		m := make(map[ident.Tag]int, len(st.claims))
		for l, cnt := range st.claims {
			m[l] = cnt
		}
		out[id.Body] = m
	}
	return out
}

// TestQuiescentCrashRecoverEquivalence drives randomized schedules —
// broadcasts, interleaved receptions, ticks, a mid-run detector-view
// shift, and CRASH-RECOVER events on random processes — through a
// durable cluster, and an identical schedule (minus the crashes) through
// an uninterrupted cluster. Both must reach the same deliveries and
// claims fixpoint, and then the same retirement endgame: recovery is
// state-transparent at the fixpoint, which is precisely the acceptance
// criterion "forgets nothing, re-delivers nothing" in its strongest
// form. Runs in full-set and delta-ACK modes (the latter exercises the
// Rejoin epoch rebasing under fire).
func TestQuiescentCrashRecoverEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := xrand.New(seed * 0x9e3779b9)
			n := 3 + int(rng.Uint64()%3) // 3..5 processes
			msgs := 3 + int(rng.Uint64()%4)
			cfg := Config{
				CheckOnTick:      rng.Uint64()%2 == 0,
				RetireBeforeSend: rng.Uint64()%2 == 0,
				EagerFirstSend:   rng.Uint64()%2 == 0,
				DeltaAcks:        rng.Uint64()%2 == 0,
			}

			viewA := fd.Normalize(fd.View{
				{Label: lbl(1), Number: n},
				{Label: lbl(2), Number: n},
			})
			viewB := fd.Normalize(fd.View{
				{Label: lbl(1), Number: n},
				{Label: lbl(3), Number: n},
			})

			base := newRecCluster(n, seed, cfg, viewA.Clone())
			crashy := newRecCluster(n, seed, cfg, viewA.Clone())

			steps := 200 + int(rng.Uint64()%200)
			shiftAt := steps/4 + int(rng.Uint64()%(uint64(steps)/2))
			sent := 0
			crashes := 0
			for step := 0; step < steps; step++ {
				if step == shiftAt {
					base.theta = viewB.Clone()
					crashy.theta = viewB.Clone()
				}
				switch op := rng.Uint64() % 20; {
				case op < 10: // deliver one frame at a random process
					i := int(rng.Uint64() % uint64(n))
					base.deliverOne(i)
					crashy.deliverOne(i)
				case op < 14: // tick a random process
					i := int(rng.Uint64() % uint64(n))
					base.absorb(i, base.hosts[i].proc.Tick())
					crashy.absorb(i, crashy.hosts[i].proc.Tick())
				case op < 16: // checkpoint a random process (both clusters,
					// to keep the op schedule identical; base never reads its)
					i := int(rng.Uint64() % uint64(n))
					base.checkpoint(i)
					crashy.checkpoint(i)
				case op < 18: // CRASH-RECOVER a random process (crashy only)
					i := int(rng.Uint64() % uint64(n))
					crashy.crashRecover(t, i)
					crashes++
				default: // broadcast the next payload (same body both sides)
					if sent >= msgs {
						continue
					}
					i := int(rng.Uint64() % uint64(n))
					body := []byte(fmt.Sprintf("m%d", sent))
					sent++
					_, s := base.hosts[i].proc.Broadcast(body)
					base.absorb(i, s)
					_, s = crashy.hosts[i].proc.Broadcast(body)
					crashy.absorb(i, s)
				}
			}
			for ; sent < msgs; sent++ {
				body := []byte(fmt.Sprintf("m%d", sent))
				_, s := base.hosts[0].proc.Broadcast(body)
				base.absorb(0, s)
				_, s = crashy.hosts[0].proc.Broadcast(body)
				crashy.absorb(0, s)
			}
			if crashes == 0 {
				crashy.crashRecover(t, int(rng.Uint64()%uint64(n)))
			}

			// Phase 1 fixpoint: AΘ settles on viewB, retirement disabled.
			base.theta = viewB.Clone()
			crashy.theta = viewB.Clone()
			base.settle(8)
			crashy.settle(8)
			compareRecClusters(t, "fixpoint", base, crashy, msgs)

			// Phase 2 endgame: AP* revealed, both clusters must retire
			// everything and fall silent.
			base.star = viewB.Clone()
			crashy.star = viewB.Clone()
			base.drain(t, "uninterrupted")
			crashy.drain(t, "crash-recover")
			compareRecClusters(t, "quiescence", base, crashy, msgs)
			for i := range crashy.hosts {
				if got := crashy.hosts[i].proc.RetiredCount(); got != msgs {
					t.Fatalf("p%d retired %d/%d after AP* reveal", i, got, msgs)
				}
			}
		})
	}
}

// compareRecClusters asserts both clusters hold identical per-process
// delivered sets, retirement counts and claims maps (keyed by message
// body and oracle label; tag_acks are NOT compared — a recovered process
// keeps its pins, but fresh pins drawn after a crash may differ from the
// uninterrupted cluster's, which is fine as long as the counted evidence
// matches).
func compareRecClusters(t *testing.T, phase string, base, crashy *recCluster, msgs int) {
	t.Helper()
	for i := range base.hosts {
		bp, cp := base.hosts[i].proc, crashy.hosts[i].proc
		bDel, cDel := deliveredBodies(bp), deliveredBodies(cp)
		if len(bDel) != msgs || len(cDel) != msgs {
			t.Fatalf("%s: p%d delivered base=%d crashy=%d, want %d", phase, i, len(bDel), len(cDel), msgs)
		}
		for b := range bDel {
			if !cDel[b] {
				t.Fatalf("%s: p%d: crash-recover cluster missed delivery of %q", phase, i, b)
			}
		}
		if br, cr := bp.RetiredCount(), cp.RetiredCount(); br != cr {
			t.Fatalf("%s: p%d retirement diverged: base=%d crashy=%d", phase, i, br, cr)
		}
		bc, cc := claimsByLabel(bp), claimsByLabel(cp)
		if len(bc) != len(cc) {
			t.Fatalf("%s: p%d tracks %d vs %d messages", phase, i, len(bc), len(cc))
		}
		for body, bm := range bc {
			cm, ok := cc[body]
			if !ok {
				t.Fatalf("%s: p%d: no ACK state for %q after crashes", phase, i, body)
			}
			if len(bm) != len(cm) {
				t.Fatalf("%s: p%d %q: claim label sets differ: base=%v crashy=%v", phase, i, body, bm, cm)
			}
			for l, cnt := range bm {
				if cm[l] != cnt {
					t.Fatalf("%s: p%d %q: claims[%s] base=%d crashy=%d", phase, i, body, l, cnt, cm[l])
				}
			}
		}
		bs, cs := bp.Stats(), cp.Stats()
		if bs.Delivered != cs.Delivered || bs.MsgSet != cs.MsgSet {
			t.Fatalf("%s: p%d stats diverged: base=%+v crashy=%+v", phase, i, bs, cs)
		}
	}
}
