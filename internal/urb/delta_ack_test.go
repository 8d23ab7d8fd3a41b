package urb

import (
	"fmt"
	"testing"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// --- sender-side unit tests ----------------------------------------------

func TestQuiescentDeltaFirstAckIsSnapshot(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 2}, fd.Pair{Label: lbl(2), Number: 2})
	p := newQui(t, det, Config{DeltaAcks: true})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	s := p.Receive(wire.NewMsg(id))
	if len(s.Broadcasts) != 1 {
		t.Fatalf("want one broadcast, got %v", s.Broadcasts)
	}
	ack := s.Broadcasts[0]
	if ack.Kind != wire.KindAckDelta || ack.Flags&wire.AckFlagSnapshot == 0 {
		t.Fatalf("first labeled ACK must be a snapshot delta, got %v", ack)
	}
	if ack.Epoch != 1 {
		t.Fatalf("first epoch = %d, want 1", ack.Epoch)
	}
	got := ident.NewSet(ack.Labels...)
	if got.Len() != 2 || !got.Has(lbl(1)) || !got.Has(lbl(2)) {
		t.Fatalf("snapshot labels %v", ack.Labels)
	}
}

func TestQuiescentDeltaUnchangedReAckRateLimited(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 99})
	p := newQui(t, det, Config{DeltaAcks: true})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	s := p.Receive(wire.NewMsg(id))
	if len(s.Broadcasts) != 1 {
		t.Fatal("first reception must ACK")
	}
	// Further receptions within the same tick are suppressed (D5).
	for i := 0; i < 5; i++ {
		if s := p.Receive(wire.NewMsg(id)); len(s.Broadcasts) != 0 {
			t.Fatalf("re-ACK %d not rate-limited: %v", i, s.Broadcasts)
		}
	}
	// The next tick re-arms exactly one unchanged re-ACK.
	p.Tick()
	s = p.Receive(wire.NewMsg(id))
	if len(s.Broadcasts) != 1 {
		t.Fatalf("want one re-ACK after tick, got %v", s.Broadcasts)
	}
	re := s.Broadcasts[0]
	if re.Kind != wire.KindAckDelta || re.Flags != 0 || re.Epoch != 1 ||
		len(re.Labels) != 0 || len(re.DelLabels) != 0 {
		t.Fatalf("unchanged re-ACK malformed: %v", re)
	}
	if s := p.Receive(wire.NewMsg(id)); len(s.Broadcasts) != 0 {
		t.Fatal("second re-ACK within one tick not suppressed")
	}
}

func TestQuiescentDeltaChangedSetEmitsDelta(t *testing.T) {
	view := fd.Normalize(fd.View{{Label: lbl(1), Number: 9}, {Label: lbl(2), Number: 9}})
	det := &fd.Func{
		ThetaFn: func() fd.View { return view },
		StarFn:  func() fd.View { return view },
	}
	p := newQui(t, det, Config{DeltaAcks: true})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	p.Receive(wire.NewMsg(id)) // snapshot at epoch 1: {l1, l2}
	// The AΘ view changes: l2 out, l3 in. A changed set must not be
	// rate-limited even within the same tick.
	view = fd.Normalize(fd.View{{Label: lbl(1), Number: 9}, {Label: lbl(3), Number: 9}})
	s := p.Receive(wire.NewMsg(id))
	if len(s.Broadcasts) != 1 {
		t.Fatalf("changed set must ACK immediately, got %v", s.Broadcasts)
	}
	d := s.Broadcasts[0]
	if d.Kind != wire.KindAckDelta || d.Flags != 0 || d.Epoch != 2 {
		t.Fatalf("want plain delta at epoch 2, got %v", d)
	}
	if len(d.Labels) != 1 || d.Labels[0] != lbl(3) {
		t.Fatalf("adds = %v, want [l3]", d.Labels)
	}
	if len(d.DelLabels) != 1 || d.DelLabels[0] != lbl(2) {
		t.Fatalf("dels = %v, want [l2]", d.DelLabels)
	}
}

func TestQuiescentResyncResponse(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 99})
	p := newQui(t, det, Config{DeltaAcks: true})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	s := p.Receive(wire.NewMsg(id))
	mine := s.Broadcasts[0].AckTag

	// A request for someone else's stream is ignored.
	if s := p.Receive(wire.NewAckResync(id, lbl(77))); len(s.Broadcasts) != 0 {
		t.Fatalf("answered a foreign resync: %v", s.Broadcasts)
	}
	// A request for an unknown message is ignored.
	other := wire.MsgID{Tag: ident.Tag{Hi: 8, Lo: 8}, Body: "x"}
	if s := p.Receive(wire.NewAckResync(other, mine)); len(s.Broadcasts) != 0 {
		t.Fatalf("answered a resync for an un-ACKed message: %v", s.Broadcasts)
	}
	// Our own stream: answered with a snapshot — but the snapshot sent at
	// first reception this tick already serves, so only after a tick.
	if s := p.Receive(wire.NewAckResync(id, mine)); len(s.Broadcasts) != 0 {
		t.Fatalf("re-snapshotted within the snapshot's tick: %v", s.Broadcasts)
	}
	p.Tick()
	s = p.Receive(wire.NewAckResync(id, mine))
	if len(s.Broadcasts) != 1 {
		t.Fatalf("want snapshot response, got %v", s.Broadcasts)
	}
	snap := s.Broadcasts[0]
	if snap.Kind != wire.KindAckDelta || snap.Flags&wire.AckFlagSnapshot == 0 ||
		snap.Epoch != 1 || snap.AckTag != mine {
		t.Fatalf("bad snapshot response: %v", snap)
	}
	// One snapshot per tick serves all requesters (it is broadcast).
	if s := p.Receive(wire.NewAckResync(id, mine)); len(s.Broadcasts) != 0 {
		t.Fatalf("second snapshot within one tick: %v", s.Broadcasts)
	}
}

// --- receiver-side unit tests ---------------------------------------------

func TestQuiescentDeltaReceiverFoldsDeltas(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 2})
	p := newQui(t, det, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	// Snapshot opens the stream.
	p.Receive(wire.NewAckSnapshot(id, lbl(100), 1, []ident.Tag{lbl(1), lbl(2)}))
	if p.Claims(id, lbl(1)) != 1 || p.Claims(id, lbl(2)) != 1 {
		t.Fatalf("snapshot not applied: claims l1=%d l2=%d", p.Claims(id, lbl(1)), p.Claims(id, lbl(2)))
	}
	// In-sequence delta folds into the claim counters.
	p.Receive(wire.NewAckDelta(id, lbl(100), 2, []ident.Tag{lbl(3)}, []ident.Tag{lbl(2)}))
	if p.Claims(id, lbl(2)) != 0 || p.Claims(id, lbl(3)) != 1 {
		t.Fatalf("delta not folded: claims l2=%d l3=%d", p.Claims(id, lbl(2)), p.Claims(id, lbl(3)))
	}
	if p.Ackers(id) != 1 {
		t.Fatalf("ackers = %d, want 1", p.Ackers(id))
	}
	// Delivery fires through the delta path exactly as through full sets.
	s := p.Receive(wire.NewAckSnapshot(id, lbl(101), 1, []ident.Tag{lbl(1)}))
	if len(s.Deliveries) != 1 || s.Deliveries[0].ID != id {
		t.Fatalf("delivery guard missed on delta path: %v", s.Deliveries)
	}
	if !s.Deliveries[0].Fast {
		t.Fatal("ACK-only evidence must be a fast delivery")
	}
}

func TestQuiescentDeltaStaleAndDuplicateIgnored(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 99})
	p := newQui(t, det, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	p.Receive(wire.NewAckSnapshot(id, lbl(100), 1, []ident.Tag{lbl(1)}))
	p.Receive(wire.NewAckDelta(id, lbl(100), 2, []ident.Tag{lbl(2)}, nil))
	// Duplicate of the old delta and a stale snapshot: both no-ops, no
	// resync chatter.
	s := p.Receive(wire.NewAckDelta(id, lbl(100), 2, []ident.Tag{lbl(2)}, nil))
	if len(s.Broadcasts) != 0 {
		t.Fatalf("stale delta caused traffic: %v", s.Broadcasts)
	}
	s = p.Receive(wire.NewAckSnapshot(id, lbl(100), 1, []ident.Tag{lbl(1)}))
	if len(s.Broadcasts) != 0 {
		t.Fatalf("stale snapshot caused traffic: %v", s.Broadcasts)
	}
	if p.Claims(id, lbl(1)) != 1 || p.Claims(id, lbl(2)) != 1 {
		t.Fatalf("stale frames perturbed claims: l1=%d l2=%d", p.Claims(id, lbl(1)), p.Claims(id, lbl(2)))
	}
}

func TestQuiescentDeltaGapTriggersResync(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 99})
	p := newQui(t, det, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	p.Receive(wire.NewAckSnapshot(id, lbl(100), 1, []ident.Tag{lbl(1)}))
	// Epoch 3 arrives with epoch 2 lost: the fold is unsafe, claims stay
	// put, and a resync request goes out.
	s := p.Receive(wire.NewAckDelta(id, lbl(100), 3, []ident.Tag{lbl(3)}, []ident.Tag{lbl(1)}))
	if len(s.Broadcasts) != 1 || s.Broadcasts[0].Kind != wire.KindAckReq {
		t.Fatalf("want one ACKREQ, got %v", s.Broadcasts)
	}
	if s.Broadcasts[0].AckTag != lbl(100) || s.Broadcasts[0].ID() != id {
		t.Fatalf("ACKREQ misaddressed: %v", s.Broadcasts[0])
	}
	if p.Claims(id, lbl(1)) != 1 || p.Claims(id, lbl(3)) != 0 {
		t.Fatalf("gapped delta was folded: l1=%d l3=%d", p.Claims(id, lbl(1)), p.Claims(id, lbl(3)))
	}
	// Requests are rate-limited per (message, acker) per tick.
	s = p.Receive(wire.NewAckDelta(id, lbl(100), 4, []ident.Tag{lbl(4)}, nil))
	if len(s.Broadcasts) != 0 {
		t.Fatalf("second ACKREQ within one tick: %v", s.Broadcasts)
	}
	p.Tick()
	s = p.Receive(wire.NewAckDelta(id, lbl(100), 4, []ident.Tag{lbl(4)}, nil))
	if len(s.Broadcasts) != 1 || s.Broadcasts[0].Kind != wire.KindAckReq {
		t.Fatalf("ACKREQ not re-armed after tick: %v", s.Broadcasts)
	}
	// The snapshot response repairs the stream and clears the limiter.
	p.Receive(wire.NewAckSnapshot(id, lbl(100), 4, []ident.Tag{lbl(3), lbl(4)}))
	if p.Claims(id, lbl(1)) != 0 || p.Claims(id, lbl(3)) != 1 || p.Claims(id, lbl(4)) != 1 {
		t.Fatalf("snapshot repair wrong: l1=%d l3=%d l4=%d",
			p.Claims(id, lbl(1)), p.Claims(id, lbl(3)), p.Claims(id, lbl(4)))
	}
	// Back in sequence: the next delta folds without a request.
	s = p.Receive(wire.NewAckDelta(id, lbl(100), 5, []ident.Tag{lbl(5)}, nil))
	if len(s.Broadcasts) != 0 || p.Claims(id, lbl(5)) != 1 {
		t.Fatalf("post-repair delta mishandled: %v claims l5=%d", s.Broadcasts, p.Claims(id, lbl(5)))
	}
}

// TestQuiescentDeltaReAckReChecksDeliveryGuard: the guard (line 46)
// runs on every ACK reception, even one that changes no claims — a
// detector number dropping can unblock a delivery whose claims were
// already in place, and the full-set path catches that on the next
// re-ACK. The delta path must too (its re-ACKs are stale-epoch empty
// deltas), or a quiescent-mode node with CheckOnTick off would
// retransmit forever.
func TestQuiescentDeltaReAckReChecksDeliveryGuard(t *testing.T) {
	view := fd.Normalize(fd.View{{Label: lbl(1), Number: 5}})
	det := &fd.Func{
		ThetaFn: func() fd.View { return view },
		StarFn:  func() fd.View { return view },
	}
	p := newQui(t, det, Config{}) // CheckOnTick off
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	for i := uint64(0); i < 3; i++ {
		s := p.Receive(wire.NewAckSnapshot(id, lbl(100+i), 1, []ident.Tag{lbl(1)}))
		if len(s.Deliveries) != 0 {
			t.Fatal("premature delivery")
		}
	}
	// GST: the number drops to 2 with claims already at 3. The next
	// unchanged re-ACK — a stale-epoch empty delta — must deliver.
	view = fd.Normalize(fd.View{{Label: lbl(1), Number: 2}})
	s := p.Receive(wire.NewAckDelta(id, lbl(100), 1, nil, nil))
	if len(s.Deliveries) != 1 {
		t.Fatalf("stale re-ACK did not re-check the delivery guard: %v", s.Deliveries)
	}
}

// TestQuiescentDeltaEmptyReAckAheadOfEpochResyncs: an epoch advances
// only together with a set change, so a change-delta is never empty —
// an empty delta ahead of our epoch proves the change-delta that
// advanced it was lost (or overtaken). Folding it would mark the view
// synced at an epoch whose change was never applied: the receiver must
// resync instead, and the snapshot must repair the miss.
func TestQuiescentDeltaEmptyReAckAheadOfEpochResyncs(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 99})
	p := newQui(t, det, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	p.Receive(wire.NewAckSnapshot(id, lbl(100), 1, []ident.Tag{lbl(1)}))
	// The change-delta at epoch 2 (+l2) is lost; the unchanged re-ACK
	// stamped with epoch 2 arrives instead.
	s := p.Receive(wire.NewAckDelta(id, lbl(100), 2, nil, nil))
	if len(s.Broadcasts) != 1 || s.Broadcasts[0].Kind != wire.KindAckReq {
		t.Fatalf("empty delta ahead of epoch must resync, got %v", s.Broadcasts)
	}
	if p.Claims(id, lbl(2)) != 0 {
		t.Fatal("nothing should have folded")
	}
	// The snapshot answer restores the missed change.
	p.Receive(wire.NewAckSnapshot(id, lbl(100), 2, []ident.Tag{lbl(1), lbl(2)}))
	if p.Claims(id, lbl(1)) != 1 || p.Claims(id, lbl(2)) != 1 {
		t.Fatalf("repair wrong: l1=%d l2=%d", p.Claims(id, lbl(1)), p.Claims(id, lbl(2)))
	}
	// And an in-sync empty re-ACK (same epoch) stays a quiet no-op.
	s = p.Receive(wire.NewAckDelta(id, lbl(100), 2, nil, nil))
	if len(s.Broadcasts) != 0 {
		t.Fatalf("in-sync re-ACK caused traffic: %v", s.Broadcasts)
	}
}

func TestQuiescentDeltaFromUnknownAckerTriggersResync(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 99})
	p := newQui(t, det, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	// Even an epoch-1 plain delta is not foldable: senders open streams
	// with snapshots, so a plain delta from an unknown acker means the
	// opening snapshot was lost.
	s := p.Receive(wire.NewAckDelta(id, lbl(100), 1, nil, nil))
	if len(s.Broadcasts) != 1 || s.Broadcasts[0].Kind != wire.KindAckReq {
		t.Fatalf("want ACKREQ for unknown acker, got %v", s.Broadcasts)
	}
	if p.Ackers(id) != 0 {
		t.Fatal("unfoldable delta registered an acker")
	}
}

func TestQuiescentLegacyFullAckThenDeltaResyncs(t *testing.T) {
	// Mixed traffic: a full-set ACK carries no epoch, so a delta arriving
	// after it cannot be sequenced — the receiver must ask for a snapshot
	// rather than guess.
	det := staticFD(fd.Pair{Label: lbl(1), Number: 99})
	p := newQui(t, det, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1)}))
	if p.Claims(id, lbl(1)) != 1 {
		t.Fatal("full-set ACK not applied")
	}
	s := p.Receive(wire.NewAckDelta(id, lbl(100), 7, []ident.Tag{lbl(2)}, nil))
	if len(s.Broadcasts) != 1 || s.Broadcasts[0].Kind != wire.KindAckReq {
		t.Fatalf("delta after legacy ACK must resync, got %v", s.Broadcasts)
	}
	if p.Claims(id, lbl(2)) != 0 {
		t.Fatal("unsequenced delta was folded")
	}
	// And the reverse interleaving: a legacy full ACK replaces a synced
	// delta view wholesale (and desyncs it).
	p.Receive(wire.NewAckSnapshot(id, lbl(101), 3, []ident.Tag{lbl(3)}))
	p.Receive(wire.NewLabeledAck(id, lbl(101), []ident.Tag{lbl(4)}))
	if p.Claims(id, lbl(3)) != 0 || p.Claims(id, lbl(4)) != 1 {
		t.Fatalf("legacy replace after delta wrong: l3=%d l4=%d", p.Claims(id, lbl(3)), p.Claims(id, lbl(4)))
	}
}

func TestQuiescentDeltaOverlapFoldsRemovalsFirst(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 99})
	p := newQui(t, det, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	p.Receive(wire.NewAckSnapshot(id, lbl(100), 1, []ident.Tag{lbl(1)}))
	// Adversarial overlap: lbl(1) in both lists. Removals fold first, so
	// the label ends up present with a correct (single) claim count.
	p.Receive(wire.NewAckDelta(id, lbl(100), 2, []ident.Tag{lbl(1)}, []ident.Tag{lbl(1)}))
	if p.Claims(id, lbl(1)) != 1 {
		t.Fatalf("overlap fold wrong: claims l1=%d, want 1", p.Claims(id, lbl(1)))
	}
}

func TestQuiescentPurgeDesyncsDeltaStream(t *testing.T) {
	// The D4 purge removes a label locally that the acker still claims
	// remotely. A delta sender never re-sends labels it believes the
	// receiver holds, so the view must drop to unsynced and the next
	// delta must trigger a resync — otherwise a wrongly-purged label
	// (one that returns to the views pre-GST) would be lost forever.
	view := fd.Normalize(fd.View{{Label: lbl(1), Number: 99}, {Label: lbl(2), Number: 99}})
	det := &fd.Func{
		ThetaFn: func() fd.View { return view },
		StarFn:  func() fd.View { return view },
	}
	p := newQui(t, det, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	p.Receive(wire.NewAckSnapshot(id, lbl(100), 1, []ident.Tag{lbl(1), lbl(2)}))
	// lbl(2) temporarily vanishes from the views: the purge removes it.
	view = fd.Normalize(fd.View{{Label: lbl(1), Number: 99}})
	p.Tick()
	if p.Claims(id, lbl(2)) != 0 {
		t.Fatal("purge did not remove the suspect label")
	}
	// lbl(2) comes back (wrong suspicion). An in-sequence delta can no
	// longer be folded — the local copy diverged — so the receiver asks
	// for a snapshot, whose reply restores the purged label.
	view = fd.Normalize(fd.View{{Label: lbl(1), Number: 99}, {Label: lbl(2), Number: 99}})
	s := p.Receive(wire.NewAckDelta(id, lbl(100), 2, []ident.Tag{lbl(3)}, nil))
	if len(s.Broadcasts) != 1 || s.Broadcasts[0].Kind != wire.KindAckReq {
		t.Fatalf("post-purge delta must resync, got %v", s.Broadcasts)
	}
	p.Receive(wire.NewAckSnapshot(id, lbl(100), 2, []ident.Tag{lbl(1), lbl(2), lbl(3)}))
	if p.Claims(id, lbl(2)) != 1 {
		t.Fatal("snapshot did not restore the wrongly purged label")
	}
}

// --- the equivalence property test (randomized schedules) ----------------

// eqCluster is a tiny lossless in-order broadcast fabric for one group of
// Quiescent processes: every broadcast is appended to every process's
// FIFO queue (self included), exactly once.
type eqCluster struct {
	procs  []*Quiescent
	queues [][]wire.Message
	theta  fd.View // shared mutable AΘ view (oracle-style)
	star   fd.View // shared mutable AP* view (nil = retirement disabled)
}

func newEqCluster(n int, seed uint64, cfg Config, theta fd.View) *eqCluster {
	c := &eqCluster{queues: make([][]wire.Message, n), theta: theta}
	det := &fd.Func{
		ThetaFn: func() fd.View { return c.theta },
		StarFn:  func() fd.View { return c.star },
	}
	for i := 0; i < n; i++ {
		c.procs = append(c.procs, NewQuiescent(det, ident.NewSource(xrand.New(seed+uint64(i)*7919)), cfg))
	}
	return c
}

func (c *eqCluster) absorb(s Step) {
	for _, m := range s.Broadcasts {
		for i := range c.queues {
			c.queues[i] = append(c.queues[i], m)
		}
	}
}

// deliverOne feeds the head of proc i's queue, if any.
func (c *eqCluster) deliverOne(i int) {
	if len(c.queues[i]) == 0 {
		return
	}
	m := c.queues[i][0]
	c.queues[i] = c.queues[i][1:]
	c.absorb(c.procs[i].Receive(m))
}

func (c *eqCluster) pending() int {
	n := 0
	for _, q := range c.queues {
		n += len(q)
	}
	return n
}

// settle runs rounds of tick-everyone + deliver-everything so claims
// reach their fixpoint for the current views (the per-round full drain
// also completes any pending resync request/response conversations).
// Retirement must be disabled (empty AP* view) or traffic may stop
// before the fixpoint.
func (c *eqCluster) settle(rounds int) {
	for r := 0; r < rounds; r++ {
		for _, p := range c.procs {
			c.absorb(p.Tick())
		}
		for i := range c.procs {
			for len(c.queues[i]) > 0 {
				c.deliverOne(i)
			}
		}
	}
}

// drain delivers queued traffic and ticks until the cluster is silent:
// no queued frames and a full tick round that broadcasts nothing.
func (c *eqCluster) drain(t *testing.T, name string) {
	t.Helper()
	for round := 0; round < 400; round++ {
		for i := range c.procs {
			for len(c.queues[i]) > 0 {
				c.deliverOne(i)
			}
		}
		sent := 0
		for _, p := range c.procs {
			s := p.Tick()
			sent += len(s.Broadcasts)
			c.absorb(s)
		}
		if sent == 0 && c.pending() == 0 {
			return
		}
	}
	t.Fatalf("%s cluster did not quiesce within the drain budget", name)
}

// claimsByBody flattens a process's claim counters keyed by message body
// (bodies are unique per broadcast, and tags differ between clusters).
func claimsByBody(p *Quiescent) map[string]map[ident.Tag]int {
	out := make(map[string]map[ident.Tag]int)
	for id, st := range p.ackStates() {
		m := make(map[ident.Tag]int, len(st.claims))
		for l, c := range st.claims {
			m[l] = c
		}
		out[id.Body] = m
	}
	return out
}

func deliveredBodies(p *Quiescent) map[string]bool {
	out := make(map[string]bool, p.delivered)
	for id := range p.deliveredIDs() {
		out[id.Body] = true
	}
	return out
}

// compareClusters asserts that two clusters hold identical per-process
// claim maps, delivered sets, retirement counts and state sizes (keyed
// by message body; tag_acks differ between clusters by construction).
func compareClusters(t *testing.T, phase string, full, delta *eqCluster, msgs int) {
	t.Helper()
	for i := range full.procs {
		fp, dp := full.procs[i], delta.procs[i]
		fDel, dDel := deliveredBodies(fp), deliveredBodies(dp)
		if len(fDel) != msgs || len(dDel) != msgs {
			t.Fatalf("%s: p%d delivered full=%d delta=%d, want %d", phase, i, len(fDel), len(dDel), msgs)
		}
		for b := range fDel {
			if !dDel[b] {
				t.Fatalf("%s: p%d: delta path missed delivery of %q", phase, i, b)
			}
		}
		if fr, dr := fp.RetiredCount(), dp.RetiredCount(); fr != dr {
			t.Fatalf("%s: p%d retirement diverged: full=%d delta=%d", phase, i, fr, dr)
		}
		fc, dc := claimsByBody(fp), claimsByBody(dp)
		if len(fc) != len(dc) {
			t.Fatalf("%s: p%d tracks %d vs %d messages", phase, i, len(fc), len(dc))
		}
		for body, fm := range fc {
			dm, ok := dc[body]
			if !ok {
				t.Fatalf("%s: p%d: delta path has no ACK state for %q", phase, i, body)
			}
			if len(fm) != len(dm) {
				t.Fatalf("%s: p%d %q: claim label sets differ: full=%v delta=%v", phase, i, body, fm, dm)
			}
			for l, c := range fm {
				if dm[l] != c {
					t.Fatalf("%s: p%d %q: claims[%s] full=%d delta=%d", phase, i, body, l, c, dm[l])
				}
			}
		}
		fs, ds := fp.Stats(), dp.Stats()
		if fs.AckEntries != ds.AckEntries || fs.MsgSet != ds.MsgSet || fs.Delivered != ds.Delivered {
			t.Fatalf("%s: p%d stats diverged: full=%+v delta=%+v", phase, i, fs, ds)
		}
	}
}

// TestQuiescentDeltaEquivalence drives randomized schedules through two
// clusters that differ only in ACK encoding — full-set versus delta —
// and requires identical claims maps, delivered sets and retirement
// counts. Both clusters see the same op sequence (broadcasts,
// single-message receptions, ticks, one detector-view shift) over
// lossless in-order queues; the delta cluster additionally exercises
// rate-limited re-ACKs, epoch sequencing and purge-driven resyncs along
// the way.
//
// The run has two phases because the encodings may interleave
// differently in time and retirement *freezes* a message's claim state
// wherever it happens to stand (no further ACKs flow once quiescent).
// Phase 1 keeps the AP* view empty — retirement disabled — so both
// clusters converge to the claims fixpoint of the final AΘ view, which
// must be reached identically by full sets and by folded deltas. Phase 2
// reveals the AP* view from that common state and requires the
// retirement endgame — the paper's actual quiescence mechanism — to
// proceed identically too.
func TestQuiescentDeltaEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := xrand.New(seed * 0x9e3779b9)
			n := 3 + int(rng.Uint64()%3) // 3..5 processes
			msgs := 3 + int(rng.Uint64()%4)
			base := Config{
				CheckOnTick:      rng.Uint64()%2 == 0,
				RetireBeforeSend: rng.Uint64()%2 == 0,
				EagerFirstSend:   rng.Uint64()%2 == 0,
			}
			deltaCfg := base
			deltaCfg.DeltaAcks = true

			// Oracle-style views: every label claimed by all n processes.
			// The mid-run shift swaps lbl(2) for lbl(3), so delta ACKs
			// carry genuine additions and removals and the D4 purge runs.
			viewA := fd.Normalize(fd.View{
				{Label: lbl(1), Number: n},
				{Label: lbl(2), Number: n},
			})
			viewB := fd.Normalize(fd.View{
				{Label: lbl(1), Number: n},
				{Label: lbl(3), Number: n},
			})

			full := newEqCluster(n, seed, base, viewA.Clone())
			delta := newEqCluster(n, seed, deltaCfg, viewA.Clone())

			steps := 200 + int(rng.Uint64()%200)
			shiftAt := steps/4 + int(rng.Uint64()%(uint64(steps)/2))
			sent := 0
			for step := 0; step < steps; step++ {
				if step == shiftAt {
					full.theta = viewB.Clone()
					delta.theta = viewB.Clone()
				}
				switch op := rng.Uint64() % 10; {
				case op < 6: // deliver one frame at a random process
					i := int(rng.Uint64() % uint64(n))
					full.deliverOne(i)
					delta.deliverOne(i)
				case op < 8: // tick a random process
					i := int(rng.Uint64() % uint64(n))
					full.absorb(full.procs[i].Tick())
					delta.absorb(delta.procs[i].Tick())
				default: // broadcast the next payload (same body both sides)
					if sent >= msgs {
						continue
					}
					i := int(rng.Uint64() % uint64(n))
					body := []byte(fmt.Sprintf("m%d", sent))
					sent++
					_, s := full.procs[i].Broadcast(body)
					full.absorb(s)
					_, s = delta.procs[i].Broadcast(body)
					delta.absorb(s)
				}
			}
			// Broadcast any payloads the schedule never got to, so both
			// clusters handled the same message set.
			for ; sent < msgs; sent++ {
				body := []byte(fmt.Sprintf("m%d", sent))
				_, s := full.procs[0].Broadcast(body)
				full.absorb(s)
				_, s = delta.procs[0].Broadcast(body)
				delta.absorb(s)
			}

			// Phase 1 fixpoint: AΘ settles on viewB, retirement stays
			// disabled, and a few tick+full-drain rounds bring every
			// acker's set — full or folded — to the view's labels.
			full.theta = viewB.Clone()
			delta.theta = viewB.Clone()
			full.settle(6)
			delta.settle(6)
			compareClusters(t, "fixpoint", full, delta, msgs)

			// Phase 2 endgame: AP* reveals the correct set and both
			// clusters must retire everything and fall silent.
			full.star = viewB.Clone()
			delta.star = viewB.Clone()
			full.drain(t, "full-set")
			delta.drain(t, "delta")
			compareClusters(t, "quiescence", full, delta, msgs)
			for i := range full.procs {
				if got := delta.procs[i].RetiredCount(); got != msgs {
					t.Fatalf("p%d retired %d/%d after AP* reveal", i, got, msgs)
				}
			}
		})
	}
}
