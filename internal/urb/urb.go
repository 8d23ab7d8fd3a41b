// Package urb is the paper's primary contribution: Uniform Reliable
// Broadcast for anonymous asynchronous systems with fair lossy channels.
//
// Two algorithms are provided, exactly as in the paper:
//
//   - Majority (Algorithm 1): no failure detector, requires a majority of
//     correct processes (t < n/2), non-quiescent — every process
//     retransmits every known message forever.
//   - Quiescent (Algorithm 2): uses the anonymous failure detectors AΘ
//     and AP*, tolerates any number of crashes, and is quiescent —
//     eventually no process sends messages.
//
// URB guarantees (Section II):
//
//	Validity:           a correct broadcaster eventually delivers its own
//	                    message.
//	Uniform agreement:  if any process (correct or not) delivers m, every
//	                    correct process eventually delivers m.
//	Uniform integrity:  every process delivers m at most once, and only if
//	                    m was broadcast.
//
// The implementations are deterministic, single-threaded state machines:
// the hosting runtime (the discrete-event simulator in internal/sim or the
// goroutine runtime in internal/liverun) feeds them received messages and
// periodic ticks, and executes the broadcasts and deliveries each Step
// returns. The state machines receive no process identity — their only
// inputs are messages, failure detector views and a random source — so the
// code is structurally unable to break the anonymity assumption.
package urb

import (
	"anonurb/internal/ident"
	"anonurb/internal/obs"
	"anonurb/internal/wire"
)

// Delivery is one URB-delivery handed to the application layer.
type Delivery struct {
	// ID identifies the delivered message (payload + tag).
	ID wire.MsgID
	// Fast reports the paper's "fast delivery" case: the process
	// assembled the delivery evidence from ACKs alone, before receiving
	// any MSG copy of the message (Remark, Section III).
	Fast bool
}

// Body returns the delivered payload as a fresh byte slice.
func (d Delivery) Body() []byte { return d.ID.Bytes() }

// Step is the outcome of feeding one input to a process: wire messages to
// broadcast to all processes (including the sender itself), URB-deliveries
// for the local application, and durable events a persisting host must
// write ahead (hosts without a store ignore them).
type Step struct {
	Broadcasts []wire.Message
	Deliveries []Delivery
	// Durable lists the state transitions of this Step that a
	// crash-recovery host must persist before acting on the rest of the
	// Step (DESIGN.md §9): new URB-broadcasts and newly pinned tag_acks.
	// Deliveries are durable events too, but they already travel in
	// Deliveries; hosts log both. Empty unless the Step pinned or
	// broadcast something, so non-persisting hosts pay one nil slice.
	Durable []DurableEvent
}

// Merge appends o's outputs onto s. Hosting runtimes use it to coalesce
// the Steps of several inputs processed back-to-back (e.g. all messages
// of one inbound batch frame) so the combined broadcasts can travel as
// one batch.
func (s *Step) Merge(o Step) {
	s.Broadcasts = append(s.Broadcasts, o.Broadcasts...)
	s.Deliveries = append(s.Deliveries, o.Deliveries...)
	s.Durable = append(s.Durable, o.Durable...)
}

// Process is the interface both algorithms implement. Implementations are
// not safe for concurrent use: the hosting runtime serialises all calls to
// one instance.
type Process interface {
	// Broadcast is URB_broadcast(m): start disseminating body. The
	// payload is arbitrary bytes (copied on entry; the caller may reuse
	// the slice). The returned MsgID is the identity (tag + body) the
	// process assigned; the paper's primitive returns nothing, but
	// hosting runtimes need the identity to correlate deliveries with
	// broadcasts when measuring.
	Broadcast(body []byte) (wire.MsgID, Step)
	// Receive is receive(m): process one message that arrived on a
	// channel.
	Receive(m wire.Message) Step
	// Tick runs one full iteration of the periodic retransmission task
	// (the paper's Task 1 loop body, executed over every message in the
	// MSG set).
	Tick() Step
	// Stats reports the sizes of the algorithm's internal sets, for the
	// memory-footprint experiment (F5) and for quiescence accounting.
	Stats() Stats
}

// Stats is a snapshot of a process's internal state sizes.
type Stats struct {
	// MsgSet is |MSG_i|: messages currently being retransmitted by Task 1.
	MsgSet int
	// MyAcks is |MY_ACK_i|: messages this process has acknowledged.
	MyAcks int
	// AckEntries is the total number of distinct (message, tagAck) pairs
	// tracked (the paper's ALL_ACK_i).
	AckEntries int
	// Delivered is |URB_DELIVERED_i|.
	Delivered int
	// Retired counts messages deleted from MSG_i by the quiescence rule
	// (Algorithm 2, line 57). Always 0 for Algorithm 1.
	Retired int
	// WireSent counts wire messages this process asked to broadcast.
	WireSent uint64
	// AckLabels is the logical label count retained across all acker
	// views: what the paper's all_labels bookkeeping holds, counting
	// each (message, acker) view's labels. 0 for Algorithm 1 (its ACKs
	// carry no labels).
	AckLabels int
	// AckLabelStorage is the label count physically stored: acker views
	// share interned sets (deviation D6, DESIGN.md §10), so in steady
	// state this collapses to roughly one set per distinct detector view
	// instead of one per (message, acker).
	AckLabelStorage int
}

// Config carries the knobs shared by both algorithms. The zero value is
// the paper-faithful configuration.
type Config struct {
	// EagerFirstSend, when true, broadcasts a MSG immediately from
	// URB_broadcast and from first reception instead of waiting for the
	// next Task-1 tick. The paper's pseudocode only transmits from
	// Task 1; eager sending is a latency ablation (DESIGN.md §5).
	EagerFirstSend bool
	// CheckOnTick, when true, re-evaluates the delivery guard on every
	// tick in addition to every ACK receipt, reducing delivery latency
	// when a failure detector view changes between ACK arrivals. The
	// paper checks only on receipt (Algorithm 2, line 46); this is a
	// latency ablation (DESIGN.md §5) — no guard decision changes, only
	// when guards are consulted.
	CheckOnTick bool
	// RetireBeforeSend, when true, evaluates Algorithm 2's retirement
	// guard (line 55) before retransmitting a message in Task 1 rather
	// than after, saving one final broadcast round per message. The
	// paper broadcasts first (line 54) and then checks (line 55); this
	// is a traffic ablation (DESIGN.md §5) reordering one tick's work.
	RetireBeforeSend bool
	// DeltaAcks, when true, makes Algorithm 2 acknowledge incrementally
	// (deviation D5, DESIGN.md §8): instead of attaching the full AΘ
	// label set to every ACK on every MSG reception, an acker sends its
	// set once (a snapshot ACKΔ) and thereafter only epoch-numbered
	// differences when the set changes, with unchanged re-ACKs
	// rate-limited to one per message per Task-1 tick. Receivers detect
	// epoch gaps and repair them with a resync request the acker answers
	// with a fresh snapshot. The claim bookkeeping this drives is
	// state-for-state equivalent to the full-set path (tested by
	// TestQuiescentDeltaEquivalence); only the wire representation and
	// re-ACK frequency change. The paper's listing resends the full set
	// every time, so this is off in the paper-faithful zero value.
	// Receiving delta ACKs is always supported, whatever this is set to.
	DeltaAcks bool
	// CompactDelivered has no effect: every configuration, the zero
	// value included, holds acker views as refcount-interned shared sets
	// (deviation D6, DESIGN.md §10), and snapshots no longer record it.
	//
	// Deprecated: interned views are unconditional; leave it unset.
	CompactDelivered bool
	// PaceResyncs, when true, caps how many resync requests — ACKREQ
	// from the delta-ACK receiver, BEATREQ from the delta-beat receiver
	// (each family budgeted independently) — one process broadcasts per
	// Task-1 tick, at ResyncBudgetPerTick each (deviation D9, DESIGN.md
	// §15). When a partition heals, both sides discover epoch gaps on
	// every (message, acker) stream and every beat stream at once; the
	// per-stream per-tick limiters bound each stream to one request, but
	// the *number of streams* is O(n·m), so the heal instant spikes as a
	// resync storm. The budget spreads the repair over successive ticks:
	// a denied request is not remembered — the stream simply asks again
	// next tick, which is the ordinary repair cadence, so convergence is
	// delayed by at most streams/budget ticks and never lost. Off (the
	// paper-faithful zero value) is unlimited: the paper resends full
	// state every time and has no resync traffic at all, so pacing is a
	// deviation-local concern. Like the per-stream limiters this is
	// derived pacing state, excluded from snapshots and fingerprints.
	PaceResyncs bool
	// DeltaBeats, when true, makes a HeartbeatHost announce its detector
	// label incrementally (deviation D7, DESIGN.md §10): a snapshot
	// BEATΔ opens the beat stream, steady-state ALIVE refreshes then
	// travel as 15-byte
	// epoch-stamped BEATΔ frames instead of 22-byte full-label beats,
	// and receivers repair unknown refs or epoch gaps with a BEATREQ the
	// owner answers with a fresh snapshot — the detector-layer mirror of
	// the D5 ACK discipline. Receiving all beat forms is always on.
	// Ignored by the bare algorithms (beats are host traffic).
	DeltaBeats bool
}

// ResyncBudgetPerTick is how many resync requests one frame family may
// broadcast per Task-1 tick when Config.PaceResyncs is on (deviation
// D9). The exact figure only trades heal-traffic peak against repair
// spread — any positive constant preserves convergence, because denied
// streams retry on the ordinary tick cadence.
const ResyncBudgetPerTick = 8

// resyncLimit resolves the D9 pacing knob to a per-tick limit; 0 means
// unlimited (the paper has no resync traffic to pace).
func (c Config) resyncLimit() int {
	if c.PaceResyncs {
		return ResyncBudgetPerTick
	}
	return 0
}

// resyncBudget tracks one frame family's per-tick resync allowance
// (Config.PaceResyncs, deviation D9): pacing state only, reset when the
// tick advances, never snapshotted or fingerprinted.
type resyncBudget struct {
	tick uint64
	sent int
}

// take consumes one unit of the budget at the given tick. limit <= 0 is
// unlimited (the paper-faithful zero value).
func (b *resyncBudget) take(limit int, tick uint64) bool {
	if limit <= 0 {
		return true
	}
	if b.tick != tick {
		b.tick = tick
		b.sent = 0
	}
	if b.sent >= limit {
		return false
	}
	b.sent++
	return true
}

// recFlags are a message record's membership bits, one per per-message
// set of the paper's pseudocode: a MSG copy seen (received or locally
// broadcast; a delivery without it is "fast"), URB_DELIVERED_i, MSG_i
// (the set Task 1 retransmits) and MY_ACK_i (mine holds the tag_ack).
type recFlags uint8

const (
	recSeen recFlags = 1 << iota
	recDelivered
	recInMSG
	recPinned
)

// msgRec is the one record a process keeps per known message (DESIGN.md
// §10): the paper's per-message sets are bits and fields of it, so an
// input hashes its MsgID once, to find the record, instead of once per
// set it consults.
type msgRec struct {
	id    wire.MsgID
	flags recFlags
	ord   int       // first-ACK ordinal: the record's index in common.acked
	body  []byte    // payload shared by every MSG retransmission while in MSG_i
	mine  ident.Tag // pinned tag_ack (recPinned); never changes once pinned
	// tally is Algorithm 1's ALL_ACK_i entry (distinct tag_acks), st
	// Algorithm 2's ACK bookkeeping and ledger its delta-ACK sender entry
	// (D5); each nil until first needed.
	tally  *ident.Set
	st     *ackState
	ledger *ackSendState
}

func (r *msgRec) is(f recFlags) bool { return r.flags&f != 0 }

// common holds the state shared by both algorithms.
type common struct {
	cfg  Config
	tags *ident.Source
	// recs is the record table: one record per message this process has
	// heard of. It never shrinks — delivered identities must stay
	// remembered, exactly as URB_DELIVERED_i does in the paper.
	recs map[wire.MsgID]*msgRec
	// msgs is MSG_i in insertion order: the records Task 1 retransmits
	// (insertion order rather than map order keeps runs deterministic).
	msgs []*msgRec
	// acked lists the records holding ACK evidence in first-ACK order.
	acked []*msgRec
	// delivered and pinned count |URB_DELIVERED_i| and |MY_ACK_i|.
	delivered, pinned int
	wireSent          uint64
	// tr is the lifecycle tracer (DESIGN.md §14). nil — the zero value —
	// is OFF: every emit site guards on the pointer, so an untraced run
	// pays one branch and allocates nothing. The tracer is observability
	// state only: it never feeds back into guard decisions, is not part
	// of snapshots or fingerprints, and a traced run's Steps are
	// bit-identical to an untraced one's.
	tr *obs.Tracer
}

func newCommon(cfg Config, tags *ident.Source) common {
	return common{cfg: cfg, tags: tags, recs: make(map[wire.MsgID]*msgRec)}
}

// SetTracer installs (or, with nil, removes) the lifecycle tracer. Part
// of the obs.Traceable contract; hosts call it before the first step.
func (c *common) SetTracer(t *obs.Tracer) { c.tr = t }

// record returns id's record, creating it on first sight.
func (c *common) record(id wire.MsgID) *msgRec {
	r := c.recs[id]
	if r == nil {
		r = &msgRec{id: id}
		c.recs[id] = r
	}
	return r
}

// has reports whether id's record carries flag f.
func (c *common) has(id wire.MsgID, f recFlags) bool {
	r := c.recs[id]
	return r != nil && r.is(f)
}

// HasDelivered reports whether id has been URB-delivered locally.
func (c *common) HasDelivered(id wire.MsgID) bool { return c.has(id, recDelivered) }

// KnowsMsg reports whether id is currently in MSG_i (for Algorithm 2,
// false once retired).
func (c *common) KnowsMsg(id wire.MsgID) bool { return c.has(id, recInMSG) }

// Broadcast implements URB_broadcast(m) (lines 4-6 of both
// algorithms): draw a fresh tag, insert (m, tag) into MSG_i.
// Transmission happens in Task 1 (or immediately under the
// EagerFirstSend ablation).
func (c *common) Broadcast(body []byte) (wire.MsgID, Step) {
	var out Step
	id := wire.NewMsgID(c.tags.Next(), body)
	r := c.record(id)
	c.addMsg(r)
	r.flags |= recSeen
	if c.tr != nil {
		c.tr.Broadcast(id)
	}
	out.Durable = append(out.Durable,
		DurableEvent{Kind: WALBroadcast, ID: id, Draws: c.tags.Draws()})
	if c.cfg.EagerFirstSend {
		c.send(&out, wire.NewMsg(id))
	}
	return id, out
}

// seeMsg is the part of receive(MSG, m, tag) both algorithms share: mark
// the MSG copy seen and, on first reception, draw the unique tag_ack for
// (m, tag) and pin it. It must never change afterwards: uniform
// integrity counts distinct ackers by distinct tag_acks — which is also
// why the pin is a durable event (DESIGN.md §9): a recovered process
// acking under a fresh tag_ack would count as a phantom second acker.
func (c *common) seeMsg(out *Step, m wire.Message) *msgRec {
	r := c.record(m.ID())
	// RECV traces the first MSG copy only: retransmissions are the fair
	// lossy channel's business, not the message lifecycle's.
	if c.tr != nil && !r.is(recSeen) {
		c.tr.Recv(r.id, wire.KindMsg)
	}
	r.flags |= recSeen
	if !r.is(recPinned) {
		c.pin(r, c.tags.Next())
		out.Durable = append(out.Durable,
			DurableEvent{Kind: WALPin, ID: r.id, Ack: r.mine, Draws: c.tags.Draws()})
	}
	return r
}

// addMsg inserts r into MSG_i; it reports whether r was newly added.
func (c *common) addMsg(r *msgRec) bool {
	if r.is(recInMSG) {
		return false
	}
	r.flags |= recInMSG
	r.body = []byte(r.id.Body)
	c.msgs = append(c.msgs, r)
	return true
}

// markDelivered adds r to URB_DELIVERED_i; it reports whether r was
// newly added.
func (c *common) markDelivered(r *msgRec) bool {
	if r.is(recDelivered) {
		return false
	}
	r.flags |= recDelivered
	c.delivered++
	return true
}

// pin records ack as this process's tag_ack for r.
func (c *common) pin(r *msgRec, ack ident.Tag) {
	if !r.is(recPinned) {
		r.flags |= recPinned
		c.pinned++
	}
	r.mine = ack
}

// dropPins empties MY_ACK_i (the join protocol's Adopt).
func (c *common) dropPins() {
	for _, r := range c.recs {
		r.flags &^= recPinned
		r.mine = ident.Tag{}
	}
	c.pinned = 0
}

// noteAcked appends r to the first-ACK order.
func (c *common) noteAcked(r *msgRec) {
	r.ord = len(c.acked)
	c.acked = append(c.acked, r)
}

// send accounts for and returns a broadcast.
func (c *common) send(out *Step, m wire.Message) {
	c.wireSent++
	if c.tr != nil && m.Kind == wire.KindMsg {
		c.tr.FirstSendMsg(m)
	}
	out.Broadcasts = append(out.Broadcasts, m)
}

// deliverOnce appends a delivery if r has not been delivered yet.
func (c *common) deliverOnce(out *Step, r *msgRec) bool {
	if !c.markDelivered(r) {
		return false
	}
	fast := !r.is(recSeen)
	if c.tr != nil {
		c.tr.Deliver(r.id, fast)
	}
	out.Deliveries = append(out.Deliveries, Delivery{ID: r.id, Fast: fast})
	return true
}
