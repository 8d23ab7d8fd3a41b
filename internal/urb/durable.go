package urb

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// This file is the durable-state surface of the algorithms (DESIGN.md §9):
// a canonical, versioned binary codec for process state — the sibling of
// internal/wire, but for state instead of frames — plus the write-ahead
// events a persisting host logs between checkpoints.
//
// The paper's model is crash-stop; crash-recovery is a deliberate
// extension (in the spirit of the self-stabilizing URB line of work, see
// PAPERS.md): a process that restarts from its store must forget nothing
// it URB-delivered (uniformity across restarts) and must keep using the
// tag_acks it already pinned (a fresh tag_ack for an already-acked
// message would count as a second, phantom acker at receivers — exactly
// the over-counting the Theorem 2 construction exploits). Snapshots carry
// the full state machine; the WAL carries the three transitions that must
// never be lost between checkpoints: deliveries, tag_ack pins and local
// broadcasts.

// Snapshotter is implemented by process types whose full state can be
// exported to and rebuilt from the canonical binary snapshot form.
// Restore must be called on a freshly constructed process (same
// constructor parameters, a tag Source at stream position zero); it
// verifies the embedded fingerprint digest after rebuilding, so a
// corrupted snapshot that survives the structural checks still fails.
type Snapshotter interface {
	// Snapshot returns the canonical binary encoding of the full process
	// state. Two calls on the same state return identical bytes.
	Snapshot() []byte
	// Restore rebuilds the process state from a Snapshot. The process's
	// tag Source is fast-forwarded to the snapshot's stream position.
	Restore(data []byte) error
}

// Durable is the contract a crash-recovery host needs from an algorithm:
// the live Process surface, snapshot export/import, WAL replay, and the
// post-replay incarnation step.
type Durable interface {
	Process
	Snapshotter
	// ApplyWAL replays one write-ahead record into the state machine, in
	// the order the host logged them after the snapshot being recovered.
	ApplyWAL(rec DurableEvent) error
	// Rejoin marks the recovered state as a new incarnation. Hosts call
	// it once, after Restore and WAL replay, before the process goes
	// live. Restore alone reproduces the checkpointed state exactly —
	// but the window between the checkpoint and the crash is lost, and
	// state that *numbers* an outbound stream (the delta-ACK epochs)
	// must never fall behind what the previous incarnation already put
	// on the wire: receivers would discard the recovered process's ACKs
	// as stale, silently and forever. Rejoin abandons such streams and
	// rebases them above an epoch floor that dominates every epoch the
	// previous incarnation can have sent (receivers heal through the
	// ordinary gap→resync→snapshot path). A no-op for Algorithm 1, whose
	// ACKs carry no sequencing.
	Rejoin()
}

var (
	_ Durable = (*Majority)(nil)
	_ Durable = (*Quiescent)(nil)
	_ Durable = (*HeartbeatHost)(nil)
)

// WALKind discriminates write-ahead records.
type WALKind uint8

const (
	// WALDeliver records one URB-delivery: the uniformity-critical event.
	// A recovered process must never re-deliver it and must keep
	// retransmitting the message until the algorithm's own rules stop.
	WALDeliver WALKind = 1
	// WALPin records the pinning of a tag_ack to a message (first MSG
	// reception). Replay reuses the pinned tag instead of drawing a fresh
	// one, so a recovered process never acks one message under two
	// identities.
	WALPin WALKind = 2
	// WALBroadcast records a local URB_broadcast: the message must keep
	// disseminating across the restart (validity in the crash-recovery
	// reading, where a recovered process counts as correct).
	WALBroadcast WALKind = 3
)

// String implements fmt.Stringer.
func (k WALKind) String() string {
	switch k {
	case WALDeliver:
		return "DELIVER"
	case WALPin:
		return "PIN"
	case WALBroadcast:
		return "BROADCAST"
	default:
		return fmt.Sprintf("WALKind(%d)", uint8(k))
	}
}

// DurableEvent is one write-ahead record: a state transition the host
// must persist before acting on the Step that produced it. The algorithms
// emit Pin and Broadcast events in Step.Durable; hosts derive Deliver
// events from Step.Deliveries via DeliverEvent.
type DurableEvent struct {
	Kind WALKind
	// ID is the message the event is about.
	ID wire.MsgID
	// Fast is the delivery's fast flag (WALDeliver only).
	Fast bool
	// Ack is the pinned tag_ack (WALPin only).
	Ack ident.Tag
	// Draws is the process's tag-stream position after the event
	// (WALPin and WALBroadcast, which each draw one tag). Replay
	// fast-forwards the recovered stream past it so post-recovery draws
	// do not re-issue tags already on the wire.
	Draws uint64
}

// DeliverEvent builds the WAL record for one URB-delivery.
func DeliverEvent(d Delivery) DurableEvent {
	return DurableEvent{Kind: WALDeliver, ID: d.ID, Fast: d.Fast}
}

// Snapshot codec constants. The codec is versioned independently of the
// wire codec: state layouts and frame layouts evolve separately.
//
// Version 2 (DESIGN.md §10) replaced the label matrices of version 1
// with a compact form: each Quiescent message's acker views reference a
// per-snapshot table of distinct label sets, so a quiescent steady
// state — where every acker's view is the same set — persists that set
// once instead of once per (message, acker); heartbeat-host snapshots
// additionally carry the delta-beat stream position. Version 1
// snapshots are rejected with ErrSnapshotVersion.
const (
	snapVersion = 2
	walVersion  = 1

	snapKindMajority  = 1
	snapKindQuiescent = 2
	snapKindHeartbeat = 3
)

// Codec errors.
var (
	ErrSnapshotShort    = errors.New("urb: snapshot truncated")
	ErrSnapshotVersion  = errors.New("urb: unknown snapshot codec version")
	ErrSnapshotKind     = errors.New("urb: snapshot is for a different process kind")
	ErrSnapshotMismatch = errors.New("urb: snapshot does not match the process configuration")
	ErrSnapshotCorrupt  = errors.New("urb: snapshot fingerprint digest mismatch")
	ErrSnapshotTrailing = errors.New("urb: trailing bytes after snapshot")
	ErrWALRecord        = errors.New("urb: malformed WAL record")

	// errNonCanonical rejects encodings the canonical encoder never
	// produces (e.g. boolean bytes other than 0/1).
	errNonCanonical = errors.New("urb: non-canonical encoding")
)

// --- binary helpers -------------------------------------------------------

// stateWriter accumulates the canonical big-endian encoding.
type stateWriter struct{ b []byte }

func (w *stateWriter) u8(v uint8) { w.b = append(w.b, v) }
func (w *stateWriter) u32(v uint32) {
	w.b = append(w.b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
func (w *stateWriter) u64(v uint64) {
	w.u32(uint32(v >> 32))
	w.u32(uint32(v))
}
func (w *stateWriter) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *stateWriter) tag(t ident.Tag) {
	w.u64(t.Hi)
	w.u64(t.Lo)
}
func (w *stateWriter) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.b = append(w.b, b...)
}
func (w *stateWriter) msgID(id wire.MsgID) {
	w.tag(id.Tag)
	w.bytes([]byte(id.Body))
}
func (w *stateWriter) tags(ts []ident.Tag) {
	w.u32(uint32(len(ts)))
	for _, t := range ts {
		w.tag(t)
	}
}
func (w *stateWriter) ids(recs []*msgRec) {
	w.u32(uint32(len(recs)))
	for _, r := range recs {
		w.msgID(r.id)
	}
}

// stateReader consumes the encoding with sticky errors and alloc bounds.
type stateReader struct {
	b   []byte
	err error
}

func (r *stateReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}
func (r *stateReader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail(ErrSnapshotShort)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}
func (r *stateReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 4 {
		r.fail(ErrSnapshotShort)
		return 0
	}
	v := uint32(r.b[0])<<24 | uint32(r.b[1])<<16 | uint32(r.b[2])<<8 | uint32(r.b[3])
	r.b = r.b[4:]
	return v
}
func (r *stateReader) u64() uint64 {
	hi := r.u32()
	lo := r.u32()
	return uint64(hi)<<32 | uint64(lo)
}
func (r *stateReader) boolean() bool {
	switch v := r.u8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		// Strict: the encoder only ever writes 0 or 1, and accepting
		// other values would make decode∘encode non-canonical.
		r.fail(errNonCanonical)
		return false
	}
}
func (r *stateReader) tag() ident.Tag {
	return ident.Tag{Hi: r.u64(), Lo: r.u64()}
}

// count reads a collection length and bounds it by the bytes remaining:
// each element occupies at least min bytes, so a count the buffer cannot
// possibly hold is corruption, rejected before any allocation.
func (r *stateReader) count(min int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if int64(n)*int64(min) > int64(len(r.b)) {
		r.fail(ErrSnapshotShort)
		return 0
	}
	return int(n)
}
func (r *stateReader) bytes() []byte {
	n := r.count(1)
	if r.err != nil {
		return nil
	}
	out := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return out
}
func (r *stateReader) msgID() wire.MsgID {
	t := r.tag()
	body := r.bytes()
	return wire.MsgID{Tag: t, Body: string(body)}
}
func (r *stateReader) tagList() []ident.Tag {
	n := r.count(16)
	if r.err != nil {
		return nil
	}
	out := make([]ident.Tag, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.tag())
	}
	return out
}
func (r *stateReader) idList() []wire.MsgID {
	n := r.count(20)
	if r.err != nil {
		return nil
	}
	out := make([]wire.MsgID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.msgID())
	}
	return out
}
func (r *stateReader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return ErrSnapshotTrailing
	}
	return nil
}

// sortedRecs returns the records keep selects, in canonical order of
// message identity (tag, then body).
func (c *common) sortedRecs(keep func(*msgRec) bool) []*msgRec {
	var out []*msgRec
	for _, r := range c.recs {
		if keep(r) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].id.Tag.Compare(out[j].id.Tag); c != 0 {
			return c < 0
		}
		return out[i].id.Body < out[j].id.Body
	})
	return out
}

// sortedWith returns the records carrying flag f, in canonical order.
func (c *common) sortedWith(f recFlags) []*msgRec {
	return c.sortedRecs(func(r *msgRec) bool { return r.is(f) })
}

// snapDigest hashes a snapshot's payload bytes together with the state
// fingerprint the payload decodes to, producing the 64-bit digest
// embedded in the trailer (FNV-1a; the digest guards against corruption,
// not attackers). Covering the raw bytes catches flips in fields the
// behaviour-oriented fingerprint deliberately omits (e.g. the wire-sent
// counter); covering the fingerprint catches encoder/decoder divergence.
func snapDigest(payload []byte, fp string) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	h.Write([]byte(fp))
	return h.Sum64()
}

// cfgFlags packs the Config knobs for the restore-time compatibility
// check: a snapshot must be restored into an identically configured
// process (the knobs change behaviour, and a silent flip across a restart
// would make the recovered process a different algorithm). Bit 4 is
// retired (it was the former CompactDelivered knob): no process writes
// it, so a snapshot carrying it fails the check with
// ErrSnapshotMismatch.
func cfgFlags(c Config) uint8 {
	var f uint8
	if c.EagerFirstSend {
		f |= 1 << 0
	}
	if c.CheckOnTick {
		f |= 1 << 1
	}
	if c.RetireBeforeSend {
		f |= 1 << 2
	}
	if c.DeltaAcks {
		f |= 1 << 3
	}
	if c.DeltaBeats {
		f |= 1 << 5
	}
	return f
}

// cfgFromFlags is the inverse of cfgFlags (used by VerifySnapshot, which
// must construct a matching process from the snapshot alone).
func cfgFromFlags(f uint8) Config {
	return Config{
		EagerFirstSend:   f&(1<<0) != 0,
		CheckOnTick:      f&(1<<1) != 0,
		RetireBeforeSend: f&(1<<2) != 0,
		DeltaAcks:        f&(1<<3) != 0,
		DeltaBeats:       f&(1<<5) != 0,
	}
}

// --- common state sections ------------------------------------------------

// encodeCommon writes the state shared by both algorithms.
func (c *common) encodeCommon(w *stateWriter) {
	w.u8(cfgFlags(c.cfg))
	w.u64(c.tags.Draws())
	w.u64(c.wireSent)
	w.ids(c.msgs) // insertion order: Task-1 iteration order is state
	w.ids(c.sortedWith(recSeen))
	w.ids(c.sortedWith(recDelivered))
	pinned := c.sortedWith(recPinned)
	w.u32(uint32(len(pinned)))
	for _, r := range pinned {
		w.msgID(r.id)
		w.tag(r.mine)
	}
}

// decodeCommon rebuilds the shared state into a fresh common. The tag
// source is fast-forwarded to the recorded stream position.
func (c *common) decodeCommon(r *stateReader, wantCfg Config) {
	flags := r.u8()
	if r.err == nil && flags != cfgFlags(wantCfg) {
		r.fail(fmt.Errorf("%w: snapshot config flags %#x, process has %#x",
			ErrSnapshotMismatch, flags, cfgFlags(wantCfg)))
		return
	}
	draws := r.u64()
	wireSent := r.u64()
	msgs := r.idList()
	saw := r.idList()
	del := r.idList()
	n := r.count(20 + 16)
	if r.err != nil {
		return
	}
	fresh := common{cfg: c.cfg, tags: c.tags, recs: make(map[wire.MsgID]*msgRec, n+len(saw))}
	for i := 0; i < n; i++ {
		id := r.msgID()
		fresh.pin(fresh.record(id), r.tag())
	}
	if r.err != nil {
		return
	}
	// Plausibility bound before fast-forwarding the stream: every draw is
	// either a tag_ack pin (MY_ACK_i, which never shrinks) or a local
	// broadcast (whose id stays seen forever), plus at most one detector
	// label for a wrapping host. A corrupted draw counter beyond that
	// would otherwise spin SkipTo for billions of throwaway draws.
	if draws > uint64(fresh.pinned)+uint64(len(saw))+1 {
		r.fail(fmt.Errorf("%w: draw counter %d exceeds state plausibility bound", ErrSnapshotMismatch, draws))
		return
	}
	if err := c.tags.SkipTo(draws); err != nil {
		r.fail(fmt.Errorf("%w: %v", ErrSnapshotMismatch, err))
		return
	}
	for _, id := range msgs {
		fresh.addMsg(fresh.record(id))
	}
	for _, id := range saw {
		fresh.record(id).flags |= recSeen
	}
	for _, id := range del {
		fresh.markDelivered(fresh.record(id))
	}
	fresh.wireSent = wireSent
	fresh.tr = c.tr
	*c = fresh
}

// applyCommonWAL realises the kind-independent part of WAL replay and
// reports whether the message should (re-)enter MSG_i. guardDelivered is
// Algorithm 2's rule: a delivered message stays out of MSG_i (it may have
// been retired after the checkpoint, and re-reception respects the same
// guard); Algorithm 1 never removes, so it always re-inserts.
func (c *common) applyCommonWAL(rec DurableEvent, guardDelivered bool) error {
	switch rec.Kind {
	case WALDeliver:
		r := c.record(rec.ID)
		c.markDelivered(r)
		r.flags |= recSeen
		if !guardDelivered {
			c.addMsg(r)
		}
	case WALPin:
		if rec.Ack.Zero() {
			return fmt.Errorf("%w: pin with zero tag_ack", ErrWALRecord)
		}
		r := c.record(rec.ID)
		c.pin(r, rec.Ack)
		r.flags |= recSeen
		if !guardDelivered || !r.is(recDelivered) {
			c.addMsg(r)
		}
	case WALBroadcast:
		r := c.record(rec.ID)
		r.flags |= recSeen
		if !guardDelivered || !r.is(recDelivered) {
			c.addMsg(r)
		}
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrWALRecord, rec.Kind)
	}
	if rec.Draws > c.tags.Draws() {
		// Replay cannot rewind (records arrive in append order), so this
		// can only fast-forward past tags the predecessor already drew —
		// and each logged event drew exactly one, so a larger jump is a
		// corrupt record, not a gap to honour.
		if rec.Draws > c.tags.Draws()+1 {
			return fmt.Errorf("%w: draw counter %d jumps past stream position %d",
				ErrWALRecord, rec.Draws, c.tags.Draws())
		}
		_ = c.tags.SkipTo(rec.Draws)
	}
	return nil
}

// --- Majority -------------------------------------------------------------

// Snapshot implements Snapshotter.
func (p *Majority) Snapshot() []byte {
	var w stateWriter
	w.u8(snapVersion)
	w.u8(snapKindMajority)
	w.u32(uint32(p.n))
	w.u32(uint32(p.threshold))
	p.encodeCommon(&w)
	w.u32(uint32(len(p.acked)))
	for _, r := range p.acked {
		w.msgID(r.id)
		w.tags(r.tally.Slice())
	}
	w.u64(snapDigest(w.b, p.Fingerprint()))
	return w.b
}

// Restore implements Snapshotter.
func (p *Majority) Restore(data []byte) error {
	r := &stateReader{b: data}
	if v := r.u8(); r.err == nil && v != snapVersion {
		return ErrSnapshotVersion
	}
	if k := r.u8(); r.err == nil && k != snapKindMajority {
		return ErrSnapshotKind
	}
	n := int(r.u32())
	threshold := int(r.u32())
	if r.err == nil && (n != p.n || threshold != p.threshold) {
		return fmt.Errorf("%w: snapshot n=%d/threshold=%d, process has n=%d/threshold=%d",
			ErrSnapshotMismatch, n, threshold, p.n, p.threshold)
	}
	p.decodeCommon(r, p.cfg)
	cnt := r.count(20 + 4)
	if r.err != nil {
		return r.err
	}
	for i := 0; i < cnt; i++ {
		id := r.msgID()
		labels := r.tagList()
		if r.err != nil {
			return r.err
		}
		rec := p.record(id)
		if rec.tally != nil {
			return fmt.Errorf("%w: duplicate message in snapshot ACK section", ErrSnapshotMismatch)
		}
		rec.tally = ident.NewSet(labels...)
		p.noteAcked(rec)
	}
	digest := r.u64()
	if err := r.done(); err != nil {
		return err
	}
	if snapDigest(data[:len(data)-8], p.Fingerprint()) != digest {
		return ErrSnapshotCorrupt
	}
	return nil
}

// ApplyWAL implements Durable.
func (p *Majority) ApplyWAL(rec DurableEvent) error {
	// MSG_i never shrinks in Algorithm 1, so every record re-inserts: the
	// recovered process resumes retransmitting everything it knew.
	return p.applyCommonWAL(rec, false)
}

// Rejoin implements Durable. Algorithm 1's wire messages carry no
// stream sequencing, so a recovered instance needs no rebasing.
func (p *Majority) Rejoin() {}

// --- Quiescent ------------------------------------------------------------

// Snapshot implements Snapshotter. The version-2 form is compact
// (DESIGN.md §10): acker views reference a table of distinct label sets
// instead of each embedding its own copy, so persisting a quiescent
// steady state costs kilobytes where the version-1 label matrices cost
// one set per (message, acker). The table is the interned sets the views
// hold, each written once in label order.
func (p *Quiescent) Snapshot() []byte {
	var w stateWriter
	w.u8(snapVersion)
	w.u8(snapKindQuiescent)
	p.encodeCommon(&w)
	w.u64(uint64(p.retired))
	w.u64(p.ticks)
	w.u64(p.epochFloor)
	// First pass: assign set-table indices in deterministic first-use
	// order over the (first-ACK order, ackerOrder) walk.
	tableIdx := make(map[*setEntry]uint32)
	var tableSets []*setEntry
	refOf := func(e *setEntry) uint32 {
		if i, ok := tableIdx[e]; ok {
			return i
		}
		i := uint32(len(tableSets))
		tableIdx[e] = i
		tableSets = append(tableSets, e)
		return i
	}
	type viewRef struct {
		acker  ident.Tag
		epoch  uint64
		synced bool
		ref    uint32
	}
	views := make([][]viewRef, len(p.acked))
	for i, r := range p.acked {
		st := r.st
		vs := make([]viewRef, 0, len(st.ackerOrder))
		for _, acker := range st.ackerOrder {
			v := st.byAcker[acker]
			vs = append(vs, viewRef{acker: acker, epoch: v.epoch, synced: v.synced, ref: refOf(v.set)})
		}
		views[i] = vs
	}
	w.u32(uint32(len(tableSets)))
	for _, e := range tableSets {
		w.tags(e.labels)
	}
	w.u32(uint32(len(p.acked)))
	for i, r := range p.acked {
		w.msgID(r.id)
		st := r.st
		vs := views[i]
		w.u32(uint32(len(vs)))
		for _, v := range vs {
			w.tag(v.acker)
			w.u64(v.epoch)
			w.boolean(v.synced)
			w.u32(v.ref)
		}
		reqs := make([]ident.Tag, 0, len(st.reqTick))
		for acker := range st.reqTick {
			reqs = append(reqs, acker)
		}
		sort.Slice(reqs, func(i, j int) bool { return reqs[i].Less(reqs[j]) })
		w.u32(uint32(len(reqs)))
		for _, acker := range reqs {
			w.tag(acker)
			w.u64(st.reqTick[acker])
		}
	}
	ledger := p.sortedRecs(func(r *msgRec) bool { return r.ledger != nil })
	w.u32(uint32(len(ledger)))
	for _, r := range ledger {
		st := r.ledger
		w.msgID(r.id)
		w.u64(st.epoch)
		w.u64(st.reAckTick)
		w.u64(st.snapTick)
		w.tags(st.sent.Slice())
	}
	w.u64(snapDigest(w.b, p.Fingerprint()))
	return w.b
}

// Restore implements Snapshotter.
func (p *Quiescent) Restore(data []byte) error {
	r := &stateReader{b: data}
	if v := r.u8(); r.err == nil && v != snapVersion {
		return ErrSnapshotVersion
	}
	if k := r.u8(); r.err == nil && k != snapKindQuiescent {
		return ErrSnapshotKind
	}
	p.decodeCommon(r, p.cfg)
	retired := r.u64()
	ticks := r.u64()
	epochFloor := r.u64()
	// Set table: the distinct label sets the acker views reference.
	tableCnt := r.count(4)
	if r.err != nil {
		return r.err
	}
	// Each table set is interned once, its reference held by the table
	// until every view has taken its own.
	p.sets = setIntern{}
	table := make([]*setEntry, 0, tableCnt)
	for i := 0; i < tableCnt; i++ {
		labels := r.tagList()
		if r.err != nil {
			return r.err
		}
		table = append(table, p.sets.intern(sortLabels(labels)))
	}
	cnt := r.count(20 + 8)
	if r.err != nil {
		return r.err
	}
	p.dirty = p.dirty[:0]
	for i := 0; i < cnt; i++ {
		id := r.msgID()
		if r.err != nil {
			return r.err
		}
		rec := p.record(id)
		if rec.st != nil {
			return fmt.Errorf("%w: duplicate message in snapshot ACK section", ErrSnapshotMismatch)
		}
		st := p.ackStateFor(rec)
		ackers := r.count(16 + 8 + 1 + 4)
		for j := 0; j < ackers; j++ {
			acker := r.tag()
			epoch := r.u64()
			synced := r.boolean()
			ref := r.u32()
			if r.err != nil {
				return r.err
			}
			if int(ref) >= len(table) {
				return fmt.Errorf("%w: acker set ref %d beyond table of %d", ErrSnapshotMismatch, ref, len(table))
			}
			if _, dup := st.byAcker[acker]; dup {
				return fmt.Errorf("%w: duplicate acker in snapshot", ErrSnapshotMismatch)
			}
			e := table[ref]
			e.refs++
			for _, l := range e.labels {
				st.bump(l)
			}
			st.byAcker[acker] = &ackerView{set: e, epoch: epoch, synced: synced}
			st.ackerOrder = append(st.ackerOrder, acker)
		}
		reqs := r.count(16 + 8)
		for j := 0; j < reqs; j++ {
			acker := r.tag()
			tick := r.u64()
			if r.err != nil {
				return r.err
			}
			if st.reqTick == nil {
				st.reqTick = make(map[ident.Tag]uint64, reqs)
			}
			st.reqTick[acker] = tick
		}
		if r.err != nil {
			return r.err
		}
		// Everything is dirty after a restore: the first Tick must run a
		// full purge + retirement pass against whatever views the new
		// incarnation's detector reports.
		st.touch()
	}
	sendCnt := r.count(20 + 8*3 + 4)
	if r.err != nil {
		return r.err
	}
	for i := 0; i < sendCnt; i++ {
		id := r.msgID()
		st := &ackSendState{epoch: r.u64(), reAckTick: r.u64(), snapTick: r.u64()}
		st.sent = ident.NewSet(r.tagList()...)
		if r.err != nil {
			return r.err
		}
		p.record(id).ledger = st
	}
	digest := r.u64()
	if err := r.done(); err != nil {
		return err
	}
	for _, e := range table {
		p.sets.release(e)
	}
	p.retired = int(retired)
	p.ticks = ticks
	p.epochFloor = epochFloor
	p.viewsValid = false
	if snapDigest(data[:len(data)-8], p.Fingerprint()) != digest {
		return ErrSnapshotCorrupt
	}
	return nil
}

// Rejoin implements Durable: start a new delta-ACK incarnation. The
// ledger is dropped — its epochs may trail what the previous incarnation
// sent after the checkpoint — and the next ACK per message opens a fresh
// stream with a snapshot above the new floor, which receivers accept
// (or gap-detect and resync) regardless of where the lost window ended.
func (p *Quiescent) Rejoin() {
	inc := p.epochFloor >> 32
	for _, r := range p.recs {
		if r.ledger == nil {
			continue
		}
		if e := r.ledger.epoch >> 32; e > inc {
			inc = e
		}
		r.ledger = nil
	}
	p.epochFloor = (inc + 1) << 32
}

// ApplyWAL implements Durable.
func (p *Quiescent) ApplyWAL(rec DurableEvent) error {
	// A delivered message re-enters MSG_i on replay (the ACK evidence
	// since the checkpoint is lost, so the recovered process retransmits
	// until the retirement guard passes again — safe, and required for
	// uniform agreement); a pin or broadcast for an already-delivered
	// message respects the same guard live reception applies.
	err := p.applyCommonWAL(rec, rec.Kind != WALDeliver)
	if err == nil && rec.Kind == WALDeliver {
		// The replayed delivery makes the message retirement-eligible
		// exactly as a live delivery would.
		if st := p.recs[rec.ID].st; st != nil {
			st.touch()
		}
	}
	p.viewsValid = false
	return err
}

// --- HeartbeatHost --------------------------------------------------------

// Fingerprint digests the full heartbeat stack: the host's own state plus
// the wrapped algorithm's fingerprint. Canonical in the same sense as the
// algorithm fingerprints (snapshot round-trips preserve it).
func (h *HeartbeatHost) Fingerprint() string {
	var w fpWriter
	w.b.WriteString("heartbeat-host")
	w.section("label")
	w.b.WriteString(h.hb.Label().String())
	w.section("ticks")
	fmt.Fprintf(&w.b, "%d", h.tickCount)
	w.section("beats")
	fmt.Fprintf(&w.b, "%d", h.beatsSent)
	w.section("beatreqs")
	fmt.Fprintf(&w.b, "%d", h.beatReqsSent)
	w.section("beatstream")
	fmt.Fprintf(&w.b, "%d/%t", h.beatEpoch, h.beatSnapSent)
	// The receiver-side beat stream tables and the per-tick request
	// limiter are deliberately excluded: they are soft wire-level caches
	// (losing them costs one BEATREQ/snapshot exchange, which the
	// protocol self-heals), kept out of snapshots for the same reason.
	w.section("heard")
	heard := h.hb.Heard()
	keys := make([]string, len(heard))
	for i, e := range heard {
		keys[i] = fmt.Sprintf("%s@%d", e.Label, e.At)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			w.b.WriteByte(',')
		}
		w.b.WriteString(k)
	}
	w.section("inner")
	w.b.WriteString(h.inner.Fingerprint())
	return w.b.String()
}

// Snapshot implements Snapshotter: the host's heartbeat state wraps the
// inner algorithm's snapshot. Heartbeat timestamps are in the host
// clock's units; restarting with a clock that resumes from zero makes
// every heard label look stale until the next beat — exactly the
// conservative reading (a recovering process re-learns who is alive).
// The delta-beat receiver tables are deliberately absent: they are soft
// wire-level caches the BEATREQ path rebuilds (one exchange per
// stream), mirroring how the node's encode cache survives nothing.
func (h *HeartbeatHost) Snapshot() []byte {
	var w stateWriter
	w.u8(snapVersion)
	w.u8(snapKindHeartbeat)
	w.tag(h.hb.Label())
	w.u32(uint32(h.beatEvery))
	w.u64(uint64(h.hb.Timeout()))
	w.u64(uint64(h.tickCount))
	w.u64(h.beatsSent)
	w.u64(h.beatReqsSent)
	w.u32(h.beatEpoch)
	w.boolean(h.beatSnapSent)
	heard := h.hb.Heard()
	w.u32(uint32(len(heard)))
	for _, e := range heard {
		w.tag(e.Label)
		w.u64(uint64(e.At))
	}
	w.bytes(h.inner.Snapshot())
	w.u64(snapDigest(w.b, h.Fingerprint()))
	return w.b
}

// Restore implements Snapshotter. The host adopts the snapshot's
// failure-detector label: the label is the process's persistent anonymous
// identity towards the detector layer, and a restart that changed it
// would make peers treat the recovered process as a fresh arrival (and
// eventually declare the old label crashed).
func (h *HeartbeatHost) Restore(data []byte) error {
	r := &stateReader{b: data}
	if v := r.u8(); r.err == nil && v != snapVersion {
		return ErrSnapshotVersion
	}
	if k := r.u8(); r.err == nil && k != snapKindHeartbeat {
		return ErrSnapshotKind
	}
	label := r.tag()
	beatEvery := int(r.u32())
	timeout := int64(r.u64())
	tickCount := r.u64()
	beatsSent := r.u64()
	beatReqsSent := r.u64()
	beatEpoch := r.u32()
	beatSnapSent := r.boolean()
	n := r.count(16 + 8)
	if r.err != nil {
		return r.err
	}
	heard := make([]HeardLabel, 0, n)
	for i := 0; i < n; i++ {
		e := HeardLabel{Label: r.tag()}
		e.At = int64(r.u64())
		heard = append(heard, e)
	}
	inner := r.bytes()
	digest := r.u64()
	if err := r.done(); err != nil {
		return err
	}
	if label.Zero() {
		return fmt.Errorf("%w: zero heartbeat label", ErrSnapshotMismatch)
	}
	if beatEvery != h.beatEvery || timeout != h.hb.Timeout() {
		return fmt.Errorf("%w: snapshot beatEvery=%d/timeout=%d, host has %d/%d",
			ErrSnapshotMismatch, beatEvery, timeout, h.beatEvery, h.hb.Timeout())
	}
	if beatEpoch == 0 {
		return fmt.Errorf("%w: zero beat epoch", ErrSnapshotMismatch)
	}
	if err := h.inner.Restore(inner); err != nil {
		return err
	}
	h.hb.Relabel(label)
	h.hb.RestoreHeard(heard)
	h.tickCount = int(tickCount)
	h.beatsSent = beatsSent
	h.beatReqsSent = beatReqsSent
	h.beatEpoch = beatEpoch
	h.beatSnapSent = beatSnapSent
	h.streams = nil // soft receiver state: rebuilt via BEATREQ
	h.beatReqTick = nil
	h.beatSnapTick = 0
	if snapDigest(data[:len(data)-8], h.Fingerprint()) != digest {
		return ErrSnapshotCorrupt
	}
	return nil
}

// ApplyWAL implements Durable by replaying into the wrapped algorithm
// (the host's own state — beat counters, heard map — is checkpoint-only:
// losing beats between checkpoints costs at most one re-learned view).
func (h *HeartbeatHost) ApplyWAL(rec DurableEvent) error { return h.inner.ApplyWAL(rec) }

// Rejoin implements Durable (the detector label is deliberately NOT
// rebased: it is the process's persistent identity, and beats refresh
// peers' trust in it the moment the recovered host resumes ticking).
// The beat stream epoch IS rebased — its low 16 bits count announcement
// changes within an incarnation, and the bump puts the recovered stream
// above anything the lost post-checkpoint window can have sent (the
// delta-ACK incarnation rule of DESIGN.md §9 applied to beats) — and the
// next beat re-snapshots so receivers resynchronise without a BEATREQ.
func (h *HeartbeatHost) Rejoin() {
	h.rebaseBeatStream()
	h.inner.Rejoin()
}

// rebaseBeatStream starts a new beat-stream incarnation: the epoch bump
// shared by Rejoin (crash recovery) and Adopt (join).
func (h *HeartbeatHost) rebaseBeatStream() {
	if inc := h.beatEpoch >> 16; inc < 0xffff {
		h.beatEpoch = (inc+1)<<16 | 1
	} else {
		// Incarnation space exhausted (65,536 rejoins): saturate rather
		// than wrap — a wrapped epoch would regress below what receivers
		// hold and their stale-beat path would resync forever. At the
		// ceiling the stream stops rebasing; receivers synced at max
		// accept equal-epoch refreshes, and any announcement change lost
		// in the final crash window heals through the ordinary
		// BEATREQ/snapshot path.
		h.beatEpoch = 1<<32 - 1
	}
	h.beatSnapSent = false
}

// HeardLabel aliases the detector-layer entry the host snapshot carries.
type HeardLabel = fd.HeardLabel

// --- WAL record codec -----------------------------------------------------

// EncodeWAL returns the canonical binary form of one write-ahead record.
func (r DurableEvent) EncodeWAL() []byte {
	var w stateWriter
	w.u8(walVersion)
	w.u8(uint8(r.Kind))
	w.msgID(r.ID)
	switch r.Kind {
	case WALDeliver:
		w.boolean(r.Fast)
	case WALPin:
		w.tag(r.Ack)
		w.u64(r.Draws)
	case WALBroadcast:
		w.u64(r.Draws)
	}
	return w.b
}

// DecodeWALRecord parses one write-ahead record, rejecting unknown
// versions and kinds, structural corruption and trailing bytes.
func DecodeWALRecord(b []byte) (DurableEvent, error) {
	r := &stateReader{b: b}
	if v := r.u8(); r.err == nil && v != walVersion {
		return DurableEvent{}, fmt.Errorf("%w: version %d", ErrWALRecord, v)
	}
	rec := DurableEvent{Kind: WALKind(r.u8())}
	rec.ID = r.msgID()
	switch rec.Kind {
	case WALDeliver:
		rec.Fast = r.boolean()
	case WALPin:
		rec.Ack = r.tag()
		rec.Draws = r.u64()
	case WALBroadcast:
		rec.Draws = r.u64()
	default:
		if r.err == nil {
			return DurableEvent{}, fmt.Errorf("%w: unknown kind %d", ErrWALRecord, rec.Kind)
		}
	}
	if r.err != nil {
		return DurableEvent{}, fmt.Errorf("%w: %v", ErrWALRecord, r.err)
	}
	if err := r.done(); err != nil {
		return DurableEvent{}, fmt.Errorf("%w: %v", ErrWALRecord, err)
	}
	if rec.ID.Tag.Zero() {
		return DurableEvent{}, fmt.Errorf("%w: zero message tag", ErrWALRecord)
	}
	if rec.Kind == WALPin && rec.Ack.Zero() {
		return DurableEvent{}, fmt.Errorf("%w: zero tag_ack on pin", ErrWALRecord)
	}
	return rec, nil
}

// --- snapshot inspection --------------------------------------------------

// SnapshotInfo summarises a decoded snapshot (cmd/urbcheck -snapshot).
type SnapshotInfo struct {
	// Kind names the process type the snapshot belongs to.
	Kind string
	// Version is the snapshot codec version.
	Version int
	// N and Threshold are the system parameters (Majority snapshots only).
	N, Threshold int
	// BeatEvery and Timeout are the host parameters (heartbeat-host
	// snapshots only).
	BeatEvery int
	Timeout   int64
	// Config is the paper-knob configuration the snapshot was taken under.
	Config Config
	// Stats are the restored process's state sizes.
	Stats Stats
	// Draws is the tag-stream position.
	Draws uint64
	// Incarnation is the delta-ACK incarnation the snapshot's streams
	// are based at (the epoch floor's high half; 0 for a process that
	// never recovered, and always 0 for Majority snapshots, whose ACKs
	// carry no sequencing). The join protocol's staleness gate compares
	// it against the joiner's own floor: a donor snapshot from an older
	// incarnation than state the joiner has already held is a replay of
	// superseded history, rejected before Restore (DESIGN.md §13).
	Incarnation uint64
	// Digest is the verified fingerprint digest.
	Digest uint64
}

// VerifySnapshot decodes a snapshot into a freshly constructed process of
// the right kind, recomputes the state fingerprint and checks it against
// the embedded digest. It is the full corruption check: structural
// validity plus semantic round-trip.
func VerifySnapshot(data []byte) (SnapshotInfo, error) {
	r := &stateReader{b: data}
	version := int(r.u8())
	kind := r.u8()
	if r.err != nil {
		return SnapshotInfo{}, ErrSnapshotShort
	}
	if version != snapVersion {
		return SnapshotInfo{Version: version}, ErrSnapshotVersion
	}
	info := SnapshotInfo{Version: version}
	var proc interface {
		Durable
		Fingerprinter
	}
	switch kind {
	case snapKindMajority:
		info.Kind = "majority"
		info.N = int(r.u32())
		info.Threshold = int(r.u32())
		info.Config = cfgFromFlags(r.u8())
		if r.err != nil {
			return info, r.err
		}
		if info.N < 1 || info.Threshold < 1 || info.Threshold > info.N {
			return info, fmt.Errorf("%w: invalid n=%d/threshold=%d", ErrSnapshotMismatch, info.N, info.Threshold)
		}
		proc = NewMajorityThreshold(info.N, info.Threshold, verifyTagSource(), info.Config)
	case snapKindQuiescent:
		info.Kind = "quiescent"
		info.Config = cfgFromFlags(r.u8())
		if r.err != nil {
			return info, r.err
		}
		proc = NewQuiescent(verifyDetector{}, verifyTagSource(), info.Config)
	case snapKindHeartbeat:
		info.Kind = "heartbeat-host"
		// Peek the host parameters and the inner quiescent config so the
		// constructed host passes the restore-time compatibility checks.
		// Layout: label(16) beatEvery(4) timeout(8) tick(8) beats(8)
		// beatReqs(8) beatEpoch(4) beatSnapSent(1)
		// heardCount(4) + heard entries(24 each) | innerLen(4) | inner...
		peek := &stateReader{b: r.b}
		peek.tag()
		beatEvery := int(peek.u32())
		timeout := int64(peek.u64())
		peek.u64()
		peek.u64()
		peek.u64()
		peek.u32()
		peek.u8()
		hn := peek.count(16 + 8)
		for i := 0; i < hn; i++ {
			peek.tag()
			peek.u64()
		}
		inner := peek.bytes()
		if peek.err != nil {
			return info, peek.err
		}
		if len(inner) < 3 {
			return info, ErrSnapshotShort
		}
		if inner[0] != snapVersion {
			return info, ErrSnapshotVersion
		}
		if inner[1] != snapKindQuiescent {
			return info, ErrSnapshotKind
		}
		if timeout <= 0 || beatEvery < 1 {
			return info, fmt.Errorf("%w: invalid beatEvery=%d/timeout=%d", ErrSnapshotMismatch, beatEvery, timeout)
		}
		info.BeatEvery, info.Timeout = beatEvery, timeout
		info.Config = cfgFromFlags(inner[2])
		proc = NewHeartbeatHost(verifyTagSource(), timeout, beatEvery, func() int64 { return 0 }, info.Config)
	default:
		return info, ErrSnapshotKind
	}
	if err := proc.Restore(data); err != nil {
		return info, err
	}
	info.Stats = proc.Stats()
	info.Digest = snapDigest(data[:len(data)-8], proc.Fingerprint())
	switch p := proc.(type) {
	case *Majority:
		info.Draws = p.tags.Draws()
	case *Quiescent:
		info.Draws = p.tags.Draws()
		info.Incarnation = p.epochFloor >> 32
	case *HeartbeatHost:
		info.Draws = p.inner.tags.Draws()
		info.Incarnation = p.inner.epochFloor >> 32
	}
	return info, nil
}

// verifyTagSource returns a throwaway stream for VerifySnapshot: the
// restored process only needs the stream position, not the original
// values (it will never run).
func verifyTagSource() *ident.Source {
	return ident.NewSource(xrand.New(1))
}

// verifyDetector is the inert Detector VerifySnapshot wires a restored
// Quiescent to; fingerprints never consult the detector.
type verifyDetector struct{}

func (verifyDetector) ATheta() fd.View { return nil }
func (verifyDetector) APStar() fd.View { return nil }
