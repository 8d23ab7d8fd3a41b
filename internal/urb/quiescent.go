package urb

import (
	"slices"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/obs"
	"anonurb/internal/wire"
)

// Quiescent is Algorithm 2: quiescent uniform reliable broadcast in
// AAS_F[n,t | AΘ, AP*] — any number of processes may crash, and
// eventually no process sends any message.
//
// Mechanics (Section VI): MSG dissemination and per-message pinned
// tag_acks work as in Algorithm 1, but each ACK additionally carries the
// label set the acker currently reads from its AΘ module:
//
//	(ACK, m, tag, tag_ack, labels)
//
// For every message the receiver maintains, per acker (tag_ack), the
// label set from that acker's latest ACK, and derives
//
//	claims[label] = number of distinct ackers whose latest ACK claims label.
//
// Delivery guard (paper line 46): m is URB-deliverable once some
// (label, number) pair in the local AΘ view satisfies
// claims[label] >= number. Safety: the ackers claiming label form a
// subset of S(label), and AΘ-accuracy guarantees any number-sized subset
// of S(label) contains a correct process — so a correct process has
// received m and will retransmit it forever (until retirement).
//
// Retirement guard (paper line 55): a delivered message is deleted from
// the retransmission set MSG_i once, for every (label, number) pair in
// the local AP* view, claims[label] >= number, and no acker still claims
// a label outside the AP* view. Post-GST the AP* view is exactly the
// correct processes' labels with number = |Correct|, and — because the
// failure detector only reveals a label to its owner and to correct
// processes — the claimants of a correct label are correct processes, so
// the guard certifies that every correct process has ACKed (hence
// received) m. Every correct process therefore delivers m on its own
// evidence, and retransmission can stop: the algorithm is quiescent.
//
// With Config.DeltaAcks the labels travel incrementally (deviation D5,
// DESIGN.md §8): the acker's set is sent once and then only its
// epoch-numbered differences, with gaps repaired by a resync
// request/response. The claim bookkeeping below is driven to the exact
// same states either way; reception of every wire form is always on.
//
// Deviations D1-D5 from the garbled published listing are documented in
// DESIGN.md §2/§8 and at the relevant code below.
//
// The per-message ACK bookkeeping (ackState) and the delta-ACK sender
// ledger (ackSendState, populated in delta mode: the label set and epoch
// of this process's last labeled ACK) hang off the message's record.
type Quiescent struct {
	common
	det     fd.Detector
	retired int
	// ticks counts Task-1 passes; the delta-ACK path's per-tick rate
	// limiters compare against it.
	ticks uint64
	// epochFloor is the delta-stream incarnation base (DESIGN.md §9):
	// every ledger entry opened after a crash-recovery Rejoin starts at
	// epochFloor+1, which dominates every epoch the process's previous
	// incarnation can have sent. Without it, a recovered acker would
	// re-open streams at epoch 1 and receivers still synced at the
	// (lost) higher pre-crash epochs would discard its ACKs as stale —
	// forever. 0 for a process that never recovered.
	epochFloor uint64
	// sets interns the label sets every acker view holds (D6, DESIGN.md
	// §10).
	sets setIntern
	// resync is the D9 per-tick ACKREQ budget (Config.PaceResyncs);
	// pacing state, excluded from snapshots and fingerprints.
	resync resyncBudget

	// The retirement index (DESIGN.md §10). Tick runs the D4 purge and
	// the retirement guard over every message only when the detector
	// views differ from lastTheta/lastStar, the views of the last full
	// pass; otherwise only over dirty, the records whose ACK state
	// changed since the last pass (ackState.touch queues them) — for
	// every other message both operations are provably no-ops. live and
	// starSet are the label sets of lastTheta ∪ lastStar and lastStar.
	// viewsValid false (the initial and post-restore value) forces a full
	// pass. Deliberately excluded from snapshots and fingerprints: like
	// the rate limiters it is derived pacing state, and the exclusion is
	// sound because skipped work is always a no-op (fingerprint-equal
	// states behave identically whether they skip or re-evaluate).
	dirty               []*msgRec
	lastTheta, lastStar fd.View
	live, starSet       *ident.Set
	viewsValid          bool
	// thetaView/thetaSet cache the label set of the AΘ view every ACK
	// carries, rebuilt only when the view changes. The set is shared by
	// ledger entries and outgoing frames, so it is never mutated.
	thetaView fd.View
	thetaSet  *ident.Set
}

// ackSendState is one message's entry in the acker-side delta ledger.
type ackSendState struct {
	// epoch numbers this acker's label-set versions for the message,
	// starting at 1 with the first labeled ACK.
	epoch uint64
	// sent is the label set as of epoch — what every in-sync receiver
	// holds for this (message, acker).
	sent *ident.Set
	// reAckTick-1 is the tick at which the last unchanged re-ACK was
	// sent (0 = never), the D5 rate limiter: at most one unchanged
	// re-ACK per message per tick, instead of one per MSG reception.
	reAckTick uint64
	// snapTick-1 is the tick of the last snapshot broadcast (0 = never).
	// Snapshots answer resync requests; since every send is a broadcast,
	// one snapshot per tick serves every requester at once.
	snapTick uint64
}

// ackerView is one acker's entry in the receiver-side bookkeeping: the
// label set from its latest applied ACK plus the delta-stream position.
type ackerView struct {
	// set is the interned label set (one reference held). It is
	// immutable: every change re-interns the successor set.
	set *setEntry
	// epoch is the last applied delta epoch (0 for legacy full-set ACKs,
	// which carry no epoch).
	epoch uint64
	// synced reports whether set is known to equal the acker's ledger at
	// epoch, i.e. whether the next delta may be folded in. Legacy
	// full-set ACKs leave it false (no epoch to sequence against); the
	// D4 purge clears it when it locally removes labels the acker still
	// claims remotely.
	synced bool
}

// ackState is the paper's ALL_ACK / all_labels / label_counter bundle for
// one message.
type ackState struct {
	// byAcker maps tag_ack → that acker's latest applied view
	// (the paper's all_labels[(m,tag), tag_ack]).
	byAcker map[ident.Tag]*ackerView
	// ackerOrder is the first-seen order of tag_acks.
	ackerOrder []ident.Tag
	// claims maps label → number of ackers currently claiming it
	// (the paper's label_counter[(m,tag), label]).
	claims map[ident.Tag]int
	// reqTick rate-limits resync requests: reqTick[acker]-1 is the tick
	// of the last request for that acker's stream (at most one per
	// (message, acker) per tick). An entry only constrains its own tick,
	// so the per-tick purge clears the whole map — nothing accumulates
	// across ticks (in particular not for ackers that crashed before
	// ever answering), and re-requesting next tick is exactly the
	// intended repair cadence. The snapshot that repairs a stream clears
	// its entry within the tick too.
	reqTick map[ident.Tag]uint64
	// dirty marks that the claim counters or acker membership changed
	// since Tick last evaluated this message (touch sets it on every
	// bump/drop, acker addition and label-set mutation, and on the
	// message's own delivery). Tick clears it after the purge +
	// retirement pass; while it stays clear under unchanged detector
	// views, both operations are no-ops and are skipped.
	dirty bool
	// rec is the message's record and queue the owning process's dirty
	// queue, which touch appends rec to.
	rec   *msgRec
	queue *[]*msgRec
}

func newAckState(rec *msgRec, queue *[]*msgRec) *ackState {
	return &ackState{
		byAcker: make(map[ident.Tag]*ackerView),
		claims:  make(map[ident.Tag]int),
		rec:     rec,
		queue:   queue,
	}
}

// touch marks the state dirty, queueing its record for the next Task-1
// pass on the clean→dirty transition.
func (a *ackState) touch() {
	if !a.dirty {
		a.dirty = true
		*a.queue = append(*a.queue, a.rec)
	}
}

// bump increments a label's claim count.
func (a *ackState) bump(label ident.Tag) {
	a.claims[label]++
	a.touch()
}

// drop decrements a label's claim count, deleting the entry at zero —
// a missing key reads as 0 everywhere, and keeping it would leak one
// map key per dead label forever (the same monotonic growth the D4
// acker drop exists to stop).
func (a *ackState) drop(label ident.Tag) {
	a.touch()
	switch c := a.claims[label]; {
	case c > 1:
		a.claims[label] = c - 1
	case c == 1:
		delete(a.claims, label)
	}
}

// setView moves v onto the interned successor set next (sorted and
// duplicate-free, possibly scratch space): labels next adds are counted
// up, labels it no longer claims are counted down. An unchanged set keeps
// its entry and touches nothing.
func (a *ackState) setView(in *setIntern, v *ackerView, next []ident.Tag) {
	cur := v.set.labels
	changed := false
	for i, j := 0, 0; i < len(cur) || j < len(next); {
		switch {
		case j == len(next) || i < len(cur) && cur[i].Less(next[j]):
			a.drop(cur[i])
			i++
			changed = true
		case i == len(cur) || next[j].Less(cur[i]):
			a.bump(next[j])
			j++
			changed = true
		default:
			i++
			j++
		}
	}
	if changed {
		in.release(v.set)
		v.set = in.intern(next)
	}
}

// replace applies a complete label set from one acker with *replacement*
// semantics (deviation D1): labels newly claimed are counted up, labels
// no longer claimed are counted down. This realises the paper's cases
// "repeated ACK with more labels" (lines 34-37) and "repeated ACK with
// fewer labels" (lines 38-44) in one well-defined rule. epoch/synced
// record the delta-stream position the set corresponds to (0/false for
// legacy full-set ACKs). Returns true if the acker is new.
func (a *ackState) replace(in *setIntern, acker ident.Tag, labels []ident.Tag, epoch uint64, synced bool) bool {
	in.buf = sortLabels(append(in.buf[:0], labels...))
	v, known := a.byAcker[acker]
	if known {
		a.setView(in, v, in.buf)
	} else {
		for _, l := range in.buf {
			a.bump(l)
		}
		v = &ackerView{set: in.intern(in.buf)}
		a.byAcker[acker] = v
		a.ackerOrder = append(a.ackerOrder, acker)
		a.touch() // membership changed even if the set is empty
	}
	v.epoch = epoch
	v.synced = synced
	return !known
}

// applyDelta folds one delta into an in-sync acker view: removals first,
// then additions (so a label adversarially present in both lists ends up
// claimed — a deterministic rule; canonical senders keep the lists
// disjoint). Folding (+A, −R) into a view equal to the acker's set at
// epoch−1 yields exactly the acker's set at epoch, so every bump/drop
// here is one the full-set replace would also have performed: the two
// paths are state-for-state equivalent.
func (a *ackState) applyDelta(in *setIntern, v *ackerView, epoch uint64, adds, dels []ident.Tag) {
	next := in.buf[:0]
	for _, l := range v.set.labels {
		if !tagIn(dels, l) {
			next = append(next, l)
		}
	}
	in.buf = sortLabels(append(next, adds...))
	a.setView(in, v, in.buf)
	v.epoch = epoch
}

// purge removes every claimed label absent from live, the label set of
// the current views (deviation D4: stale labels of crashed processes
// frozen inside ACKs from ackers that will never refresh — e.g. the
// crashed process's own ACK — would otherwise block the retirement guard
// forever). Safe because AP* perpetually contains every correct
// process's label, so a label absent from both current views can only
// belong to a crashed process.
//
// Ackers whose label set the purge empties are dropped entirely: an
// empty set contributes nothing to any claim count, passes every
// subset check, and would never be refreshed (its owner is crashed) —
// keeping the entry would only grow byAcker/ackerOrder monotonically
// and tax every retireReady scan with dead ackers forever. If the
// acker was wrongly suspected and re-ACKs later, the algorithm
// re-admits it as a fresh acker with identical claim accounting.
//
// A purge that removes labels from a surviving view also clears its
// synced bit: the local copy no longer matches the acker's ledger, so
// subsequent deltas cannot be folded in — the next one triggers a
// resync, and the acker's snapshot restores any label the purge removed
// wrongly (a label that returns to the views pre-GST). Without this,
// the delta path could lose a wrongly-purged label forever, because a
// delta sender — unlike the paper's full-set re-ACKs — never resends
// labels it believes the receiver already has.
func (a *ackState) purge(in *setIntern, live *ident.Set) {
	// Last tick's resync-request limiters are spent; dropping the map
	// wholesale is what keeps it from accumulating entries for ackers
	// that never got admitted (e.g. crashed before their snapshot).
	a.reqTick = nil
	kept := a.ackerOrder[:0]
	for _, acker := range a.ackerOrder {
		v := a.byAcker[acker]
		next := in.buf[:0]
		for _, l := range v.set.labels {
			if live.Has(l) {
				next = append(next, l)
			}
		}
		in.buf = next
		if len(next) == 0 {
			for _, l := range v.set.labels {
				a.drop(l)
			}
			in.release(v.set)
			delete(a.byAcker, acker)
			continue
		}
		if len(next) < len(v.set.labels) {
			a.setView(in, v, next)
			v.synced = false
		}
		kept = append(kept, acker)
	}
	a.ackerOrder = kept
}

// ackers returns the number of distinct tag_acks seen.
func (a *ackState) ackers() int { return len(a.ackerOrder) }

var _ Process = (*Quiescent)(nil)

// NewQuiescent builds an Algorithm 2 process. Unlike Algorithm 1 it does
// not need to know n: the failure detector's numbers replace the majority
// threshold. tags must be a per-process stream; det is the process's
// failure detector handle (AΘ and AP* views).
func NewQuiescent(det fd.Detector, tags *ident.Source, cfg Config) *Quiescent {
	return &Quiescent{
		common: newCommon(cfg, tags),
		det:    det,
	}
}

// Receive dispatches on kind (lines 7-51).
//
//urb:hotpath
func (p *Quiescent) Receive(m wire.Message) Step {
	//urbvet:partial beat-family kinds are host traffic, consumed by HeartbeatHost before the algorithm
	switch m.Kind {
	case wire.KindMsg:
		return p.receiveMsg(m)
	case wire.KindAck:
		return p.receiveAck(m)
	case wire.KindAckDelta:
		return p.receiveAckDelta(m)
	case wire.KindAckReq:
		return p.receiveAckResync(m)
	default:
		return Step{}
	}
}

// receiveMsg handles (MSG, m, tag) (lines 7-21).
func (p *Quiescent) receiveMsg(m wire.Message) Step {
	var out Step
	r := p.seeMsg(&out, m) // line 17: the tag_ack is pinned forever after
	// Lines 8-12: (re-)insert into MSG_i only if not yet delivered; this
	// is what keeps a retired message retired when late MSG copies
	// straggle in.
	if !r.is(recInMSG|recDelivered) && p.addMsg(r) && p.cfg.EagerFirstSend {
		p.send(&out, wire.NewMsg(r.id))
	}
	// Lines 13-20: every (re-)ACK carries the *current* AΘ label view, so
	// receivers can refresh their per-acker label sets. In delta mode the
	// view travels incrementally instead (D5).
	labels := p.thetaLabels()
	if !p.cfg.DeltaAcks {
		p.send(&out, wire.NewLabeledAck(r.id, r.mine, labels.Slice()))
		return out
	}
	p.sendDeltaAck(&out, r, labels)
	return out
}

// thetaLabels returns the label set of the current AΘ view. The set is
// cached until the view changes and shared by every caller, so it must
// never be mutated.
func (p *Quiescent) thetaLabels() *ident.Set {
	theta := p.det.ATheta()
	if p.thetaSet == nil || !theta.Equal(p.thetaView) {
		p.thetaView = append(p.thetaView[:0], theta...)
		p.thetaSet = theta.Labels()
	}
	return p.thetaSet
}

// sendDeltaAck emits the D5 incremental form of the line 13-20 ACK:
// a snapshot the first time, a (+adds, −dels) delta when the AΘ label
// view changed since the last ACK for r, and an empty re-ACK — at most
// one per tick — when it did not. labels is the shared, immutable set
// from thetaLabels.
func (p *Quiescent) sendDeltaAck(out *Step, r *msgRec, labels *ident.Set) {
	st := r.ledger
	if st == nil {
		st = &ackSendState{epoch: p.epochFloor + 1, sent: labels, snapTick: p.ticks + 1, reAckTick: p.ticks + 1}
		r.ledger = st
		p.send(out, wire.NewAckSnapshot(r.id, r.mine, st.epoch, labels.Slice()))
		return
	}
	if labels != st.sent && !labels.Equal(st.sent) {
		var adds, dels []ident.Tag
		for _, l := range labels.Slice() {
			if !st.sent.Has(l) {
				adds = append(adds, l)
			}
		}
		for _, l := range st.sent.Slice() {
			if !labels.Has(l) {
				dels = append(dels, l)
			}
		}
		st.epoch++
		st.sent = labels
		st.reAckTick = p.ticks + 1
		p.send(out, wire.NewAckDelta(r.id, r.mine, st.epoch, adds, dels))
		return
	}
	// Unchanged set: re-ACK at most once per tick (D5 rate limit). The
	// re-ACK still matters — it carries the payload for fast delivery
	// and lets receivers that never saw this acker detect the stream
	// and request a resync — but once per tick is as often as Task-1
	// retransmission can need it.
	if st.reAckTick == p.ticks+1 {
		return
	}
	st.reAckTick = p.ticks + 1
	p.send(out, wire.NewAckDelta(r.id, r.mine, st.epoch, nil, nil))
}

// receiveAck handles the full-set form (ACK, m, tag, tag_ack, labels)
// (lines 22-51). The set replaces the acker's view wholesale; it carries
// no epoch, so the view is left unsynced and a subsequent delta from the
// same acker resynchronises via snapshot first.
func (p *Quiescent) receiveAck(m wire.Message) Step {
	var out Step
	id := m.ID()
	if p.tr != nil {
		p.tr.Recv(id, wire.KindAck)
	}
	r := p.record(id)
	st := p.ackStateFor(r)
	st.replace(&p.sets, m.AckTag, m.Labels, 0, false) // lines 27-45 (D1)
	p.checkDeliver(&out, r)                           // lines 46-51
	return out
}

// receiveAckDelta handles the incremental form (D5). Snapshots replace;
// in-sequence deltas fold into the claim counters; anything else — an
// epoch gap, an unknown or unsynced acker — leaves the claims untouched
// and asks the acker for a snapshot (rate-limited per (message, acker)
// per tick).
func (p *Quiescent) receiveAckDelta(m wire.Message) Step {
	var out Step
	id := m.ID()
	if p.tr != nil {
		p.tr.Recv(id, wire.KindAckDelta)
	}
	r := p.record(id)
	// Delivered-message fast path: the steady state of a quiescent
	// cluster is delivered messages absorbing unchanged re-ACKs (empty
	// deltas at the acker's current epoch) once per tick until
	// retirement. For those nothing below can change — the delta is
	// stale-or-duplicate for the view and the delivery guard is already
	// satisfied — so return before touching the claim machinery.
	if r.is(recDelivered) && r.st != nil && m.Flags == 0 && len(m.Labels) == 0 && len(m.DelLabels) == 0 {
		if v := r.st.byAcker[m.AckTag]; v != nil && v.synced && m.Epoch <= v.epoch {
			return out
		}
	}
	st := p.ackStateFor(r)
	v := st.byAcker[m.AckTag]
	if m.Flags&wire.AckFlagSnapshot != 0 {
		// A snapshot is authoritative for its epoch: apply unless we
		// provably hold that epoch or a later one.
		if v == nil || !v.synced || m.Epoch > v.epoch {
			st.replace(&p.sets, m.AckTag, m.Labels, m.Epoch, true)
			delete(st.reqTick, m.AckTag)
		}
	} else {
		// An epoch only ever advances together with a set change, so a
		// change-delta always carries at least one label; an *empty*
		// delta is the unchanged re-ACK, stamped with the sender's
		// current epoch. An empty delta ahead of our epoch therefore
		// proves we missed the change-delta that advanced it — folding
		// it would mark us synced at an epoch whose change we never
		// applied, silently diverging forever. Only non-empty deltas may
		// advance the stream.
		change := len(m.Labels) > 0 || len(m.DelLabels) > 0
		switch {
		case v != nil && v.synced && m.Epoch == v.epoch+1 && change:
			st.applyDelta(&p.sets, v, m.Epoch, m.Labels, m.DelLabels)
		case v != nil && v.synced && m.Epoch <= v.epoch:
			// Stale or duplicated delta: already reflected, ignore.
		default:
			// Gap, unknown acker, or a view the purge desynced: the delta
			// cannot be folded safely. Ask for a snapshot — within the
			// per-tick resync budget (D9): a denied request leaves no
			// trace, so the stream simply asks again next tick.
			if st.reqTick[m.AckTag] != p.ticks+1 &&
				p.resync.take(p.cfg.resyncLimit(), p.ticks+1) {
				if st.reqTick == nil {
					st.reqTick = make(map[ident.Tag]uint64)
				}
				st.reqTick[m.AckTag] = p.ticks + 1
				p.send(&out, wire.NewAckResync(id, m.AckTag))
			}
		}
	}
	// Line 46 runs on *every* ACK reception, not only on ones that
	// changed the claims: the guard reads the live AΘ view, so a stale
	// or empty re-ACK can still enable a delivery the view's numbers
	// dropping has unblocked — exactly as the full-set path re-checks on
	// every re-ACK.
	p.checkDeliver(&out, r)
	return out
}

// receiveAckResync answers a resync request addressed to this process's
// tag_ack for the message: broadcast a snapshot of the current ledger
// (refreshing it against the live AΘ view first), at most once per
// message per tick — every send is a broadcast, so one snapshot serves
// all requesters.
func (p *Quiescent) receiveAckResync(m wire.Message) Step {
	var out Step
	r := p.recs[m.ID()]
	if r == nil || !r.is(recPinned) || r.mine != m.AckTag {
		return out // someone else's stream (or a message we never ACKed)
	}
	st := r.ledger
	if st != nil && st.snapTick == p.ticks+1 {
		return out
	}
	if st == nil {
		// Our ACK for the message predates delta mode (or was sent by the
		// full-set path): open the ledger now with a fresh snapshot.
		st = &ackSendState{epoch: p.epochFloor + 1, sent: p.thetaLabels()}
		r.ledger = st
	} else if labels := p.thetaLabels(); labels != st.sent && !labels.Equal(st.sent) {
		st.epoch++
		st.sent = labels
	}
	st.snapTick = p.ticks + 1
	st.reAckTick = p.ticks + 1 // the snapshot doubles as this tick's re-ACK
	p.send(&out, wire.NewAckSnapshot(r.id, r.mine, st.epoch, st.sent.Slice()))
	return out
}

// ackStateFor returns (creating on demand) the per-message ACK
// bookkeeping (lines 23-26).
func (p *Quiescent) ackStateFor(r *msgRec) *ackState {
	if r.st == nil {
		r.st = newAckState(r, &p.dirty)
		p.noteAcked(r)
	}
	return r.st
}

// checkDeliver applies the delivery guard: ∃ (label, number) ∈ AΘ with
// claims[label] >= number (deviation D2: >= instead of =; see DESIGN.md).
func (p *Quiescent) checkDeliver(out *Step, r *msgRec) {
	st := r.st
	if st == nil || r.is(recDelivered) {
		return
	}
	theta := p.det.ATheta()
	for _, pair := range theta {
		if st.claims[pair.Label] >= pair.Number {
			p.deliverOnce(out, r)
			// Delivery makes the message retirement-eligible: the next
			// Tick must evaluate it even under unchanged views.
			st.touch()
			return
		}
	}
	if p.tr != nil && len(theta) > 0 {
		// Guard failed: trace the evidence on the pair closest to
		// passing (smallest claim deficit) — the accumulation curve the
		// timeline and the stall explainer read.
		best := theta[0]
		bestHave := st.claims[best.Label]
		for _, pair := range theta[1:] {
			have := st.claims[pair.Label]
			if pair.Number-have < best.Number-bestHave {
				best, bestHave = pair, have
			}
		}
		p.tr.AckProgress(r.id, best.Label, bestHave, best.Number)
	}
}

// retireReady evaluates the retirement guard (paper line 55, deviation
// D3) for one delivered message against the AP* view star, whose label
// set Tick cached in starSet.
func (p *Quiescent) retireReady(r *msgRec, star fd.View) bool {
	st := r.st
	if !r.is(recDelivered) || st == nil {
		return false // line 56
	}
	if len(star) == 0 {
		return false // no evidence about the correct set: never retire
	}
	// Every pair covered: claims[label] >= number.
	for _, pair := range star {
		if st.claims[pair.Label] < pair.Number {
			return false
		}
	}
	// No acker still claims a label outside the AP* view (the paper's
	// all_labels = {label | (label,-) ∈ a_p*} clause).
	for _, acker := range st.ackerOrder {
		for _, l := range st.byAcker[acker].set.labels {
			if !p.starSet.Has(l) {
				return false
			}
		}
	}
	return true
}

// observeViews records the views a full Task-1 pass runs against and
// rebuilds the label sets derived from them.
func (p *Quiescent) observeViews(theta, star fd.View) {
	p.lastTheta = append(p.lastTheta[:0], theta...)
	p.lastStar = append(p.lastStar[:0], star...)
	p.viewsValid = true
	p.live = theta.Labels()
	p.starSet = star.Labels()
	for _, pr := range star {
		p.live.Add(pr.Label)
	}
}

// Tick is one pass of Task 1 (lines 52-61): retransmit every message
// still in MSG_i, and retire those whose guard holds. Stale labels that
// can no longer appear in any current view are purged first (D4) so that
// frozen ACKs from crashed ackers cannot block retirement forever.
//
// The retirement index (DESIGN.md §10) bounds the pass: the D4 purge and
// the retirement guard are deterministic functions of a message's ACK
// state and the detector views, so when the views match the previous
// pass and a message's ACK state has not changed since (dirty unset),
// re-running them provably reproduces the previous outcome — a no-op
// purge and a false guard (had it been true, the message would already
// be retired). Under unchanged views Tick therefore touches only MSG_i
// and the dirty queue, never the whole history; MSG retransmission
// itself is never skipped, it is the protocol.
//
//urb:hotpath
func (p *Quiescent) Tick() Step {
	var out Step
	p.ticks++
	star := p.det.APStar()
	theta := p.det.ATheta()
	full := !p.viewsValid || !theta.Equal(p.lastTheta) || !star.Equal(p.lastStar)
	// The records to purge and re-check, in first-ACK order: everything
	// on a view change, else the dirty queue (which the loops below then
	// cannot grow: they only touch records already queued).
	work := p.acked
	if full {
		p.observeViews(theta, star)
	} else {
		slices.SortFunc(p.dirty, byOrd)
		work = p.dirty
	}
	for _, r := range work {
		r.st.purge(&p.sets, p.live)
	}
	if p.cfg.CheckOnTick {
		for _, r := range work {
			p.checkDeliver(&out, r)
		}
	}
	if len(p.msgs) > 0 {
		// Nothing above sends: the pass's broadcasts are its MSG copies.
		out.Broadcasts = make([]wire.Message, 0, len(p.msgs))
	}
	kept := p.msgs[:0]
	for _, r := range p.msgs {
		ready := false
		if r.is(recDelivered) && (full || r.st != nil && r.st.dirty) {
			ready = p.retireReady(r, star)
		}
		// The guard's outcome cannot change between the two retirement
		// sites of one pass (line 54 sends mutate nothing it reads), so
		// one evaluation serves both.
		if !ready || !p.cfg.RetireBeforeSend {
			p.send(&out, wire.NewMsgShared(r.id.Tag, r.body)) // line 54
		}
		if !ready {
			kept = append(kept, r)
			continue
		}
		r.flags &^= recInMSG // lines 55-58
		r.body = nil
		p.retired++
		if p.tr != nil {
			p.tr.Retire(r.id)
		}
	}
	clear(p.msgs[len(kept):])
	p.msgs = kept
	for _, r := range p.dirty {
		r.st.dirty = false
	}
	clear(p.dirty)
	p.dirty = p.dirty[:0]
	return out
}

// byOrd orders records by first-ACK ordinal.
func byOrd(a, b *msgRec) int { return a.ord - b.ord }

// Stats implements Process.
func (p *Quiescent) Stats() Stats {
	entries, logical := 0, 0
	for _, r := range p.acked {
		entries += r.st.ackers()
		for _, v := range r.st.byAcker {
			logical += len(v.set.labels)
		}
	}
	return Stats{
		MsgSet:          len(p.msgs),
		MyAcks:          p.pinned,
		AckEntries:      entries,
		Delivered:       p.delivered,
		Retired:         p.retired,
		WireSent:        p.wireSent,
		AckLabels:       logical,
		AckLabelStorage: p.sets.storage(),
	}
}

// ackState returns id's ACK bookkeeping, nil if none.
func (p *Quiescent) ackState(id wire.MsgID) *ackState {
	if r := p.recs[id]; r != nil {
		return r.st
	}
	return nil
}

// Claims reports the current claim count for (id, label) — test hook.
func (p *Quiescent) Claims(id wire.MsgID, label ident.Tag) int {
	if st := p.ackState(id); st != nil {
		return st.claims[label]
	}
	return 0
}

// Ackers reports how many distinct tag_acks have been seen for id.
func (p *Quiescent) Ackers(id wire.MsgID) int {
	if st := p.ackState(id); st != nil {
		return st.ackers()
	}
	return 0
}

// RetiredCount reports how many messages have been retired.
func (p *Quiescent) RetiredCount() int { return p.retired }

// Explain is the stall explainer (DESIGN.md §14): it evaluates the live
// delivery guard (∃ AΘ pair with enough claims) and retirement guard
// (every AP* pair covered, no stray acker labels) for id and reports
// per-pair shortfalls, pending ACKREQ resyncs and unsynced delta
// streams — exactly the evidence still missing. Call it on the
// goroutine hosting the process.
func (p *Quiescent) Explain(id wire.MsgID) obs.Explanation {
	r := p.recs[id]
	if r == nil {
		r = &msgRec{id: id} // never heard of: no bits, no evidence
	}
	st := r.st
	ex := obs.Explanation{
		ID:        id,
		Algo:      "quiescent",
		Delivered: r.is(recDelivered),
	}
	ex.Known = st != nil || r.is(recInMSG|recSeen|recDelivered)
	// Retired: delivered and no longer retransmitted. A fast-delivered
	// message whose MSG copy never arrived is also absent from MSG_i, so
	// require the copy to have been seen before calling it retired.
	ex.Retired = ex.Delivered && !r.is(recInMSG) && r.is(recSeen)
	for _, pair := range p.det.ATheta() {
		have := 0
		if st != nil {
			have = st.claims[pair.Label]
		}
		ex.Gaps = append(ex.Gaps, obs.EvidenceGap{Label: pair.Label, Have: have, Need: pair.Number})
	}
	if st != nil {
		ex.Ackers = st.ackers()
		for _, tick := range st.reqTick {
			if tick == p.ticks+1 {
				ex.PendingResync++
			}
		}
		for _, acker := range st.ackerOrder {
			if !st.byAcker[acker].synced {
				ex.UnsyncedAckers++
			}
		}
	}
	if ex.Delivered && !ex.Retired {
		star := p.det.APStar()
		for _, pair := range star {
			have := 0
			if st != nil {
				have = st.claims[pair.Label]
			}
			ex.RetireGaps = append(ex.RetireGaps, obs.EvidenceGap{Label: pair.Label, Have: have, Need: pair.Number})
		}
		if st != nil && len(star) > 0 {
			starLabels := star.Labels()
			for _, acker := range st.ackerOrder {
				for _, l := range st.byAcker[acker].set.labels {
					if !starLabels.Has(l) && !tagIn(ex.StrayLabels, l) {
						ex.StrayLabels = append(ex.StrayLabels, l)
					}
				}
			}
		}
	}
	return ex
}
