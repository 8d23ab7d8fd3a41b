package urb

import (
	"fmt"

	"anonurb/internal/ident"
	"anonurb/internal/obs"
	"anonurb/internal/wire"
)

// Majority is Algorithm 1: uniform reliable broadcast in
// AAS_F[n,t | t < n/2] — anonymous processes, fair lossy channels, no
// failure detector, assuming a majority of correct processes.
//
// The idea (Section III): every process retransmits every message it
// knows forever (Task 1). On each reception of (MSG, m, tag) a process
// (re-)broadcasts an acknowledgement (ACK, m, tag, tag_ack) whose tag_ack
// is a random value drawn once per (m, tag) and then pinned in MY_ACK.
// Distinct tag_acks therefore count distinct processes without revealing
// identities, and a process URB-delivers m once it has collected a
// majority (> n/2) of distinct tag_acks for it: with t < n/2 at least one
// of those ackers is correct, and that correct process retransmits m
// forever, so every correct process eventually receives and delivers m.
//
// The algorithm is non-quiescent: MSG_i never shrinks and Task 1 never
// stops. Experiment F1 measures exactly that.
//
// The paper's ALL_ACK_i — for every message, the set of distinct
// tag_acks received — is each record's tally; common.acked remembers
// first-ACK order so iteration is deterministic.
type Majority struct {
	common
	n         int
	threshold int
}

var _ Process = (*Majority)(nil)

// NewMajority builds an Algorithm 1 process for a system of n processes.
// The process knows n (the paper's deliver guard "majority of (m,tag,−)"
// needs it) but has no identity. tags must be a per-process stream.
func NewMajority(n int, tags *ident.Source, cfg Config) *Majority {
	return NewMajorityThreshold(n, n/2+1, tags, cfg)
}

// NewMajorityThreshold builds an Algorithm 1 process whose delivery guard
// requires the given number of distinct tag_acks instead of the strict
// majority n/2+1.
//
// Lowering the threshold below the majority is UNSAFE — it is provided to
// reenact the Theorem 2 impossibility construction (experiment T2), where
// a hypothetical algorithm delivering on evidence from only ⌈n/2⌉
// processes violates uniform agreement when those processes all crash and
// the fair lossy channels lose their finitely many copies.
func NewMajorityThreshold(n, threshold int, tags *ident.Source, cfg Config) *Majority {
	if n < 1 {
		panic(fmt.Sprintf("urb: invalid system size %d", n))
	}
	if threshold < 1 || threshold > n {
		panic(fmt.Sprintf("urb: invalid threshold %d for n=%d", threshold, n))
	}
	return &Majority{
		common:    newCommon(cfg, tags),
		n:         n,
		threshold: threshold,
	}
}

// Receive dispatches on the message kind (lines 7-27).
//
//urb:hotpath
func (p *Majority) Receive(m wire.Message) Step {
	//urbvet:partial Algorithm 1 speaks MSG/ACK only; delta and beat kinds are other layers' traffic
	switch m.Kind {
	case wire.KindMsg:
		return p.receiveMsg(m)
	case wire.KindAck:
		return p.receiveAck(m)
	default:
		// Unknown kinds (e.g. failure detector heartbeats multiplexed on
		// the same mesh) are not for us; ignore.
		return Step{}
	}
}

// receiveMsg handles (MSG, m, tag) (lines 7-17).
func (p *Majority) receiveMsg(m wire.Message) Step {
	var out Step
	r := p.seeMsg(&out, m)
	if p.addMsg(r) && p.cfg.EagerFirstSend {
		// First time we learn of m from the network: start retransmitting
		// (Task 1 covers it; eager mode also forwards at once).
		p.send(&out, wire.NewMsg(r.id))
	}
	// Acknowledge every reception (lines 11-12 / 16): retransmissions of
	// the ACK are what overcome ACK loss on fair lossy channels.
	p.send(&out, wire.NewAck(r.id, r.mine))
	return out
}

// receiveAck handles (ACK, m, tag, tag_ack) (lines 18-27).
func (p *Majority) receiveAck(m wire.Message) Step {
	var out Step
	id := m.ID()
	r := p.record(id)
	if r.tally == nil {
		r.tally = ident.NewSet()
		p.noteAcked(r)
	}
	set := r.tally
	before := set.Len()
	set.Add(m.AckTag) // idempotent (lines 19-21)
	// ACK receptions are traced solely through their ACK_PROGRESS
	// evidence step, and only when the tag_ack is new: fair lossy
	// channels are overcome by retransmission, so per-frame ACK volume
	// is unbounded and duplicates carry no lifecycle information — a
	// per-frame emit here is what would break the 5% tracing budget
	// (`urbbench -obs`). MSG receptions keep their per-first-copy RECV.
	if p.tr != nil && set.Len() != before {
		p.tr.AckProgress(id, ident.Tag{}, set.Len(), p.threshold)
	}
	p.checkDeliver(&out, r)
	return out
}

// checkDeliver applies the guard of lines 22-26: a majority of distinct
// tag_acks — strictly more than n/2 (or the configured threshold for the
// impossibility reenactment).
func (p *Majority) checkDeliver(out *Step, r *msgRec) {
	if r.tally != nil && r.tally.Len() >= p.threshold {
		p.deliverOnce(out, r)
	}
}

// Tick is one pass of Task 1 (lines 28-32): retransmit every message in
// MSG_i. The set never shrinks, which is why Algorithm 1 is not
// quiescent.
func (p *Majority) Tick() Step {
	var out Step
	for _, r := range p.msgs {
		p.send(&out, wire.NewMsgShared(r.id.Tag, r.body))
	}
	if p.cfg.CheckOnTick {
		for _, r := range p.acked {
			p.checkDeliver(&out, r)
		}
	}
	return out
}

// Stats implements Process.
func (p *Majority) Stats() Stats {
	entries := 0
	for _, r := range p.acked {
		entries += r.tally.Len()
	}
	return Stats{
		MsgSet:     len(p.msgs),
		MyAcks:     p.pinned,
		AckEntries: entries,
		Delivered:  p.delivered,
		WireSent:   p.wireSent,
	}
}

// AckCount reports how many distinct tag_acks have been seen for id
// (test hook).
func (p *Majority) AckCount(id wire.MsgID) int {
	if r := p.recs[id]; r != nil && r.tally != nil {
		return r.tally.Len()
	}
	return 0
}

// Explain is the stall explainer (DESIGN.md §14): it reads the live
// delivery evidence for id and reports exactly what the majority guard
// is still missing. Call it on the goroutine hosting the process.
func (p *Majority) Explain(id wire.MsgID) obs.Explanation {
	ex := obs.Explanation{
		ID:        id,
		Algo:      "majority",
		Delivered: p.has(id, recDelivered),
		Need:      p.threshold,
	}
	r := p.recs[id]
	if r != nil && r.tally != nil {
		ex.Ackers = r.tally.Len()
	}
	ex.Known = ex.Ackers > 0 || r != nil && r.is(recInMSG|recSeen)
	return ex
}
