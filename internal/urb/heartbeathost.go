package urb

import (
	"slices"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/obs"
	"anonurb/internal/wire"
)

// HeartbeatHost runs Algorithm 2 over a MESSAGE-BASED failure detector
// instead of an oracle: it wraps a Quiescent process together with an
// fd.Heartbeat module, multiplexing ALIVE beats (wire.KindBeat) onto the
// same lossy mesh the algorithm uses.
//
// On every Tick the host emits one ALIVE(label) beat and forwards the
// tick to the wrapped algorithm; received beats feed the detector and
// everything else goes to the algorithm. This is the full stack of the
// paper's Section VI realised end-to-end with no oracle: detector and
// algorithm share one network.
//
// Caveat, inherited from fd.Heartbeat: the heartbeat detector is a legal
// AΘ/AP* only when the run is synchronous enough that a live correct
// process is never timed out. With a generous timeout relative to the
// link delays and loss rate this holds with overwhelming probability (and
// deterministically in the tests' seeds); under true asynchrony the
// oracle is the only sound choice — which is the point the paper makes by
// positing the classes axiomatically.
//
// A deliberate consequence of beating forever: a HeartbeatHost system is
// quiescent in the algorithm's traffic (MSG/ACK stop) but not in
// detector traffic — beats never stop, exactly like the heartbeat-based
// quiescence literature the paper builds on (Aguilera, Chen, Toueg). The
// Stats and the harness count the two kinds separately.
//
// With Config.DeltaBeats the never-stopping traffic shrinks (DESIGN.md
// §10): the host announces its label once in a snapshot BEATΔ and then
// beats 15-byte refreshes; receivers that miss the snapshot (or detect
// an epoch gap, or a ref collision) broadcast a BEATREQ the owner
// answers with a fresh snapshot — the detector-layer mirror of the D5
// delta-ACK discipline. Reception of every beat form is always on, so
// delta and legacy hosts interoperate.
type HeartbeatHost struct {
	inner *Quiescent
	hb    *fd.Heartbeat
	// born is the detector label drawn at construction: the host's own
	// identity, as opposed to the label a Restore may install (recovery
	// resumes the snapshot's identity; a join must not — see Adopt).
	born ident.Tag
	// beatEvery emits a beat every k-th Tick (k >= 1).
	beatEvery int
	tickCount int
	beatsSent uint64
	// beatReqsSent counts BEATREQ resync requests (detector repair
	// traffic, reported in Stats.WireSent but not in BeatsSent).
	beatReqsSent uint64

	// --- delta-beat sender state (Config.DeltaBeats) ------------------
	// beatEpoch versions the announced label set, starting at 1. The
	// low 16 bits count announcement changes within an incarnation, the
	// high bits are bumped by Rejoin so a recovered host's stream never
	// regresses below epochs its predecessor sent after the checkpoint.
	beatEpoch uint32
	// beatSnapSent records that the current announcement went out as a
	// snapshot at least once; refreshes suffice until it changes.
	beatSnapSent bool
	// beatSnapTick-1 is the tick of the last snapshot broadcast (0 =
	// never): one snapshot per tick serves every requester at once.
	beatSnapTick int

	// --- delta-beat receiver state (always on) ------------------------
	// streams maps a beat stream ref to what its snapshots taught us.
	// Soft wire-level state: losing it (e.g. across a crash-recovery
	// restart) costs one BEATREQ/snapshot exchange per stream, so it is
	// deliberately not part of snapshots or fingerprints.
	streams map[uint64]*beatStream
	// beatReqTick rate-limits BEATREQs per ref per tick; dropped
	// wholesale on Tick, like ackState.reqTick.
	beatReqTick map[uint64]int
	// resync is the D9 per-tick BEATREQ budget (Config.PaceResyncs),
	// independent of the inner algorithm's ACKREQ budget; pacing state
	// only, excluded from snapshots and fingerprints.
	resync resyncBudget
}

// beatStream is one sender's beat stream as a receiver tracks it.
type beatStream struct {
	// labels is the announced set the stream's latest applied snapshot
	// or change delta established; refreshes re-Hear exactly these.
	labels []ident.Tag
	// key is labels' canonical identity (collision detection).
	key string
	// epoch is the announcement version the labels correspond to.
	epoch uint32
	// ambiguous marks a ref two different streams collided on (same
	// epoch, different sets): the mapping can no longer attribute
	// refreshes, so liveness flows through snapshots only — which carry
	// full labels and therefore never mis-attribute.
	ambiguous bool
}

var _ Process = (*HeartbeatHost)(nil)

// NewHeartbeatHost builds the full heartbeat stack: a fresh label drawn
// from tags, an fd.Heartbeat with the given timeout, and a Quiescent
// process wired to it. beatEvery emits an ALIVE on every beatEvery-th
// tick (1 = every tick).
func NewHeartbeatHost(tags *ident.Source, timeout int64, beatEvery int, clock func() int64, cfg Config) *HeartbeatHost {
	if beatEvery < 1 {
		beatEvery = 1
	}
	label := tags.Next()
	hb := fd.NewHeartbeat(label, timeout, clock)
	return &HeartbeatHost{
		inner:     NewQuiescent(hb, tags, cfg),
		hb:        hb,
		born:      label,
		beatEvery: beatEvery,
		beatEpoch: 1,
	}
}

// Inner exposes the wrapped Algorithm 2 instance (test hook).
func (h *HeartbeatHost) Inner() *Quiescent { return h.inner }

// Detector exposes the heartbeat module (test hook).
func (h *HeartbeatHost) Detector() *fd.Heartbeat { return h.hb }

// BeatsSent reports how many ALIVE messages this host has emitted.
func (h *HeartbeatHost) BeatsSent() uint64 { return h.beatsSent }

// beatRef is the host's own beat stream reference.
func (h *HeartbeatHost) beatRef() uint64 { return wire.BeatRef(h.hb.Label()) }

// announced is the host's current announcement: its own detector label.
// (The wire format carries whole sets so richer detectors — e.g.
// recovery-aware ones vouching for restarted labels — can reuse it.)
func (h *HeartbeatHost) announced() []ident.Tag {
	return []ident.Tag{h.hb.Label()}
}

// Broadcast implements Process.
func (h *HeartbeatHost) Broadcast(body []byte) (wire.MsgID, Step) {
	return h.inner.Broadcast(body)
}

// Receive implements Process: beats feed the detector, the rest feeds
// the algorithm.
func (h *HeartbeatHost) Receive(m wire.Message) Step {
	//urbvet:partial non-beat kinds fall through to the wrapped algorithm's dispatch
	switch m.Kind {
	case wire.KindBeat:
		h.hb.Hear(m.Tag)
		return Step{}
	case wire.KindBeatDelta:
		return h.receiveBeatDelta(m)
	case wire.KindBeatReq:
		return h.receiveBeatReq(m)
	}
	return h.inner.Receive(m)
}

// receiveBeatDelta feeds one incremental beat into the detector.
//
// Attribution rule: a snapshot (or an applied change delta) names its
// labels explicitly, so Hear-ing them is always sound. A refresh names
// only the ref; its labels are Heard only while the local mapping is
// unambiguous and epoch-synchronised — otherwise the host asks for a
// snapshot instead of guessing, so a collided or stale mapping can delay
// liveness refreshes (repaired within a tick) but never mis-attribute
// them. That preserves the fd.Heartbeat accuracy argument untouched.
func (h *HeartbeatHost) receiveBeatDelta(m wire.Message) Step {
	var out Step
	st := h.streams[m.Ref]
	epoch := uint32(m.Epoch)
	switch {
	case m.Flags&wire.BeatFlagSnapshot != 0:
		for _, l := range m.Labels {
			h.hb.Hear(l)
		}
		key := beatSetKey(m.Labels)
		switch {
		case st == nil:
			if h.streams == nil {
				h.streams = make(map[uint64]*beatStream)
			}
			h.streams[m.Ref] = &beatStream{
				labels: append([]ident.Tag(nil), m.Labels...),
				key:    key, epoch: epoch,
			}
		case st.ambiguous:
			// Mapping stays unusable; the labels above were still Heard.
		case epoch > st.epoch:
			st.labels = append(st.labels[:0], m.Labels...)
			st.key = key
			st.epoch = epoch
		case epoch == st.epoch && key != st.key:
			// Two streams share this ref: same epoch, different sets.
			st.ambiguous = true
		}
	case m.Flags&wire.BeatFlagDelta != 0:
		switch {
		case st != nil && !st.ambiguous && epoch < st.epoch:
			// Our mapping is ahead of the frame: either a delayed
			// duplicate (harmless to re-request — the answer is
			// rate-limited) or a second stream colliding on this ref at a
			// lower epoch, whose liveness would starve if we stayed
			// silent. Ask for a snapshot; snapshots carry full labels and
			// therefore attribute soundly either way.
			h.beatResync(&out, m.Ref)
		case st != nil && !st.ambiguous && epoch == st.epoch+1:
			// In sequence: fold removals then additions, mirroring
			// ackState.applyDelta.
			next := make([]ident.Tag, 0, len(st.labels)+len(m.Labels))
			for _, l := range st.labels {
				if !tagIn(m.DelLabels, l) {
					next = append(next, l)
				}
			}
			for _, l := range m.Labels {
				if !tagIn(next, l) {
					next = append(next, l)
				}
			}
			st.labels = next
			st.key = beatSetKey(next)
			st.epoch = epoch
			for _, l := range st.labels {
				h.hb.Hear(l)
			}
		case st != nil && !st.ambiguous && epoch == st.epoch:
			// Duplicate of the delta that produced our state: ignore.
		default:
			h.beatResync(&out, m.Ref)
		}
	default: // refresh
		switch {
		case st != nil && !st.ambiguous && epoch == st.epoch:
			for _, l := range st.labels {
				h.hb.Hear(l)
			}
		default:
			// Unknown ref, ambiguous ref, epoch gap — or a refresh BEHIND
			// our mapping, which is either a delayed duplicate or a
			// second stream colliding on this ref at a lower epoch. The
			// latter would starve silently if ignored, so every
			// unattributable beat asks for a snapshot (rate-limited per
			// ref per tick; snapshots carry full labels and attribute
			// soundly whatever the cause).
			h.beatResync(&out, m.Ref)
		}
	}
	return out
}

// beatResync broadcasts a BEATREQ for ref, at most once per ref per
// tick.
func (h *HeartbeatHost) beatResync(out *Step, ref uint64) {
	if h.beatReqTick[ref] == h.tickCount+1 {
		return
	}
	// Per-tick BEATREQ budget (D9): a denied request leaves no trace —
	// the stream asks again next tick, the ordinary repair cadence.
	if !h.resync.take(h.inner.cfg.resyncLimit(), uint64(h.tickCount)+1) {
		return
	}
	if h.beatReqTick == nil {
		h.beatReqTick = make(map[uint64]int)
	}
	h.beatReqTick[ref] = h.tickCount + 1
	h.beatReqsSent++
	out.Broadcasts = append(out.Broadcasts, wire.NewBeatResync(ref))
}

// receiveBeatReq answers a resync request for this host's own beat
// stream with a snapshot, at most once per tick (every send is a
// broadcast, so one snapshot serves all requesters). Hosts beating in
// legacy mode never opened a stream and stay silent.
func (h *HeartbeatHost) receiveBeatReq(m wire.Message) Step {
	var out Step
	if !h.inner.cfg.DeltaBeats || m.Ref != h.beatRef() {
		return out
	}
	if h.beatSnapTick == h.tickCount+1 {
		return out
	}
	h.beatSnapTick = h.tickCount + 1
	h.beatSnapSent = true
	h.beatsSent++ // the answer is an ALIVE announcement like any beat
	out.Broadcasts = append(out.Broadcasts, wire.NewBeatSnapshot(h.beatRef(), h.beatEpoch, h.announced()))
	return out
}

// Tick implements Process: emit the periodic ALIVE, then run Task 1.
func (h *HeartbeatHost) Tick() Step {
	var out Step
	h.tickCount++
	h.beatReqTick = nil
	if h.tickCount%h.beatEvery == 0 {
		h.beatsSent++
		if !h.inner.cfg.DeltaBeats {
			out.Broadcasts = append(out.Broadcasts, wire.NewBeat(h.hb.Label()))
		} else if !h.beatSnapSent {
			h.beatSnapSent = true
			h.beatSnapTick = h.tickCount + 1
			out.Broadcasts = append(out.Broadcasts, wire.NewBeatSnapshot(h.beatRef(), h.beatEpoch, h.announced()))
		} else {
			out.Broadcasts = append(out.Broadcasts, wire.NewBeatRefresh(h.beatRef(), h.beatEpoch))
		}
	}
	out.Merge(h.inner.Tick())
	return out
}

// Stats implements Process. Beats are reported on top of the inner
// algorithm's wire count so the quiescence accounting can separate
// algorithm traffic from detector traffic.
func (h *HeartbeatHost) Stats() Stats {
	st := h.inner.Stats()
	st.WireSent += h.beatsSent + h.beatReqsSent
	return st
}

// HasDelivered reports whether id has been URB-delivered locally.
func (h *HeartbeatHost) HasDelivered(id wire.MsgID) bool { return h.inner.HasDelivered(id) }

// SetTracer installs the lifecycle tracer on the wrapped algorithm
// (obs.Traceable); detector beat traffic stays untraced — only the
// BEATREQ resync count surfaces, through Stats.
func (h *HeartbeatHost) SetTracer(t *obs.Tracer) { h.inner.SetTracer(t) }

// Explain forwards the stall explainer to the wrapped Algorithm 2
// instance (obs.Explainer).
func (h *HeartbeatHost) Explain(id wire.MsgID) obs.Explanation { return h.inner.Explain(id) }

// beatSetKey renders a label list's order-insensitive identity.
func beatSetKey(labels []ident.Tag) string {
	return string(appendSetKey(nil, sortLabels(slices.Clone(labels))))
}

// tagIn reports membership in a small slice (beat announcements hold a
// handful of labels at most; a map would cost more than it saves).
func tagIn(tags []ident.Tag, t ident.Tag) bool {
	for _, u := range tags {
		if u == t {
			return true
		}
	}
	return false
}
