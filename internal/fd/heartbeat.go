package fd

import (
	"math"
	"sort"

	"anonurb/internal/ident"
)

// Heartbeat is a message-exchange realisation of AΘ and AP* for runs that
// are synchronous enough, mirroring how Θ and P are realised in
// non-anonymous systems. It shows the oracle classes are implementable —
// the axioms are not free lunch, they encode a synchrony assumption.
//
// Protocol: every process draws one permanent random label and
// periodically broadcasts ALIVE(label). Each process tracks, per label,
// the time it last heard it. A label is trusted while it was heard within
// Timeout; the output views are
//
//	{(label, number) : label trusted}, number = |trusted labels|,
//
// with the process's own label always trusted. Under the assumptions
// below, after every crashed process's last heartbeat has expired and
// every correct process's heartbeats flow within the timeout, the views
// are exactly the correct labels with number = |Correct| — the post-GST
// shape of the grounded oracle — and the class axioms hold:
//
//   - Crash detection (AP*-accuracy): a crashed process stops beating, so
//     its label expires everywhere, permanently.
//   - Completeness: correct processes beat forever, so their labels stay
//     trusted with the right count.
//   - Perpetual AΘ-accuracy and the audience invariant hold because a
//     heartbeat reveals a label precisely to the processes that receive
//     it: processes that have crashed stop refreshing S(label), and —
//     KEY ASSUMPTION — timeouts never fire for live correct processes
//     (synchrony), so `number` never under-counts the correct knowers.
//
// On a truly asynchronous network the timeout can lie; Heartbeat is then
// NOT a legal AΘ/AP* (accuracy breaks), which is exactly why the paper
// posits the detectors axiomatically instead of building them. The
// simulator experiments therefore use the grounded oracle; Heartbeat
// exists for the live runtime and for the synchrony ablation test.
//
// Heartbeat is not safe for concurrent use; the hosting runtime
// serialises calls as it does for urb.Process.
//
// The view is a pure function of the clock and the heard map, and it is
// cached (DESIGN.md §6): ATheta and APStar return the same read-only
// slice until the clock reaches the earliest trusted label's expiry
// (lastHeard + timeout + 1) or reads below the time the cache was built,
// or until a Hear of an unknown or expired label, Relabel or
// RestoreHeard — the only events that can change the view.
type Heartbeat struct {
	label   ident.Tag
	timeout int64
	clock   func() int64
	// lastHeard[label] = last time the label was heard; the own label is
	// implicitly always fresh.
	lastHeard map[ident.Tag]int64
	order     []ident.Tag
	// cache is the view built at clock reading cacheAt, valid for
	// readings in [cacheAt, cacheUntil); cacheUntil <= cacheAt (the zero
	// value included) means no valid cache.
	cache               View
	cacheAt, cacheUntil int64
}

// NewHeartbeat builds a heartbeat detector with the given permanent
// label, trust timeout and clock.
func NewHeartbeat(label ident.Tag, timeout int64, clock func() int64) *Heartbeat {
	if timeout <= 0 {
		panic("fd: heartbeat timeout must be positive")
	}
	return &Heartbeat{
		label:     label,
		timeout:   timeout,
		clock:     clock,
		lastHeard: make(map[ident.Tag]int64),
	}
}

// Label returns the detector's own label (to be broadcast in ALIVE
// messages by the hosting runtime).
func (h *Heartbeat) Label() ident.Tag { return h.label }

// Timeout returns the trust timeout the detector was built with
// (snapshot-compatibility checks need it).
func (h *Heartbeat) Timeout() int64 { return h.timeout }

// Relabel replaces the detector's own label. It exists for crash
// recovery: the label is the process's persistent anonymous identity
// towards its peers, so a process restored from a snapshot must adopt
// the label it beat under before the crash rather than the fresh one its
// reconstruction drew.
func (h *Heartbeat) Relabel(label ident.Tag) {
	h.label = label
	h.invalidate()
}

// HeardLabel is one entry of the detector's heard map: a label and the
// clock time it was last heard (snapshot support for crash-recovery
// hosts).
type HeardLabel struct {
	Label ident.Tag
	At    int64
}

// Heard returns every label ever heard, in first-heard order, with its
// last-heard time.
func (h *Heartbeat) Heard() []HeardLabel {
	out := make([]HeardLabel, 0, len(h.order))
	for _, l := range h.order {
		out = append(out, HeardLabel{Label: l, At: h.lastHeard[l]})
	}
	return out
}

// RestoreHeard replaces the heard map wholesale with the given entries
// (in first-heard order). Crash-recovery hosts use it to reload a
// snapshot; entries whose times predate the restarted clock's epoch
// simply read as expired, the conservative outcome.
func (h *Heartbeat) RestoreHeard(entries []HeardLabel) {
	h.invalidate()
	h.lastHeard = make(map[ident.Tag]int64, len(entries))
	h.order = h.order[:0]
	for _, e := range entries {
		if _, known := h.lastHeard[e.Label]; !known {
			h.order = append(h.order, e.Label)
		}
		h.lastHeard[e.Label] = e.At
	}
}

// Hear records an ALIVE(label) reception.
func (h *Heartbeat) Hear(label ident.Tag) {
	now := h.clock()
	prev, known := h.lastHeard[label]
	if !known {
		h.order = append(h.order, label)
	}
	// Refreshing a label that is trusted now, at a reading inside the
	// cache's window, only extends its trust: the cached view stands
	// (its expiry bound turns conservative). Anything else — an unknown
	// or expired label, or a clock that moved backwards — may change it.
	if !known || now < prev || now-prev > h.timeout || now < h.cacheAt || now >= h.cacheUntil {
		h.invalidate()
	}
	h.lastHeard[label] = now
}

func (h *Heartbeat) invalidate() { h.cacheUntil = h.cacheAt }

// view returns the cached view while the clock stays inside its window.
//
//urb:hotpath
func (h *Heartbeat) view() View {
	now := h.clock()
	if now >= h.cacheAt && now < h.cacheUntil {
		return h.cache
	}
	return h.rebuild(now)
}

// rebuild computes the view at clock reading now from scratch: every
// label heard within the timeout is trusted (the own label always),
// each paired with the trusted count, sorted for determinism. It caches
// the result until the earliest trusted label expires. Caching is
// skipped for negative clock readings or heard times, where the trust
// test could overflow and the expiry bound would not be exact.
func (h *Heartbeat) rebuild(now int64) View {
	until := int64(math.MaxInt64)
	cacheable := now >= 0
	ts := []ident.Tag{h.label}
	for _, l := range h.order {
		if l == h.label {
			continue
		}
		at := h.lastHeard[l]
		if at < 0 {
			cacheable = false
		}
		if now-at <= h.timeout {
			ts = append(ts, l)
			if at <= math.MaxInt64-h.timeout-1 && at+h.timeout+1 < until {
				until = at + h.timeout + 1
			}
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
	v := make(View, len(ts))
	for i, l := range ts {
		v[i] = Pair{Label: l, Number: len(ts)}
	}
	h.cache, h.cacheAt, h.cacheUntil = v, now, until
	if !cacheable {
		h.invalidate()
	}
	return v
}

// ATheta implements Detector. The view is shared and read-only.
func (h *Heartbeat) ATheta() View { return h.view() }

// APStar implements Detector. The view is shared and read-only.
func (h *Heartbeat) APStar() View { return h.view() }

var _ Detector = (*Heartbeat)(nil)
