package urb

import (
	"fmt"
	"sort"
	"strings"

	"anonurb/internal/ident"
)

// Fingerprinter is implemented by process types that can produce a
// canonical, behaviour-complete digest of their state: two instances with
// equal fingerprints react identically to any future input sequence. The
// bounded model checker (internal/explore) uses fingerprints to merge
// states reached by different interleavings.
type Fingerprinter interface {
	Fingerprint() string
}

var (
	_ Fingerprinter = (*Majority)(nil)
	_ Fingerprinter = (*Quiescent)(nil)
)

// fpWriter accumulates canonical key/value fragments.
type fpWriter struct {
	b strings.Builder
}

func (w *fpWriter) section(name string) { fmt.Fprintf(&w.b, "|%s:", name) }

func (w *fpWriter) sortedIDs(recs []*msgRec) {
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = r.id.Tag.String() + "~" + r.id.Body
	}
	sort.Strings(keys)
	w.b.WriteString(strings.Join(keys, ","))
}

func (w *fpWriter) sortedTags(tags []ident.Tag) {
	keys := make([]string, len(tags))
	for i, t := range tags {
		keys[i] = t.String()
	}
	sort.Strings(keys)
	w.b.WriteString(strings.Join(keys, ","))
}

// commonFingerprint digests the state shared by both algorithms.
func (c *common) commonFingerprint(w *fpWriter) {
	w.section("draws")
	fmt.Fprintf(&w.b, "%d", c.tags.Draws())
	w.section("msgs")
	w.sortedIDs(c.msgs)
	w.section("mine")
	keys := make([]string, 0, c.pinned)
	for _, r := range c.sortedWith(recPinned) {
		keys = append(keys, r.id.Tag.String()+"~"+r.id.Body+"="+r.mine.String())
	}
	sort.Strings(keys)
	w.b.WriteString(strings.Join(keys, ","))
	w.section("delivered")
	w.sortedIDs(c.sortedWith(recDelivered))
	w.section("saw")
	w.sortedIDs(c.sortedWith(recSeen))
}

// Fingerprint implements Fingerprinter.
func (p *Majority) Fingerprint() string {
	var w fpWriter
	w.b.WriteString("majority")
	w.section("n")
	fmt.Fprintf(&w.b, "%d/%d", p.n, p.threshold)
	p.commonFingerprint(&w)
	w.section("acks")
	keys := make([]string, 0, len(p.acked))
	for _, r := range p.acked {
		var inner fpWriter
		inner.sortedTags(r.tally.Slice())
		keys = append(keys, r.id.Tag.String()+"~"+r.id.Body+"={"+inner.b.String()+"}")
	}
	sort.Strings(keys)
	w.b.WriteString(strings.Join(keys, ","))
	return w.b.String()
}

// Fingerprint implements Fingerprinter.
func (p *Quiescent) Fingerprint() string {
	var w fpWriter
	w.b.WriteString("quiescent")
	p.commonFingerprint(&w)
	w.section("retired")
	fmt.Fprintf(&w.b, "%d", p.retired)
	w.section("acks")
	keys := make([]string, 0, len(p.acked))
	for _, r := range p.acked {
		st := r.st
		ackers := make([]string, 0, len(st.ackerOrder))
		for _, acker := range st.ackerOrder {
			v := st.byAcker[acker]
			var inner fpWriter
			inner.sortedTags(v.set.labels)
			ackers = append(ackers, fmt.Sprintf("%s@%d/%t->{%s}", acker, v.epoch, v.synced, inner.b.String()))
		}
		sort.Strings(ackers)
		keys = append(keys, r.id.Tag.String()+"~"+r.id.Body+"=["+strings.Join(ackers, ";")+"]")
	}
	sort.Strings(keys)
	w.b.WriteString(strings.Join(keys, ","))
	// The delta-path rate limiters and the sender ledger are keyed to
	// the tick counter; folding them in unconditionally would needlessly
	// split states that behave identically (the monotonic tick counter
	// alone would make every state unique). But the gate must be on the
	// *state*, not the config flag: reception of delta frames and resync
	// answering are always on, so even a full-set-mode process can hold
	// a populated ledger or pending request limiters — and two states
	// differing only in a still-owed resync must not merge.
	ledger := p.sortedRecs(func(r *msgRec) bool { return r.ledger != nil })
	deltaState := p.cfg.DeltaAcks || len(ledger) > 0 || p.epochFloor > 0
	for _, r := range p.acked {
		if len(r.st.reqTick) > 0 {
			deltaState = true
			break
		}
	}
	if deltaState {
		w.section("ticks")
		fmt.Fprintf(&w.b, "%d", p.ticks)
		w.section("floor")
		fmt.Fprintf(&w.b, "%d", p.epochFloor)
		w.section("ledger")
		keys = keys[:0]
		for _, r := range ledger {
			st := r.ledger
			var inner fpWriter
			inner.sortedTags(st.sent.Slice())
			keys = append(keys, fmt.Sprintf("%s~%s@%d/%d/%d={%s}",
				r.id.Tag, r.id.Body, st.epoch, st.reAckTick, st.snapTick, inner.b.String()))
		}
		sort.Strings(keys)
		w.b.WriteString(strings.Join(keys, ","))
		w.section("reqs")
		keys = keys[:0]
		for _, r := range p.acked {
			for acker, tick := range r.st.reqTick {
				keys = append(keys, fmt.Sprintf("%s~%s/%s=%d", r.id.Tag, r.id.Body, acker, tick))
			}
		}
		sort.Strings(keys)
		w.b.WriteString(strings.Join(keys, ","))
	}
	return w.b.String()
}
