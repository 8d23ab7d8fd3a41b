package urb

import (
	"fmt"
	"sort"
	"testing"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// Test views of the record table (DESIGN.md §10), keyed the way the
// per-set maps it replaced were.

// deliveredIDs returns URB_DELIVERED_i as a set.
func (c *common) deliveredIDs() map[wire.MsgID]bool {
	out := make(map[wire.MsgID]bool, c.delivered)
	for id, r := range c.recs {
		if r.is(recDelivered) {
			out[id] = true
		}
	}
	return out
}

// pinOf returns the tag_ack this process pinned for id, if any.
func (c *common) pinOf(id wire.MsgID) (ident.Tag, bool) {
	if r := c.recs[id]; r != nil && r.is(recPinned) {
		return r.mine, true
	}
	return ident.Tag{}, false
}

// ackStates returns every message's ACK bookkeeping by identity.
func (p *Quiescent) ackStates() map[wire.MsgID]*ackState {
	out := make(map[wire.MsgID]*ackState, len(p.acked))
	for _, r := range p.acked {
		out[r.id] = r.st
	}
	return out
}

// ledgerLen counts the delta-ACK sender ledger's entries.
func (p *Quiescent) ledgerLen() int {
	n := 0
	for _, r := range p.recs {
		if r.ledger != nil {
			n++
		}
	}
	return n
}

// sortedKeys returns a set's identities in canonical order.
func sortedKeys(m map[wire.MsgID]bool) []wire.MsgID {
	ids := make([]wire.MsgID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if c := ids[i].Tag.Compare(ids[j].Tag); c != 0 {
			return c < 0
		}
		return ids[i].Body < ids[j].Body
	})
	return ids
}

// retireThrough delivers and retires k fresh messages on p, whose views
// must be the three labels lbl(1..3) with number 3: each message gets a
// MSG copy and a full ACK set from three ackers, and a Tick retires it.
func retireThrough(t *testing.T, p *Quiescent, k int) {
	t.Helper()
	labels := []ident.Tag{lbl(1), lbl(2), lbl(3)}
	for i := 0; i < k; i++ {
		id := wire.MsgID{Tag: ident.Tag{Hi: 77, Lo: uint64(i + 1)}, Body: fmt.Sprintf("h%05d", i)}
		p.Receive(wire.NewMsg(id))
		for a := uint64(0); a < 3; a++ {
			p.Receive(wire.NewAckSnapshot(id, lbl(100+a), 1, labels))
		}
		if i%64 == 63 {
			p.Tick()
		}
	}
	p.Tick()
	p.Tick()
	if st := p.Stats(); st.MsgSet != 0 || st.Retired != k {
		t.Fatalf("setup: MsgSet=%d Retired=%d, want 0/%d", st.MsgSet, st.Retired, k)
	}
}

// TestQuiescentCleanTickAllocatesNothing pins the retirement index's
// history independence (DESIGN.md §10): under unchanged views, with an
// empty MSG_i and no ACK state changed since the last pass, a Tick
// touches no record and allocates nothing, however much history the
// process holds.
func TestQuiescentCleanTickAllocatesNothing(t *testing.T) {
	view := fd.Normalize(fd.View{{Label: lbl(1), Number: 3}, {Label: lbl(2), Number: 3}, {Label: lbl(3), Number: 3}})
	for name, cfg := range map[string]Config{
		"paper":         {},
		"delta-compact": {DeltaAcks: true, CheckOnTick: true},
	} {
		t.Run(name, func(t *testing.T) {
			p := NewQuiescent(fd.Static{Theta: view, Star: view}, ident.NewSource(xrand.New(5)), cfg)
			retireThrough(t, p, 1000)
			if allocs := testing.AllocsPerRun(100, func() { p.Tick() }); allocs != 0 {
				t.Fatalf("clean Tick allocates %.1f times per call", allocs)
			}
		})
	}
}

// recordingDetector hands out its views and keeps a private copy of
// each, so a test can check the consumer never wrote through one.
type recordingDetector struct {
	theta, star fd.View
	handed      []fd.View
	copies      []fd.View
}

func (d *recordingDetector) hand(v fd.View) fd.View {
	d.handed = append(d.handed, v)
	d.copies = append(d.copies, v.Clone())
	return v
}

func (d *recordingDetector) ATheta() fd.View { return d.hand(d.theta) }
func (d *recordingDetector) APStar() fd.View { return d.hand(d.star) }

// TestQuiescentNeverMutatesViews: the fd.Detector contract lets a
// detector share one view slice across calls, so Algorithm 2 must treat
// every returned view as read-only — through receptions, deliveries,
// resyncs, view changes, purges and retirements.
func TestQuiescentNeverMutatesViews(t *testing.T) {
	full := fd.Normalize(fd.View{{Label: lbl(1), Number: 3}, {Label: lbl(2), Number: 3}, {Label: lbl(3), Number: 3}})
	shrunk := fd.Normalize(fd.View{{Label: lbl(1), Number: 2}, {Label: lbl(2), Number: 2}})
	for _, cfg := range []Config{{CheckOnTick: true}, {DeltaAcks: true, CheckOnTick: true}} {
		det := &recordingDetector{theta: full, star: full}
		p := NewQuiescent(det, ident.NewSource(xrand.New(9)), cfg)
		check := func(when string) {
			t.Helper()
			for i, v := range det.handed {
				if !v.Equal(det.copies[i]) {
					t.Fatalf("%+v %s: view %d mutated: %v, handed out as %v", cfg, when, i, v, det.copies[i])
				}
			}
		}
		rng := xrand.New(10)
		for i := 0; i < 40; i++ {
			id := wire.MsgID{Tag: ident.Tag{Hi: 5, Lo: uint64(i + 1)}, Body: fmt.Sprintf("v%02d", i)}
			p.Receive(wire.NewMsg(id))
			check("MSG")
			for a := uint64(0); a < 3; a++ {
				labels := []ident.Tag{lbl(1), lbl(2), lbl(3), lbl(9)}[:2+rng.Intn(3)]
				p.Receive(wire.NewAckSnapshot(id, lbl(100+a), 1, labels))
				p.Receive(wire.NewAckDelta(id, lbl(100+a), 3, []ident.Tag{lbl(2)}, nil)) // gap: resync
				check("ACK")
			}
			if mine, ok := p.pinOf(id); ok {
				p.Receive(wire.NewAckResync(id, mine))
				check("ACKREQ")
			}
			if i == 20 {
				det.theta, det.star = shrunk, shrunk // a crash: views change
			}
			p.Tick()
			check("Tick")
		}
	}
}
