package fd

import (
	"sort"
	"testing"

	"anonurb/internal/ident"
	"anonurb/internal/xrand"
)

// scratchView recomputes a heartbeat view from first principles: the
// own label plus every label heard within the timeout of now, each with
// the trusted count, sorted by label.
func scratchView(own ident.Tag, timeout, now int64, heard []HeardLabel) View {
	ts := []ident.Tag{own}
	for _, e := range heard {
		if e.Label != own && now-e.At <= timeout {
			ts = append(ts, e.Label)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
	v := make(View, len(ts))
	for i, l := range ts {
		v[i] = Pair{Label: l, Number: len(ts)}
	}
	return v
}

// TestHeartbeatViewCacheExact drives random Hear / clock / Relabel /
// RestoreHeard sequences — including clock readings exactly at a label's
// lastHeard+timeout and +1, backward clock steps and negative times —
// and requires the cached ATheta/APStar to equal a from-scratch
// recomputation after every step.
func TestHeartbeatViewCacheExact(t *testing.T) {
	const timeout = 20
	pool := make([]ident.Tag, 6)
	for i := range pool {
		pool[i] = lbl(uint64(i + 1))
	}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := xrand.New(seed)
		now := int64(100)
		h := NewHeartbeat(pool[0], timeout, func() int64 { return now })
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				h.Hear(pool[rng.Intn(len(pool))])
			case op < 5:
				now += int64(rng.Intn(8))
			case op == 5:
				// Land exactly on a heard label's expiry edge.
				if heard := h.Heard(); len(heard) > 0 {
					now = heard[rng.Intn(len(heard))].At + timeout + int64(rng.Intn(2))
				}
			case op == 6:
				now -= int64(1 + rng.Intn(30)) // backwards, possibly negative
			case op == 7:
				h.Relabel(pool[rng.Intn(len(pool))])
			case op == 8:
				var entries []HeardLabel
				for _, l := range pool {
					if rng.Bool(0.5) {
						entries = append(entries, HeardLabel{Label: l, At: now - int64(rng.Intn(2*timeout)) + 5})
					}
				}
				h.RestoreHeard(entries)
			default:
				// Read-only step: the cache must survive plain reads.
			}
			want := scratchView(h.Label(), timeout, now, h.Heard())
			if got := h.ATheta(); !got.Equal(want) {
				t.Fatalf("seed %d step %d now %d: ATheta %v, want %v", seed, step, now, got, want)
			}
			if got := h.APStar(); !got.Equal(want) {
				t.Fatalf("seed %d step %d now %d: APStar %v, want %v", seed, step, now, got, want)
			}
		}
	}
}

// TestHeartbeatViewCacheShares pins the cache itself: under an unchanged
// heard map and clock, repeated reads return the same slice (no sort, no
// allocation), and a read after the earliest expiry returns a new one.
func TestHeartbeatViewCacheShares(t *testing.T) {
	now := int64(0)
	h := NewHeartbeat(lbl(1), 10, func() int64 { return now })
	h.Hear(lbl(2))
	v := h.ATheta()
	if allocs := testing.AllocsPerRun(50, func() { _ = h.APStar() }); allocs != 0 {
		t.Fatalf("cached view read allocates %.1f times", allocs)
	}
	if w := h.APStar(); &w[0] != &v[0] {
		t.Fatal("cached reads returned different slices")
	}
	now = 10 // lastHeard+timeout: still trusted, cache still valid
	if w := h.ATheta(); &w[0] != &v[0] || len(w) != 2 {
		t.Fatalf("view at the expiry edge: %v", w)
	}
	now = 11 // lastHeard+timeout+1: lbl(2) expires
	if w := h.ATheta(); len(w) != 1 || len(v) != 2 {
		t.Fatalf("expired view %v (old view mutated to %v?)", w, v)
	}
}
