package trace

import (
	"fmt"
	"sort"
	"strings"
)

// TimelineOptions controls the ASCII rendering of a trace.
type TimelineOptions struct {
	// MaxEvents truncates the rendering (0 = no limit).
	MaxEvents int
	// Wire includes send/receive events (noisy); broadcast, deliver and
	// crash events are always shown.
	Wire bool
}

// Timeline renders a human-readable event timeline of a run, one line per
// event with a per-process lane marker. It is a debugging aid for
// cmd/urbsim -timeline; the rendering is deterministic.
//
//	t=5      p0 | B  URB-broadcast 1a2b.../"hello"
//	t=11     p0 | *  send MSG → all
//	t=14     p2 |  D deliver 1a2b.../"hello"
//	t=60     p3 | ✝  crash
func Timeline(n int, events []Event, opt TimelineOptions) string {
	evs := append([]Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })

	var b strings.Builder
	count := 0
	for _, e := range evs {
		if !opt.Wire && (e.Kind == KindSend || e.Kind == KindReceive) {
			continue
		}
		if opt.MaxEvents > 0 && count >= opt.MaxEvents {
			fmt.Fprintf(&b, "… (%d more events)\n", len(evs)-count)
			break
		}
		count++
		lane := laneString(n, e.Proc)
		switch e.Kind {
		case KindBroadcast:
			fmt.Fprintf(&b, "t=%-8d %s B  URB-broadcast %s\n", e.At, lane, e.ID)
		case KindDeliver:
			fast := ""
			if e.Fast {
				fast = " (fast)"
			}
			fmt.Fprintf(&b, "t=%-8d %s D  deliver %s%s\n", e.At, lane, e.ID, fast)
		case KindCrash:
			fmt.Fprintf(&b, "t=%-8d %s X  crash\n", e.At, lane)
		case KindAdopt:
			fmt.Fprintf(&b, "t=%-8d %s A  adopt %s\n", e.At, lane, e.ID)
		case KindSend:
			verdict := "→"
			if e.Dropped {
				verdict = "⊘"
			}
			fmt.Fprintf(&b, "t=%-8d %s s  %s %s p%d\n", e.At, lane, e.Msg, verdict, e.Dst)
		case KindReceive:
			fmt.Fprintf(&b, "t=%-8d %s r  %s\n", e.At, lane, e.Msg)
		}
	}
	return b.String()
}

// laneString renders the per-process lane: a column of '·' with the
// acting process marked.
func laneString(n, proc int) string {
	if n > 16 {
		// Lanes get unwieldy; fall back to a compact label.
		return fmt.Sprintf("p%-3d", proc)
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i == proc {
			fmt.Fprintf(&b, "%d", i%10)
		} else {
			b.WriteByte(0xC2) // '·' UTF-8
			b.WriteByte(0xB7)
		}
	}
	b.WriteString(" |")
	return b.String()
}
