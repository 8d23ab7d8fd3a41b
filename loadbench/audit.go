package main

import (
	"fmt"

	"anonurb/internal/ident"
	"anonurb/internal/node"
	"anonurb/internal/wire"
)

// maxProblems is how many violations an audit names; the rest are
// only counted.
const maxProblems = 5

// audit is the URB check of one run.
type audit struct {
	// expected counts the (message, node) deliveries the run owes: every
	// scheduled broadcast at every node.
	expected int
	// missing counts owed deliveries that never happened (a failed
	// Broadcast owes all of its deliveries), duplicate the extra copies
	// of a message at a node, corrupt the deliveries whose bytes differ
	// from what was broadcast, and unknown the deliveries of ids that
	// were never broadcast.
	missing, duplicate, corrupt, unknown int
	// problems names the first maxProblems violations.
	problems []string
}

func (a audit) failures() int { return a.missing + a.duplicate + a.corrupt + a.unknown }

func (a audit) failRatio() float64 {
	if a.expected == 0 {
		return 0
	}
	return float64(a.failures()) / float64(a.expected)
}

// add merges b's counts and problems into a.
func (a *audit) add(b audit) {
	a.expected += b.expected
	a.missing += b.missing
	a.duplicate += b.duplicate
	a.corrupt += b.corrupt
	a.unknown += b.unknown
	for _, p := range b.problems {
		a.note("%s", p)
	}
}

func (a *audit) note(format string, args ...any) {
	if len(a.problems) < maxProblems {
		a.problems = append(a.problems, fmt.Sprintf(format, args...))
	}
}

// auditDeliveries checks URB's guarantees over one run. sent[k] is the
// k-th scheduled broadcast with the payload it carried, ids[k] the
// identity Broadcast returned for it and errs[k] its error; got[i] is
// everything node i delivered. It checks that every broadcast is
// delivered exactly once at every node, that delivered bodies are
// byte-equal to what was broadcast, and that no id that was never
// broadcast is delivered.
func auditDeliveries(sent [][]byte, ids []wire.MsgID, errs []error, got [][]node.Delivery) audit {
	n := len(got)
	a := audit{expected: len(sent) * n}
	byTag := make(map[ident.Tag]int, len(sent))
	for k, err := range errs {
		if err != nil {
			a.missing += n
			a.note("broadcast #%d failed: %v", k, err)
			continue
		}
		byTag[ids[k].Tag] = k
	}
	count := make([]int, len(sent))
	for i, ds := range got {
		clear(count)
		for _, d := range ds {
			k, ok := byTag[d.ID.Tag]
			if !ok {
				a.unknown++
				a.note("node %d delivered %s, which was never broadcast", i, d.ID)
				continue
			}
			if d.ID.Body != string(sent[k]) {
				a.corrupt++
				a.note("node %d delivered broadcast #%d with a body that differs from the one broadcast", i, k)
			}
			if count[k]++; count[k] == 2 {
				a.note("node %d delivered broadcast #%d more than once", i, k)
			}
		}
		for k, c := range count {
			switch {
			case errs[k] != nil:
			case c == 0:
				a.missing++
				a.note("node %d never delivered broadcast #%d", i, k)
			case c > 1:
				a.duplicate += c - 1
			}
		}
	}
	return a
}
