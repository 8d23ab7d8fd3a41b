package urb

import (
	"sort"

	"anonurb/internal/ident"
)

// This file implements the refcount-interned label sets behind
// Config.CompactDelivered (DESIGN.md §10).
//
// Post-GST every correct acker's AΘ view is the same label set, so the
// per-(message, acker) matrices of Algorithm 2 hold thousands of copies
// of one value. The interner stores each distinct set once; compacted
// acker views hold a reference. Interned sets are immutable — every
// mutation path (delta folds, D4 purges, full-set replacement) goes
// copy-on-write through the ackState methods in quiescent.go — so
// sharing is invisible to the algorithm: claims, guards and fingerprints
// read the exact same label values either way.

// appendTagBytes appends a tag's canonical 16 big-endian bytes — the
// one serialization shared by every in-process key (setKey,
// beatSetKey).
func appendTagBytes(b []byte, t ident.Tag) []byte {
	return append(b,
		byte(t.Hi>>56), byte(t.Hi>>48), byte(t.Hi>>40), byte(t.Hi>>32),
		byte(t.Hi>>24), byte(t.Hi>>16), byte(t.Hi>>8), byte(t.Hi),
		byte(t.Lo>>56), byte(t.Lo>>48), byte(t.Lo>>40), byte(t.Lo>>32),
		byte(t.Lo>>24), byte(t.Lo>>16), byte(t.Lo>>8), byte(t.Lo))
}

// setKey renders a label set's canonical identity: the sorted labels'
// raw bytes. Insertion order is not part of a view's meaning (every
// consumer is membership- or sorted-order-based), so order-insensitive
// keying is what lets two ackers that learned the same view in
// different orders share one set.
func setKey(s *ident.Set) string {
	tags := append([]ident.Tag(nil), s.Slice()...)
	sort.Slice(tags, func(i, j int) bool { return tags[i].Less(tags[j]) })
	b := make([]byte, 0, 16*len(tags))
	for _, t := range tags {
		b = appendTagBytes(b, t)
	}
	return string(b)
}

// setEntry is one interned set plus its reference count.
type setEntry struct {
	key    string
	labels *ident.Set // immutable while interned
	refs   int
}

// setIntern is the per-process intern table. The zero value is ready to
// use.
type setIntern struct {
	m map[string]*setEntry
}

// intern returns the table's entry for s's value, taking one reference.
// A fresh value takes ownership of s (which must not be mutated
// afterwards); an existing value leaves s to the garbage collector.
func (t *setIntern) intern(s *ident.Set) *setEntry {
	if t.m == nil {
		t.m = make(map[string]*setEntry)
	}
	k := setKey(s)
	if e, ok := t.m[k]; ok {
		e.refs++
		return e
	}
	e := &setEntry{key: k, labels: s, refs: 1}
	t.m[k] = e
	return e
}

// release drops one reference, removing the entry when none remain.
func (t *setIntern) release(e *setEntry) {
	if e == nil {
		return
	}
	e.refs--
	if e.refs == 0 {
		delete(t.m, e.key)
	}
}

// distinct reports the number of interned sets.
func (t *setIntern) distinct() int { return len(t.m) }

// storage reports the label slots the table physically holds (each
// distinct set counted once).
func (t *setIntern) storage() int {
	n := 0
	for _, e := range t.m {
		n += e.labels.Len()
	}
	return n
}
