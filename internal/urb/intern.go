package urb

import (
	"slices"

	"anonurb/internal/ident"
)

// This file implements the refcount-interned label sets every Algorithm 2
// acker view is held as (deviation D6, DESIGN.md §10).
//
// Post-GST every correct acker's AΘ view is the same label set, so the
// per-(message, acker) matrices of Algorithm 2 hold thousands of copies
// of one value. The interner stores each distinct set once, as an
// immutable label-sorted slice; an acker view holds a reference from its
// first ACK on. Every change to a view (full-set replacement, delta
// folds, D4 purges) computes the successor set and re-interns it, so
// sharing is invisible to the algorithm: claims, guards and fingerprints
// read the exact label values a per-view copy would hold.

// appendTagBytes appends a tag's canonical 16 big-endian bytes — the
// one serialization shared by every in-process key (setEntry.key,
// beatSetKey).
func appendTagBytes(b []byte, t ident.Tag) []byte {
	return append(b,
		byte(t.Hi>>56), byte(t.Hi>>48), byte(t.Hi>>40), byte(t.Hi>>32),
		byte(t.Hi>>24), byte(t.Hi>>16), byte(t.Hi>>8), byte(t.Hi),
		byte(t.Lo>>56), byte(t.Lo>>48), byte(t.Lo>>40), byte(t.Lo>>32),
		byte(t.Lo>>24), byte(t.Lo>>16), byte(t.Lo>>8), byte(t.Lo))
}

// sortLabels sorts labels in place and drops duplicates, returning the
// canonical form of the set. Insertion order is not part of a view's
// meaning (every consumer is membership- or sorted-order-based), so the
// canonical form is what lets two ackers that learned the same view in
// different orders share one set.
func sortLabels(labels []ident.Tag) []ident.Tag {
	slices.SortFunc(labels, ident.Tag.Compare)
	return slices.Compact(labels)
}

// appendSetKey appends a sorted label set's identity: its labels' raw
// bytes in order.
func appendSetKey(b []byte, sorted []ident.Tag) []byte {
	for _, t := range sorted {
		b = appendTagBytes(b, t)
	}
	return b
}

// setEntry is one interned set plus its reference count.
type setEntry struct {
	key    string
	labels []ident.Tag // sorted, duplicate-free, immutable
	refs   int
}

// setIntern is the per-process intern table. The zero value is ready to
// use.
type setIntern struct {
	m map[string]*setEntry
	// buf and key are scratch space for successor sets and their keys,
	// so an intern hit allocates nothing.
	buf []ident.Tag
	key []byte
}

// intern returns the table's entry for the sorted, duplicate-free set
// sorted, taking one reference. A fresh value is copied, so callers may
// pass scratch space.
func (t *setIntern) intern(sorted []ident.Tag) *setEntry {
	t.key = appendSetKey(t.key[:0], sorted)
	if e, ok := t.m[string(t.key)]; ok {
		e.refs++
		return e
	}
	if t.m == nil {
		t.m = make(map[string]*setEntry)
	}
	e := &setEntry{key: string(t.key), labels: slices.Clone(sorted), refs: 1}
	t.m[e.key] = e
	return e
}

// release drops one reference, removing the entry when none remain.
func (t *setIntern) release(e *setEntry) {
	e.refs--
	if e.refs == 0 {
		delete(t.m, e.key)
	}
}

// storage reports the label slots the table physically holds (each
// distinct set counted once).
func (t *setIntern) storage() int {
	n := 0
	for _, e := range t.m {
		n += len(e.labels)
	}
	return n
}
