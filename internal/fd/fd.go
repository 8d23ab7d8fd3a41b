// Package fd implements the paper's two anonymous failure detector
// classes, AΘ and AP*.
//
// Both classes give each process a read-only view: a set of
// (label, number) pairs, where a label is a random anonymous identifier
// standing for some process (nobody, including the owner, knows the
// mapping) and number says how many correct processes "know" that label.
// Knowing a label ℓ means having (ℓ, –) in one's own view at some time;
// the set of knowers is called S(ℓ).
//
// The classes' properties (Sections V-A and V-B of the paper):
//
//	AΘ-completeness: eventually, every correct process's view permanently
//	  contains pairs for all correct processes, and every pair (ℓ, k) in
//	  the view has k = |S(ℓ) ∩ Correct|.
//	AΘ-accuracy (perpetual): for every pair (ℓ, k) ever output, every
//	  k-sized subset of S(ℓ) contains at least one correct process.
//	AP*-completeness: as AΘ-completeness.
//	AP*-accuracy: the label of a crashed process is eventually and
//	  permanently removed from every view.
//
// This package provides the View/Pair types, the Detector interface the
// algorithms consume, a grounded Oracle that synthesises legal views from
// the run's crash schedule (the standard way to evaluate FD-based
// algorithms in simulation), and validators that check a view stream
// against the class axioms. A heartbeat-based realisation for partially
// synchronous runs lives in heartbeat.go.
package fd

import (
	"fmt"
	"sort"
	"strings"

	"anonurb/internal/ident"
)

// Pair is one (label, number) element of a failure detector view.
type Pair struct {
	Label  ident.Tag
	Number int
}

// View is a failure detector output: a set of pairs, sorted by label so
// that equal views have equal representations (determinism).
type View []Pair

// Detector is the per-process handle Algorithm 2 consumes. Both methods
// return the current view; implementations must be cheap to call, as the
// algorithm reads them on every ACK receipt and every Task-1 tick.
//
// Returned views are read-only and may be shared: an implementation may
// hand the same slice to every caller until the view changes (Heartbeat
// caches its view this way), so callers must never modify a returned
// view, and an implementation never modifies a view once returned.
type Detector interface {
	// ATheta returns the current AΘ view.
	ATheta() View
	// APStar returns the current AP* view.
	APStar() View
}

// Normalize sorts v by label and merges duplicate labels (keeping the
// largest number, the conservative choice for both guards that use
// numbers). It returns v for chaining.
func Normalize(v View) View {
	sort.Slice(v, func(i, j int) bool { return v[i].Label.Less(v[j].Label) })
	out := v[:0]
	for _, p := range v {
		if len(out) > 0 && out[len(out)-1].Label == p.Label {
			if p.Number > out[len(out)-1].Number {
				out[len(out)-1].Number = p.Number
			}
			continue
		}
		out = append(out, p)
	}
	return out
}

// Labels returns the label set of v.
func (v View) Labels() *ident.Set {
	s := ident.NewSet()
	for _, p := range v {
		s.Add(p.Label)
	}
	return s
}

// Lookup returns the number associated with label, if present.
func (v View) Lookup(label ident.Tag) (int, bool) {
	for _, p := range v {
		if p.Label == label {
			return p.Number, true
		}
	}
	return 0, false
}

// Has reports whether label appears in v.
func (v View) Has(label ident.Tag) bool {
	_, ok := v.Lookup(label)
	return ok
}

// Equal reports whether two normalized views are identical.
func (v View) Equal(o View) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of v.
func (v View) Clone() View {
	return append(View(nil), v...)
}

// String renders a compact form for traces: {label:number, ...}.
func (v View) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%d", p.Label, p.Number)
	}
	b.WriteByte('}')
	return b.String()
}

// Static is a fixed Detector, handy in unit tests of Algorithm 2.
type Static struct {
	Theta View
	Star  View
}

// ATheta implements Detector.
func (s Static) ATheta() View { return s.Theta }

// APStar implements Detector.
func (s Static) APStar() View { return s.Star }

// Func adapts a pair of closures to the Detector interface.
type Func struct {
	ThetaFn func() View
	StarFn  func() View
}

// ATheta implements Detector.
func (f Func) ATheta() View { return f.ThetaFn() }

// APStar implements Detector.
func (f Func) APStar() View { return f.StarFn() }
