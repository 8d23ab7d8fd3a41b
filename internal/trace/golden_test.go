package trace

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestGoldenVerdicts reads each reference trace in testdata through
// Read and checks the referee's exact verdict on it: the ordered list
// of violated properties, the open obligations and the re-delivery
// count. Message a is 0000000100000001/"a", b is 0000000200000001/"b",
// ghost is 0000000900000001/"ghost" (never broadcast).
func TestGoldenVerdicts(t *testing.T) {
	a, ghost := id(1, "a"), id(9, "ghost")
	golden := map[string]struct {
		properties  []string
		missing     []Missing
		redelivered int
	}{
		// p2 crashes after delivering a; joiner p3 adopts a, then
		// broadcasts b, which every correct process delivers.
		"clean": {},
		"duplicate": {
			properties:  []string{"uniform-integrity"},
			redelivered: 1,
		},
		"phantom": {
			properties: []string{"uniform-integrity", "uniform-agreement"},
			missing:    []Missing{{Proc: 1, ID: ghost}},
		},
		"validity": {
			properties: []string{"validity", "uniform-agreement"},
			missing:    []Missing{{Proc: 0, ID: a}},
		},
		"agreement": {
			properties: []string{"uniform-agreement", "uniform-agreement"},
			missing:    []Missing{{Proc: 0, ID: a}, {Proc: 2, ID: a}},
		},
		"crash-model": {
			properties: []string{"crash-model"},
		},
		"channel-integrity": {
			properties: []string{"channel-integrity"},
		},
		"adopted-then-delivered": {
			properties:  []string{"uniform-integrity"},
			redelivered: 1,
		},
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(golden) {
		t.Fatalf("%d golden traces on disk, %d expected verdicts", len(files), len(golden))
	}
	for _, path := range files {
		name := filepath.Base(path)
		name = name[:len(name)-len(".jsonl")]
		want, ok := golden[name]
		if !ok {
			t.Fatalf("%s has no expected verdict", path)
		}
		t.Run(name, func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			h, events, err := Read(f)
			if err != nil {
				t.Fatal(err)
			}
			rep := NewChecker(h.N, h.Crashed).Check(events)
			var props []string
			for _, v := range rep.Violations {
				props = append(props, v.Property)
			}
			if !slices.Equal(props, want.properties) {
				t.Errorf("properties %q, want %q (%v)", props, want.properties, rep.Violations)
			}
			if !slices.Equal(rep.Missing, want.missing) {
				t.Errorf("missing %v, want %v", rep.Missing, want.missing)
			}
			if rep.Redelivered != want.redelivered {
				t.Errorf("redelivered %d, want %d", rep.Redelivered, want.redelivered)
			}
		})
	}
}
