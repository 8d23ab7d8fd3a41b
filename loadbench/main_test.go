package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// TestBenchmarkJSONMatches checks that the repository's BENCHMARK.json
// declares exactly the workloads this program runs and the metrics each
// mode prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if got := names(spec.Workloads); !slices.Equal(got, ours) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, ours)
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", got, perLayer)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	w := workloads[0]
	a, b := newSchedule(w, 7, 2*time.Second), newSchedule(w, 7, 2*time.Second)
	if len(a.due) != int(2*w.rate) {
		t.Fatalf("%d broadcasts, want %d", len(a.due), int(2*w.rate))
	}
	for k := range a.due {
		if a.due[k] != b.due[k] || a.sender[k] != b.sender[k] || string(a.payload[k]) != string(b.payload[k]) {
			t.Fatalf("broadcast %d differs between two schedules from one seed", k)
		}
		if a.sender[k] != k%w.n || (k > 0 && a.due[k] < a.due[k-1]) || a.due[k] >= 2*time.Second {
			t.Fatalf("broadcast %d: sender %d at %v breaks round-robin order within the window", k, a.sender[k], a.due[k])
		}
	}
	if c := newSchedule(w, 8, 2*time.Second); slices.Equal(a.due, c.due) {
		t.Error("seeds 7 and 8 gave the same due times")
	}
}
