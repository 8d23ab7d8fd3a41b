package bench

import "testing"

// TestTracedRunMatchesWireTraffic: a traced live run records lifecycle
// events, per message rather than per frame, and delivers what an
// untraced one does. That tracing leaves the wire traffic itself
// unchanged is checked deterministically, Step by Step, by
// urb.TestTracedStepsBitIdentical: two live runs' frame counts drift
// with host load.
func TestTracedRunMatchesWireTraffic(t *testing.T) {
	c, err := CompareObsOverhead(quickWorkload(AlgoMajority, NetMesh), 1)
	if err != nil {
		t.Fatalf("compare: %v", err)
	}
	if c.Off.TraceEvents != 0 {
		t.Fatalf("untraced run recorded %d events", c.Off.TraceEvents)
	}
	if c.Events == 0 {
		t.Fatal("traced run recorded zero lifecycle events — the tracer is not wired")
	}
	// Lifecycle events are per message, never per frame: a traced run
	// must record far fewer events than it sends wire messages.
	if c.Events > c.On.SentMsgs {
		t.Fatalf("traced run recorded %d events for %d sent wire messages — emits are leaking per-frame",
			c.Events, c.On.SentMsgs)
	}
	if c.On.Deliveries != c.Off.Deliveries {
		t.Fatalf("deliveries differ: on=%d off=%d", c.On.Deliveries, c.Off.Deliveries)
	}
}

// TestObsMatrixShapes: the sweep the -obs mode runs is Majority-only
// (its steady window gives the comparison a fixed wire volume) with
// tracing unset — CompareObsOverhead owns the on/off toggling.
func TestObsMatrixShapes(t *testing.T) {
	for _, quick := range []bool{false, true} {
		ws := ObsMatrix(2015, quick)
		if len(ws) == 0 {
			t.Fatalf("quick=%v: empty matrix", quick)
		}
		for _, w := range ws {
			if w.Algo != AlgoMajority {
				t.Fatalf("quick=%v: %s is not a Majority workload", quick, w)
			}
			if w.Trace {
				t.Fatalf("quick=%v: %s pre-sets Trace", quick, w)
			}
		}
	}
}
