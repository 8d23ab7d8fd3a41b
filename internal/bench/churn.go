package bench

// Membership-churn benchmark (DESIGN.md §13): measure what a join
// actually costs a running cluster — how long a fresh process takes to
// pull, verify and adopt a donor snapshot (join latency as a function
// of snapshot size), how many bytes of SNAPCHUNK catch-up traffic the
// donors put on the wire, and the hard gate the protocol's uniformity
// argument rests on: the joiner re-delivers nothing it adopted, anywhere,
// ever. Runs on real nodes over the in-process mesh (the same plane the
// batching benchmark measures), with the heartbeat detector stack so
// membership change needs no oracle rewiring.

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/ident"
	"anonurb/internal/liverun"
	"anonurb/internal/store"
	"anonurb/internal/trace"
	"anonurb/internal/urb"
)

// ChurnScenario describes one churn measurement.
type ChurnScenario struct {
	Name string `json:"name"`
	// Founders is the pre-join cluster size.
	Founders int `json:"founders"`
	// History is how many broadcasts are delivered before the join:
	// the snapshot-size driver.
	History int `json:"history"`
	// PostJoin is how many broadcasts cross the join boundary after it
	// (half from the joiner, half toward it).
	PostJoin int `json:"post_join"`
	// Loss is the per-frame Bernoulli loss probability on every link.
	Loss float64 `json:"loss"`
	// DeltaAcks selects the ACK encoding under test.
	DeltaAcks bool   `json:"delta_acks"`
	Seed      uint64 `json:"seed"`
}

// ChurnResult is one scenario's measurement.
type ChurnResult struct {
	Scenario ChurnScenario `json:"scenario"`
	// SnapshotBytes is the donor container the joiner transferred and
	// verified (node.JoinedBytes): the protocol's minimum catch-up cost.
	SnapshotBytes int `json:"snapshot_bytes"`
	// CatchupWireBytes is the SNAPCHUNK byte total the donors put on
	// the wire — re-serves under loss included, so the ratio against
	// SnapshotBytes is the transfer's loss overhead.
	CatchupWireBytes uint64 `json:"catchup_wire_bytes"`
	// JoinLatencyMS is the wall time of node.Join: solicit, transfer,
	// verify, restore, adopt.
	JoinLatencyMS float64 `json:"join_latency_ms"`
	// ConvergeMS is the wall time from the joiner starting until every
	// process (joiner included) has delivered all post-join traffic.
	ConvergeMS float64 `json:"converge_ms"`
	// Deliveries is the run-wide delivery count across all processes.
	Deliveries uint64 `json:"deliveries"`
	// Redelivered counts duplicate deliveries of any message at any
	// process, adopted history delivered at the joiner included, as
	// trace.Checker counts them — the hard gate, zero or the run is
	// broken.
	Redelivered uint64 `json:"redelivered"`
}

// churnLedger records every delivery for the referee and indexes the
// delivered bodies per process for the polling that drives the run.
type churnLedger struct {
	mu     sync.Mutex
	seen   map[int]map[string]bool
	events []trace.Event
}

func newChurnLedger() *churnLedger { return &churnLedger{seen: make(map[int]map[string]bool)} }

func (l *churnLedger) onDeliver(d liverun.Delivery) {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.seen[d.Proc]
	if m == nil {
		m = make(map[string]bool)
		l.seen[d.Proc] = m
	}
	m[d.ID.Body] = true
	l.events = append(l.events, trace.Event{Kind: trace.KindDeliver, Proc: d.Proc, ID: d.ID})
}

// recorded returns a copy of the deliveries recorded so far.
func (l *churnLedger) recorded() []trace.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.events)
}

func (l *churnLedger) deliveredEverywhere(body string, procs int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for p := 0; p < procs; p++ {
		if !l.seen[p][body] {
			return false
		}
	}
	return true
}

// RunChurn executes one churn scenario and reports its measurement.
func RunChurn(sc ChurnScenario) (ChurnResult, error) {
	res := ChurnResult{Scenario: sc}
	ledger := newChurnLedger()
	cfg := liverun.Config{
		N: sc.Founders,
		Factory: func(index int, tags *ident.Source, clock func() int64) urb.Process {
			return urb.NewHeartbeatHost(tags, 200, 1, clock, urb.Config{DeltaAcks: sc.DeltaAcks})
		},
		Link:      channel.Bernoulli{P: sc.Loss, D: channel.UniformDelay{Min: 1, Max: 3}},
		Unit:      200 * time.Microsecond,
		TickEvery: 5,
		Seed:      sc.Seed,
		OnDeliver: ledger.onDeliver,
	}
	c := liverun.Start(cfg)
	defer c.Stop()
	// Detector warmup: the heartbeat views must include every founder
	// before the first broadcast can deliver.
	time.Sleep(30 * time.Millisecond)

	waitAll := func(body string, procs int, limit time.Duration) error {
		deadline := time.Now().Add(limit)
		for !ledger.deliveredEverywhere(body, procs) {
			if time.Now().After(deadline) {
				return fmt.Errorf("%q not delivered at all %d procs within %v", body, procs, limit)
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}

	// Pre-join history: the snapshot-size driver. Waiting on every
	// eighth body paces the broadcasts; the retirement machinery keeps
	// the rest flowing behind it.
	for i := 0; i < sc.History; i++ {
		body := fmt.Sprintf("h%d", i)
		if !c.Broadcast(i%sc.Founders, []byte(body)) {
			return res, fmt.Errorf("pre-join broadcast %d failed", i)
		}
		if i%8 == 7 || i == sc.History-1 {
			if err := waitAll(body, sc.Founders, 20*time.Second); err != nil {
				return res, fmt.Errorf("pre-join: %w", err)
			}
		}
	}

	// All history is delivered everywhere before the join, so the
	// donor's snapshot holds every history message as delivered: the
	// joiner adopts all of it.
	for i := 0; i < sc.History; i++ {
		if err := waitAll(fmt.Sprintf("h%d", i), sc.Founders, 20*time.Second); err != nil {
			return res, fmt.Errorf("pre-join: %w", err)
		}
	}
	history := ledger.recorded()

	// The join: real SNAPREQ/SNAPCHUNK transfer from whichever founder
	// answers. Latency is the whole bootstrap — solicit to Adopt.
	joinStart := time.Now()
	joiner, err := c.Join(store.NewMem())
	if err != nil {
		return res, fmt.Errorf("join: %w", err)
	}
	res.JoinLatencyMS = float64(time.Since(joinStart).Microseconds()) / 1000
	res.SnapshotBytes = c.Node(joiner).JoinedBytes()

	// Post-join traffic in both directions; convergence clock runs until
	// everything is delivered everywhere, joiner included.
	convergeStart := time.Now()
	n := c.N()
	for i := 0; i < sc.PostJoin; i++ {
		proc := i % n
		if i%2 == 0 {
			proc = joiner // half the traffic originates at the joiner
		}
		body := fmt.Sprintf("p%d", i)
		if !c.Broadcast(proc, []byte(body)) {
			return res, fmt.Errorf("post-join broadcast %d failed", i)
		}
	}
	for i := 0; i < sc.PostJoin; i++ {
		if err := waitAll(fmt.Sprintf("p%d", i), n, 20*time.Second); err != nil {
			return res, fmt.Errorf("post-join: %w", err)
		}
	}
	res.ConvergeMS = float64(time.Since(convergeStart).Microseconds()) / 1000

	// The hard gate: adopted history must never surface as a delivery
	// at the joiner, and nothing is delivered twice anywhere.
	events := ledger.recorded()
	res.Deliveries = uint64(len(events))
	for _, e := range history {
		events = append(events, trace.Event{Kind: trace.KindAdopt, Proc: joiner, ID: e.ID})
	}
	res.Redelivered = redelivered(n, events)
	for p := 0; p < n; p++ {
		_, _, _, snap, _ := c.Node(p).ByteStats()
		res.CatchupWireBytes += snap
	}
	return res, nil
}

// ChurnMatrix is the scenario sweep: snapshot size (via pre-join
// history) under both ACK encodings, lossy links throughout.
func ChurnMatrix(seed uint64, quick bool) []ChurnScenario {
	histories := []int{8, 32, 128}
	if quick {
		histories = []int{4, 16}
	}
	var out []ChurnScenario
	for _, delta := range []bool{false, true} {
		for i, h := range histories {
			enc := "fullset"
			if delta {
				enc = "delta"
			}
			out = append(out, ChurnScenario{
				Name:      fmt.Sprintf("%s/h%d", enc, h),
				Founders:  3,
				History:   h,
				PostJoin:  6,
				Loss:      0.05,
				Seed:      seed + uint64(i)*7919 + uint64(len(out))*104729,
				DeltaAcks: delta,
			})
		}
	}
	return out
}
