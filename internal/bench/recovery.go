package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/node"
	"anonurb/internal/store"
	"anonurb/internal/trace"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// RecoveryWorkload measures the durable-state subsystem (DESIGN.md §9):
// what checkpointing costs while the cluster runs, and what recovery
// costs when a node restarts from its store. One node (index 0) runs
// with a file-backed store; the workload delivers a batch of messages,
// kills the durable node, makes progress without it, restarts it via
// node.Recover and measures the restart end to end.
type RecoveryWorkload struct {
	Algo Algo `json:"algo"`
	// N is the cluster size.
	N int `json:"n"`
	// Messages is the pre-crash batch (round-robin broadcasts); the
	// durable node's WAL and checkpoints amortise over the N*Messages
	// deliveries it produces.
	Messages int `json:"messages"`
	// PostMessages is the batch broadcast while the durable node is down
	// (its catch-up work). Default 2.
	PostMessages int `json:"post_messages"`
	// Payload is the broadcast payload size in bytes (default 64).
	Payload int `json:"payload"`
	// TickEvery is the Task-1 period (default 5ms).
	TickEvery time.Duration `json:"tick_every_ns"`
	// CheckpointEvery is the durable node's checkpoint cadence. A very
	// large value (e.g. an hour) disables checkpointing in practice, so
	// recovery replays the whole WAL — the "recovery latency vs WAL
	// length" axis of the benchmark. Default 20ms.
	CheckpointEvery time.Duration `json:"checkpoint_every_ns"`
	// Seed drives tick phases and tag streams.
	Seed uint64 `json:"seed"`
	// Timeout bounds each phase separately. Default 60s.
	Timeout time.Duration `json:"-"`
}

// String names the workload compactly.
func (w RecoveryWorkload) String() string {
	mode := "ckpt"
	if w.CheckpointEvery >= time.Hour {
		mode = "wal-only"
	}
	return fmt.Sprintf("recovery/%s/n=%d/msgs=%d/%s", w.Algo, w.N, w.Messages, mode)
}

// RecoveryResult is one recovery workload's measurement.
type RecoveryResult struct {
	Workload RecoveryWorkload `json:"workload"`

	// Deliveries is the pre-crash cluster-wide delivery count
	// (N*Messages), the denominator of the overhead metrics.
	Deliveries uint64 `json:"deliveries"`

	// Durability overhead on the durable node up to the crash.
	Checkpoints     uint64 `json:"checkpoints"`
	CheckpointBytes uint64 `json:"checkpoint_bytes"`
	WALAppends      uint64 `json:"wal_appends"`
	WALBytes        uint64 `json:"wal_bytes"`
	// CheckpointBytesPerDelivery and WALBytesPerDelivery normalise the
	// durability traffic to the deliveries it protects. The WAL figure
	// is the floor (every delivery/pin/broadcast writes once); the
	// checkpoint figure falls with cadence.
	CheckpointBytesPerDelivery float64 `json:"checkpoint_bytes_per_delivery"`
	WALBytesPerDelivery        float64 `json:"wal_bytes_per_delivery"`

	// What the restart replayed.
	SnapshotBytesReplayed int `json:"snapshot_bytes_replayed"`
	WALRecordsReplayed    int `json:"wal_records_replayed"`

	// RecoveryMS is node.Recover wall time: store load + snapshot
	// restore + WAL replay + compacting re-checkpoint.
	RecoveryMS float64 `json:"recovery_ms"`
	// CatchupMS is the time from the recovered node's Start until it has
	// delivered every message broadcast while it was down.
	CatchupMS float64 `json:"catchup_ms"`
	// Redelivered counts deliveries beyond the first of one message at
	// one node, pre-crash messages the recovered node delivered again
	// included, as trace.Checker counts them over every delivery the
	// run observed. The subsystem's correctness bar: always 0.
	Redelivered uint64 `json:"redelivered"`
}

// RunRecovery executes one recovery workload on a reliable in-process
// mesh (the measurement targets the store and restart path, not loss
// resilience — the test suites cover that).
func RunRecovery(w RecoveryWorkload) (RecoveryResult, error) {
	if w.N < 3 || w.Messages < 1 {
		return RecoveryResult{}, fmt.Errorf("bench: recovery needs N >= 3 and Messages >= 1")
	}
	if w.PostMessages <= 0 {
		w.PostMessages = 2
	}
	if w.Payload <= 0 {
		w.Payload = 64
	}
	if w.TickEvery <= 0 {
		w.TickEvery = 5 * time.Millisecond
	}
	if w.CheckpointEvery <= 0 {
		w.CheckpointEvery = 20 * time.Millisecond
	}
	if w.Timeout <= 0 {
		w.Timeout = 60 * time.Second
	}

	dir, err := os.MkdirTemp("", "anonurb-recovery-bench-*")
	if err != nil {
		return RecoveryResult{}, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(dir)
	st, err := store.OpenFile(dir)
	if err != nil {
		return RecoveryResult{}, fmt.Errorf("bench: %w", err)
	}
	defer st.Close()

	mesh := transport.NewMesh(transport.MeshConfig{
		N:          w.N,
		Link:       channel.Reliable{D: channel.FixedDelay(0)},
		Unit:       time.Millisecond,
		Seed:       w.Seed,
		InboxDepth: 1 << 16,
	})
	defer mesh.Close()

	var oracle *fd.Oracle
	start := time.Now()
	clock := func() int64 { return int64(time.Since(start) / time.Millisecond) }
	if w.Algo == AlgoQuiescent {
		correct := make([]bool, w.N)
		for i := range correct {
			correct[i] = true // index 0 recovers, so it is correct
		}
		oracle = fd.NewOracle(fd.OracleConfig{N: w.N, Noise: fd.NoiseExact, Seed: w.Seed}, correct)
	}
	mkProc := func(i int) (urb.Process, error) {
		tags := ident.NewSource(xrand.New(xrand.HashStream(w.Seed, 0x5ec0, uint64(i))))
		switch w.Algo {
		case AlgoMajority:
			return urb.NewMajority(w.N, tags, urb.Config{}), nil
		case AlgoQuiescent:
			return urb.NewQuiescent(oracle.Handle(i, clock), tags, urb.Config{DeltaAcks: true}), nil
		default:
			return nil, fmt.Errorf("bench: unknown algo %q", w.Algo)
		}
	}

	inboxDepth := w.N*(w.Messages+w.PostMessages) + 16
	nodes := make([]*node.Node, w.N)
	inboxes := make([]<-chan node.Delivery, w.N)
	for i := 0; i < w.N; i++ {
		proc, err := mkProc(i)
		if err != nil {
			return RecoveryResult{}, err
		}
		opts := []node.Option{
			node.WithTickEvery(w.TickEvery),
			node.WithSeed(xrand.HashStream(w.Seed, uint64(i))),
			node.WithInboxDepth(inboxDepth),
		}
		if i == 0 {
			opts = append(opts, node.WithStore(st), node.WithCheckpointEvery(w.CheckpointEvery))
		}
		nodes[i] = node.New(proc, mesh.Endpoint(i), opts...)
		inboxes[i] = nodes[i].Deliveries()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer func() {
		for _, nd := range nodes {
			if nd != nil {
				nd.Stop()
			}
		}
	}()
	for _, nd := range nodes {
		if err := nd.Start(ctx); err != nil {
			return RecoveryResult{}, fmt.Errorf("bench: start: %w", err)
		}
	}

	// --- pre-crash batch ---------------------------------------------
	payload := make([]byte, w.Payload)
	for i := range payload {
		payload[i] = byte(i)
	}
	var observed deliveryLog
	for i := 0; i < w.Messages; i++ {
		payload[0], payload[1] = byte(i), byte(i>>8)
		if _, err := nodes[i%w.N].Broadcast(payload); err != nil {
			return RecoveryResult{}, fmt.Errorf("bench: broadcast %d: %w", i, err)
		}
	}
	if err := observed.drain(inboxes, 0, w.Messages, w.Timeout); err != nil {
		return RecoveryResult{}, fmt.Errorf("bench: pre-crash phase: %w (%s)", err, w)
	}
	if w.CheckpointEvery < time.Hour {
		// Checkpointed mode measures a crash that lands after a
		// checkpoint; small batches can drain faster than the first
		// cadence tick, so wait for one (it is due: the WAL has grown).
		deadline := time.Now().Add(w.Timeout)
		for nodes[0].StoreStats().Checkpoints == 0 {
			if time.Now().After(deadline) {
				return RecoveryResult{}, fmt.Errorf("bench: no checkpoint before crash (%s)", w)
			}
			time.Sleep(time.Millisecond)
		}
	}

	res := RecoveryResult{Workload: w, Deliveries: uint64(w.N) * uint64(w.Messages)}
	ss := nodes[0].StoreStats()
	if ss.Err != nil {
		return RecoveryResult{}, fmt.Errorf("bench: store: %w", ss.Err)
	}
	res.Checkpoints = ss.Checkpoints
	res.CheckpointBytes = ss.CheckpointBytes
	res.WALAppends = ss.WALAppends
	res.WALBytes = ss.WALBytes
	del := float64(res.Deliveries)
	res.CheckpointBytesPerDelivery = float64(ss.CheckpointBytes) / del
	res.WALBytesPerDelivery = float64(ss.WALBytes) / del

	// --- crash + progress while down ---------------------------------
	nodes[0].Stop()
	postIDs := make(map[wire.MsgID]bool, w.PostMessages)
	for i := 0; i < w.PostMessages; i++ {
		payload[0], payload[1] = byte(i), 0xee
		id, err := nodes[1+i%(w.N-1)].Broadcast(payload)
		if err != nil {
			return RecoveryResult{}, fmt.Errorf("bench: post broadcast %d: %w", i, err)
		}
		postIDs[id] = true
	}
	if w.Algo == AlgoMajority {
		// Survivors can deliver without the durable node (majority); for
		// Quiescent with an all-correct oracle they are blocked until it
		// returns, so the wait happens after recovery instead.
		if err := observed.drain(inboxes, 1, w.PostMessages, w.Timeout); err != nil {
			return RecoveryResult{}, fmt.Errorf("bench: while-down phase: %w (%s)", err, w)
		}
	}

	// --- recover ------------------------------------------------------
	proc, err := mkProc(0)
	if err != nil {
		return RecoveryResult{}, err
	}
	recStart := time.Now()
	rec, err := node.Recover(proc, st, mesh.Reopen(0),
		node.WithTickEvery(w.TickEvery),
		node.WithSeed(xrand.HashStream(w.Seed, 0)),
		node.WithInboxDepth(inboxDepth),
		node.WithCheckpointEvery(w.CheckpointEvery),
	)
	if err != nil {
		return RecoveryResult{}, fmt.Errorf("bench: recover: %w", err)
	}
	res.RecoveryMS = float64(time.Since(recStart)) / float64(time.Millisecond)
	res.SnapshotBytesReplayed, res.WALRecordsReplayed = rec.RecoveryStats()
	recInbox := rec.Deliveries()
	if err := rec.Start(ctx); err != nil {
		return RecoveryResult{}, fmt.Errorf("bench: recovered start: %w", err)
	}
	nodes[0] = rec

	// --- catch-up -----------------------------------------------------
	catchStart := time.Now()
	caught := 0
	deadline := time.NewTimer(w.Timeout)
	defer deadline.Stop()
	for caught < w.PostMessages {
		select {
		case d, ok := <-recInbox:
			if !ok {
				return RecoveryResult{}, fmt.Errorf("bench: recovered node stopped mid-catchup (%s)", w)
			}
			observed.add(0, d)
			if postIDs[d.ID] {
				caught++
			}
		case <-deadline.C:
			return RecoveryResult{}, fmt.Errorf("bench: catch-up %d/%d before timeout (%s)", caught, w.PostMessages, w)
		}
	}
	res.CatchupMS = float64(time.Since(catchStart)) / float64(time.Millisecond)
	// Keep watching the recovered node's inbox for a settle window after
	// catch-up: a late re-delivery (e.g. on a Task-1 retransmission a
	// tick later) must still trip the zero-re-deliveries gate, not slip
	// out unobserved because the loop above already had what it wanted.
	settle := time.NewTimer(10 * w.TickEvery)
	defer settle.Stop()
settleLoop:
	for {
		select {
		case d, ok := <-recInbox:
			if !ok {
				break settleLoop
			}
			observed.add(0, d)
		case <-settle.C:
			break settleLoop
		}
	}
	if w.Algo == AlgoQuiescent {
		// The survivors were blocked on the durable node; they complete
		// only now.
		if err := observed.drain(inboxes, 1, w.PostMessages, w.Timeout); err != nil {
			return RecoveryResult{}, fmt.Errorf("bench: post-recovery drain: %w (%s)", err, w)
		}
	}
	res.Redelivered = redelivered(w.N, observed)
	return res, nil
}

// deliveryLog records the deliveries a run observes, for the referee.
type deliveryLog []trace.Event

func (l *deliveryLog) add(proc int, d node.Delivery) {
	*l = append(*l, trace.Event{Kind: trace.KindDeliver, Proc: proc, ID: d.ID})
}

// drain waits until every inbox from index first on yielded want more
// deliveries, recording them.
func (l *deliveryLog) drain(inboxes []<-chan node.Delivery, first, want int, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for i := first; i < len(inboxes); i++ {
		for k := 0; k < want; k++ {
			select {
			case d, ok := <-inboxes[i]:
				if !ok {
					return fmt.Errorf("inbox %d closed at %d/%d", i, k, want)
				}
				l.add(i, d)
			case <-deadline.C:
				return fmt.Errorf("inbox %d stuck at %d/%d deliveries", i, k, want)
			}
		}
	}
	return nil
}

// redelivered is trace.Checker's re-delivery count over the deliveries
// (and adoptions) of an n-process run not checked for convergence.
func redelivered(n int, events []trace.Event) uint64 {
	c := trace.NewChecker(n, make([]bool, n))
	c.CheckConvergent = false
	return uint64(c.Check(events).Redelivered)
}

// RecoveryMatrix returns the standard recovery benchmark cells: the
// majority algorithm at growing pre-crash batch sizes — which grows the
// WAL, the "recovery latency vs WAL length" axis — in both checkpointed
// and WAL-only modes, plus one quiescent cell exercising the
// cluster-blocked-until-recovery regime. quick trims to CI sizes.
func RecoveryMatrix(seed uint64, quick bool) []RecoveryWorkload {
	sizes := []int{8, 32, 128}
	if quick {
		sizes = []int{8, 32}
	}
	var ws []RecoveryWorkload
	for _, msgs := range sizes {
		for _, mode := range []time.Duration{5 * time.Millisecond, time.Hour} {
			ws = append(ws, RecoveryWorkload{
				Algo:            AlgoMajority,
				N:               5,
				Messages:        msgs,
				CheckpointEvery: mode,
				Seed:            seed,
				Timeout:         120 * time.Second,
			})
		}
	}
	ws = append(ws, RecoveryWorkload{
		Algo:            AlgoQuiescent,
		N:               5,
		Messages:        8,
		CheckpointEvery: 20 * time.Millisecond,
		Seed:            seed,
		Timeout:         120 * time.Second,
	})
	return ws
}
