// Package node hosts one URB algorithm instance (urb.Process) on a
// Transport: the paper's "process" realised as a runtime object with a
// context-scoped lifecycle.
//
// A Node owns one goroutine that serialises every interaction with the
// algorithm state machine — received frames, periodic Task-1 ticks, and
// application broadcasts — exactly as the urb.Process contract requires.
// At the transport boundary the node encodes outgoing wire.Messages with
// the canonical codec (internal/wire) and decodes inbound frames,
// dropping undecodable ones (a garbled frame is indistinguishable from a
// lost one, and fair lossy channels may lose anything).
//
// The transport is swappable (internal/transport): the same Node code
// runs on the in-process Mesh, on real UDP sockets, or on either wrapped
// in a Chaos loss injector.
package node

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"anonurb/internal/admit"
	"anonurb/internal/obs"
	"anonurb/internal/snapxfer"
	"anonurb/internal/store"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// Lifecycle errors.
var (
	// ErrNotRunning is returned by operations that need a started,
	// unstopped node.
	ErrNotRunning = errors.New("node: not running")
	// ErrAlreadyStarted is returned by a second Start.
	ErrAlreadyStarted = errors.New("node: already started")
	// ErrNotExplainable is returned by Explain when the hosted process
	// does not implement obs.Explainer.
	ErrNotExplainable = errors.New("node: process does not implement obs.Explainer")
	// ErrBodyTooLarge is returned by Broadcast for payloads the wire
	// codec cannot carry (len > wire.MaxBody). Rejecting here preserves
	// liveness: an uncarryable message would otherwise be retransmitted
	// forever without any transport being able to deliver it.
	ErrBodyTooLarge = errors.New("node: payload exceeds wire.MaxBody")
)

// Delivery is one URB-delivery handed to the application.
type Delivery struct {
	// ID identifies the delivered message (payload + tag).
	ID wire.MsgID
	// Fast reports the paper's fast-delivery case (evidence from ACKs
	// alone, no MSG copy seen).
	Fast bool
	// At is the wall-clock delivery time.
	At time.Time
}

// Body returns the delivered payload as a fresh byte slice.
func (d Delivery) Body() []byte { return d.ID.Bytes() }

// Observer receives node events. Callbacks fire synchronously on the
// node's goroutine: keep them fast, and synchronise externally if one
// Observer is shared between nodes.
type Observer interface {
	// OnBroadcast fires for every local URB_broadcast with the identity
	// the algorithm assigned and the submission time — the per-message
	// timestamp Metrics uses to measure true broadcast→deliver latency.
	OnBroadcast(id wire.MsgID, at time.Time)
	// OnSend fires once per wire message handed to the transport, with
	// that message's encoded bytes. When batching is enabled several
	// messages may travel in one transport frame; encoded is then the
	// message's own sub-slice of the batch frame, so summing
	// len(encoded) over OnSend calls still equals bytes on the wire
	// exactly (batch framing adds zero overhead). The slice is only
	// valid during the callback.
	OnSend(m wire.Message, encoded []byte)
	// OnReceive fires once per inbound wire message, before the
	// algorithm processes it — a batch frame fires it once per message
	// it carries. Frames nothing decoded from fire nothing (they count
	// in FrameStats' bad column instead).
	OnReceive(m wire.Message)
	// OnDeliver fires on each URB-delivery.
	OnDeliver(d Delivery)
	// OnQuiescence fires when the node transitions into quiescence: a
	// Task-1 tick produced no retransmissions and nothing else was sent
	// since the previous tick (having sent before). idle is the time
	// since the node's last send. The event re-arms after the next send,
	// so a quiescent algorithm (Algorithm 2) fires it once per silence.
	OnQuiescence(idle time.Duration)
}

// Hooks is an Observer made of callbacks, one per event; a nil field
// ignores its event, so a caller that watches only some events writes
// only those.
type Hooks struct {
	Broadcast  func(id wire.MsgID, at time.Time)
	Send       func(m wire.Message, encoded []byte)
	Receive    func(m wire.Message)
	Deliver    func(d Delivery)
	Quiescence func(idle time.Duration)
}

// OnBroadcast implements Observer.
func (h Hooks) OnBroadcast(id wire.MsgID, at time.Time) {
	if h.Broadcast != nil {
		h.Broadcast(id, at)
	}
}

// OnSend implements Observer.
func (h Hooks) OnSend(m wire.Message, encoded []byte) {
	if h.Send != nil {
		h.Send(m, encoded)
	}
}

// OnReceive implements Observer.
func (h Hooks) OnReceive(m wire.Message) {
	if h.Receive != nil {
		h.Receive(m)
	}
}

// OnDeliver implements Observer.
func (h Hooks) OnDeliver(d Delivery) {
	if h.Deliver != nil {
		h.Deliver(d)
	}
}

// OnQuiescence implements Observer.
func (h Hooks) OnQuiescence(idle time.Duration) {
	if h.Quiescence != nil {
		h.Quiescence(idle)
	}
}

// node run states.
const (
	stateNew int32 = iota
	stateRunning
	stateStopped
)

// options collects the functional options of NewNode.
type options struct {
	tickEvery       time.Duration
	seed            uint64
	observer        Observer
	inboxDepth      int
	batching        bool
	cacheSize       int
	store           store.Store
	checkpointEvery time.Duration
	admission       *admit.Config
	// tracer is the lifecycle tracer (DESIGN.md §14); nil — the zero
	// value — is off.
	tracer *obs.Tracer
	// recovered marks a node built by Recover, whose store legitimately
	// holds the predecessor's state at construction time.
	recovered bool
	// joinFrom/joinFloor/joinTimeout configure Join (join.go).
	joinFrom    []byte
	joinFloor   uint64
	joinTimeout time.Duration
}

// withRecovered is the internal option Recover uses to bypass New's
// populated-store refusal (the store holding state is the whole point
// there).
func withRecovered() Option {
	return func(o *options) { o.recovered = true }
}

// Option configures a Node.
type Option func(*options)

// WithTickEvery sets the Task-1 tick period (default 10ms).
func WithTickEvery(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.tickEvery = d
		}
	}
}

// WithSeed seeds the node's local randomness — currently the phase shift
// of the first tick, which keeps a cluster of nodes from ticking in
// lockstep. Nodes with different seeds get different phases.
func WithSeed(seed uint64) Option {
	return func(o *options) { o.seed = seed }
}

// WithObserver installs an event observer.
func WithObserver(obs Observer) Option {
	return func(o *options) { o.observer = obs }
}

// WithInboxDepth sets the capacity of the Deliveries queue (default
// 256). When the queue is full the node applies backpressure: it stops
// processing until the application drains (or the context is
// cancelled). Deliveries are never silently dropped.
func WithInboxDepth(depth int) Option {
	return func(o *options) {
		if depth > 0 {
			o.inboxDepth = depth
		}
	}
}

// WithBatching enables or disables batched sending (default enabled).
// When enabled, all broadcasts of one algorithm Step — a Task-1 tick's
// retransmissions, or the ACK replies to one inbound batch — are
// coalesced into as few transport frames as the transport's FrameBudget
// allows; batch framing is pure concatenation, so this reduces frame
// count (and per-frame cost: syscalls, channel ops, allocations)
// without adding a single byte. When disabled, every wire message
// travels in its own frame — the pre-batching behaviour, kept for
// comparison benchmarks and for peers that cannot split batch frames.
// Receiving is always batch-capable in both modes.
func WithBatching(enabled bool) Option {
	return func(o *options) { o.batching = enabled }
}

// WithEncodeCacheSize bounds the node's per-MsgID encode cache (default
// wire.DefaultEncodeCacheSize entries). The cache serves the byte-
// identical MSG frames Task 1 retransmits every tick without
// re-encoding them; size it to the expected |MSG_i| working set.
func WithEncodeCacheSize(entries int) Option {
	return func(o *options) {
		if entries > 0 {
			o.cacheSize = entries
		}
	}
}

// WithStore makes the node durable (DESIGN.md §9): durable events —
// deliveries, tag_ack pins, local broadcasts — are written ahead to st's
// WAL before the node acts on the Step that produced them, and the full
// state machine is checkpointed to st on the WithCheckpointEvery cadence
// (compacting the WAL). A node built this way can be restarted with
// Recover. The process must implement urb.Durable (both paper algorithms
// and the heartbeat host do), and the store must be empty — a store
// already holding state is a restart, which must go through Recover;
// New panics on either violation. The node does not
// take ownership of the store — Stop leaves it open so a supervisor can
// Recover from it.
func WithStore(st store.Store) Option {
	return func(o *options) { o.store = st }
}

// WithCheckpointEvery sets the checkpoint cadence (default 1s). Shorter
// cadences bound the WAL replayed at recovery; longer ones amortise the
// snapshot cost. Checkpoints ride the Task-1 tick, so the effective
// cadence is quantised to WithTickEvery.
func WithCheckpointEvery(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.checkpointEvery = d
		}
	}
}

// WithAdmission interposes a flow-fairness admission stage (DESIGN.md
// §11, internal/admit) between the transport and the node's inbox: each
// inbound message is classified by broadcaster flow (wire.FlowOf of its
// broadcast tag), metered against a per-flow leaky bucket, and demoted
// to a droppable low-priority lane when its flow exceeds its fair
// share. Admission only drops or reorders traffic *before* the
// algorithm absorbs it — something the fair lossy channel was always
// allowed to do — so the paper's properties are untouched; what it buys
// is that one hot broadcaster can no longer evict everyone else's
// MSG/ACK frames from a finite inbox. The node takes ownership of the
// stage exactly as it does of the raw transport.
//
// Flow classification is only meaningful when broadcasters pin their
// tags' Hi halves (ident.NewFlowSource); unpinned broadcasters degrade
// to one flow per message, which admission treats as a crowd of small
// flows (never demoted at any sane Rate).
func WithAdmission(cfg admit.Config) Option {
	return func(o *options) { o.admission = &cfg }
}

// WithTracer installs a lifecycle tracer (DESIGN.md §14): the node
// emits host-level events (snapshot transfer, admission demotions) and
// installs the tracer into the algorithm's emit sites when the process
// implements obs.Traceable (both paper algorithms and the heartbeat
// host do). The zero value — no tracer — is off and costs one nil check
// per emit site; with a tracer installed, steady-state emits are
// allocation-free writes into the tracer's bounded ring.
func WithTracer(t *obs.Tracer) Option {
	return func(o *options) { o.tracer = t }
}

// Node hosts one urb.Process on a Transport.
type Node struct {
	proc urb.Process
	tr   transport.Transport
	opt  options

	// admission is the admit stage wrapped around the raw transport
	// (nil without WithAdmission); tr is then the stage itself.
	admission *admit.Transport

	flowMu sync.Mutex
	// flowDeliveries holds per-broadcaster-flow delivery counts, keyed
	// by wire.FlowOf of the delivered tag. Written on the node
	// goroutine, read by FlowDeliveries; guarded by flowMu.
	flowDeliveries map[uint64]uint64

	deliveries chan Delivery
	subscribed atomic.Bool
	actions    chan func(urb.Process)

	// lifeMu serialises lifecycle transitions (Start/Stop).
	lifeMu sync.Mutex
	// state is kept atomic (not lifeMu-guarded) so hot paths can read
	// the lifecycle phase without the lock.
	state   atomic.Int32
	started atomic.Bool // ever Started (stays true after Stop)
	// cancel tears down the loop's context; guarded by lifeMu, with one
	// happens-before exception on the loop goroutine (annotated there).
	cancel context.CancelFunc
	done   chan struct{}
	ctx    context.Context // set by loop; read only on the loop goroutine

	sentFrames atomic.Uint64
	sentMsgs   atomic.Uint64
	recvFrames atomic.Uint64
	recvMsgs   atomic.Uint64
	badFrames  atomic.Uint64
	lastSend   atomic.Int64 // unix nanos; 0 = never sent

	// Per-class byte counters: MSG dissemination vs the ACK family
	// (full, delta, resync) vs BEAT heartbeats vs the join protocol's
	// snapshot transfer vs everything else. Splitting at the send path
	// is what lets benchmarks measure the labeled-ACK cost of
	// Algorithm 2 — the hottest wire path — separately from payload
	// dissemination, heartbeat traffic and join-time bulk transfer.
	sentMsgBytes   atomic.Uint64
	sentAckBytes   atomic.Uint64
	sentBeatBytes  atomic.Uint64
	sentSnapBytes  atomic.Uint64
	sentOtherBytes atomic.Uint64

	// Durability counters (store path; zero without WithStore).
	checkpoints     atomic.Uint64
	checkpointBytes atomic.Uint64
	walAppends      atomic.Uint64
	walBytes        atomic.Uint64
	storeErrMu      sync.Mutex
	// storeErr is the first durable-write failure; guarded by storeErrMu.
	storeErr    error
	storeBroken atomic.Bool

	// cache and budget belong to the loop goroutine (absorb path).
	cache  *wire.EncodeCache
	budget int

	// donor is the cached chunk server of the join protocol's snapshot
	// transfer (loop goroutine only; built on demand by serveSnap, and
	// replaced when a fresh solicitation arrives).
	donor *snapxfer.Donor

	// recoveredSnap/recoveredWAL record what Recover replayed to build
	// this node (zero for New-built nodes). Written before Start.
	recoveredSnap int
	recoveredWAL  int
	// joinedBytes records the donor container size a Join transferred to
	// build this node (zero otherwise). Written before Start.
	joinedBytes int

	// finalStats is the algorithm's last Stats snapshot, taken on the
	// node goroutine as the loop exits (or by a never-started Stop) and
	// published by the close of done: every close(done) site writes it
	// first, so any reader that has observed done closed may read it.
	finalStats urb.Stats
}

// New builds a node hosting proc on tr. The node takes ownership of the
// transport: Stop closes it. Start must be called before the node does
// anything.
func New(proc urb.Process, tr transport.Transport, opts ...Option) *Node {
	if proc == nil || tr == nil {
		panic("node: process and transport are required")
	}
	o := options{tickEvery: 10 * time.Millisecond, inboxDepth: 256, batching: true,
		checkpointEvery: time.Second}
	for _, f := range opts {
		f(&o)
	}
	if o.tracer != nil {
		if tp, ok := proc.(obs.Traceable); ok {
			tp.SetTracer(o.tracer)
		}
	}
	var stage *admit.Transport
	if o.admission != nil {
		acfg := *o.admission
		if t := o.tracer; t != nil {
			// Trace admitted→demoted transitions; the hook fires on the
			// stage's ingest goroutine, which the tracer tolerates.
			prev := acfg.OnDemote
			acfg.OnDemote = func(flow uint64) {
				t.AdmitDemote(flow)
				if prev != nil {
					prev(flow)
				}
			}
		}
		stage = admit.Wrap(tr, acfg)
		tr = stage
	}
	if o.store != nil {
		if _, ok := proc.(urb.Durable); !ok {
			panic("node: WithStore requires a urb.Durable process")
		}
		if st := o.store.Stats(); !o.recovered && (st.SnapshotBytes > 0 || st.WALRecords > 0) {
			// A populated store under a fresh process is almost certainly
			// a restart that should have gone through Recover: running on
			// would re-pin already-acked messages under fresh tags
			// (phantom ackers) and interleave two incarnations' WAL
			// records behind one snapshot. Refuse loudly.
			panic("node: store already holds durable state; restart with node.Recover, not New")
		}
	}
	return &Node{
		proc:           proc,
		tr:             tr,
		opt:            o,
		admission:      stage,
		flowDeliveries: make(map[uint64]uint64),
		deliveries:     make(chan Delivery, o.inboxDepth),
		actions:        make(chan func(urb.Process), 64),
		done:           make(chan struct{}),
		cache:          wire.NewEncodeCache(o.cacheSize),
		budget:         tr.FrameBudget(),
	}
}

// Start launches the node goroutine. The node runs until Stop is called
// or ctx is cancelled; either way the transport is closed and the
// Deliveries channel is closed once the loop has drained.
func (n *Node) Start(ctx context.Context) error {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	switch n.state.Load() {
	case stateRunning:
		return ErrAlreadyStarted
	case stateStopped:
		return ErrNotRunning
	}
	ctx, n.cancel = context.WithCancel(ctx)
	n.state.Store(stateRunning)
	n.started.Store(true)
	go n.loop(ctx)
	return nil
}

// Deliveries returns the channel of URB-deliveries. Subscribe (call
// this) before Start to observe every delivery; deliveries before the
// first call are dropped from the queue's point of view (observers still
// see them). The channel is closed when the node stops.
func (n *Node) Deliveries() <-chan Delivery {
	n.subscribed.Store(true)
	return n.deliveries
}

// Broadcast submits URB_broadcast(body) to the node and returns the
// message identity the algorithm assigned. The payload bytes are copied;
// the caller may reuse the slice. It fails with ErrNotRunning once the
// node has stopped.
func (n *Node) Broadcast(body []byte) (wire.MsgID, error) {
	if len(body) > wire.MaxBody {
		return wire.MsgID{}, ErrBodyTooLarge
	}
	if n.state.Load() != stateRunning {
		return wire.MsgID{}, ErrNotRunning
	}
	var id wire.MsgID
	if err := n.call(func(p urb.Process) func() {
		var s urb.Step
		id, s = p.Broadcast(body)
		if n.opt.observer != nil {
			n.opt.observer.OnBroadcast(id, time.Now())
		}
		return func() { n.absorb(s) }
	}); err != nil {
		return wire.MsgID{}, err
	}
	return id, nil
}

// call runs f on the node goroutine and waits for it to return; f's
// writes are visible to the caller afterwards (the reply channel is the
// synchronisation point). A non-nil after-hook returned by f runs on
// the node goroutine once the caller has been released — Broadcast
// absorbs its Step there, so a delivery-queue backpressure stall cannot
// deadlock a caller that is also the Deliveries drainer.
func (n *Node) call(f func(p urb.Process) func()) error {
	reply := make(chan struct{})
	act := func(p urb.Process) {
		after := f(p)
		close(reply)
		if after != nil {
			after()
		}
	}
	select {
	case n.actions <- act:
	case <-n.done:
		return ErrNotRunning
	}
	select {
	case <-reply:
		return nil
	case <-n.done:
		return ErrNotRunning
	}
}

// Explain runs the algorithm's stall explainer for id on the node
// goroutine (DESIGN.md §14): the returned obs.Explanation names the
// delivery evidence still missing. It fails with ErrNotRunning when the
// node is stopped, and with ErrNotExplainable when the hosted process
// does not implement obs.Explainer.
func (n *Node) Explain(id wire.MsgID) (obs.Explanation, error) {
	if _, ok := n.proc.(obs.Explainer); !ok {
		return obs.Explanation{}, ErrNotExplainable
	}
	var ex obs.Explanation
	err := n.call(func(p urb.Process) func() {
		ex = p.(obs.Explainer).Explain(id)
		return nil
	})
	return ex, err
}

// Tracer returns the tracer installed with WithTracer (nil without).
func (n *Node) Tracer() *obs.Tracer { return n.opt.tracer }

// Stats fetches the algorithm's internal set sizes, synchronised through
// the node goroutine. After Stop (or context cancellation) it returns
// the final snapshot taken as the loop exited, so post-run accounting —
// quiescence and memory experiments — keeps working on a stopped node.
// It fails with ErrNotRunning only before Start.
func (n *Node) Stats() (urb.Stats, error) {
	for {
		if n.state.Load() == stateRunning {
			var st urb.Stats
			if err := n.call(func(p urb.Process) func() {
				st = p.Stats()
				return nil
			}); err == nil {
				return st, nil
			}
			// The node stopped while we were asking: fall through to
			// the final snapshot (published by the close of done).
		}
		if !n.started.Load() {
			select {
			case <-n.done:
				// Stopped without ever starting: Stop published the
				// initial stats.
				return n.finalStats, nil
			default:
				return urb.Stats{}, ErrNotRunning // never started
			}
		}
		if n.state.Load() == stateRunning {
			// A concurrent Start won the race with our first state read:
			// the node is running after all — retry the live path rather
			// than parking on done for the node's whole lifetime.
			continue
		}
		// Started and no longer running: the loop closes done right
		// after publishing finalStats, so this wait is bounded — it
		// only blocks during the brief shutdown window between the loop
		// leaving stateRunning and closing done.
		<-n.done
		return n.finalStats, nil
	}
}

// Stop terminates the node, closes its transport and waits for the
// goroutine to exit. Idempotent; safe to call on a never-started node.
func (n *Node) Stop() error {
	n.lifeMu.Lock()
	switch n.state.Load() {
	case stateNew:
		// Never started: no goroutine, but release the transport and
		// close the delivery channel so consumers unblock. The algorithm
		// never ran, so its initial stats are the final ones.
		n.state.Store(stateStopped)
		n.finalStats = n.proc.Stats()
		close(n.done)
		close(n.deliveries)
		n.lifeMu.Unlock()
		return n.tr.Close()
	case stateRunning:
		n.state.Store(stateStopped)
		cancel := n.cancel
		n.lifeMu.Unlock()
		cancel()
		<-n.done
		return nil
	default:
		n.lifeMu.Unlock()
		<-n.done
		return nil
	}
}

// QuietFor reports whether the node has sent nothing for at least d
// (false until the first send).
func (n *Node) QuietFor(d time.Duration) bool {
	last := n.lastSend.Load()
	return last != 0 && time.Since(time.Unix(0, last)) >= d
}

// FrameStats returns (frames sent, frames received, frames discarded
// because no message decoded from them). A frame is one transport send;
// with batching enabled it may carry several wire messages, so frame
// counts are ≤ the message counts of MessageStats.
func (n *Node) FrameStats() (sent, received, bad uint64) {
	return n.sentFrames.Load(), n.recvFrames.Load(), n.badFrames.Load()
}

// MessageStats returns (wire messages sent, wire messages received).
// Unlike FrameStats it counts protocol messages, independent of how
// many were coalesced per transport frame.
func (n *Node) MessageStats() (sent, received uint64) {
	return n.sentMsgs.Load(), n.recvMsgs.Load()
}

// ByteStats returns the bytes this node handed to the transport, split
// by wire-message class: MSG dissemination, the ACK family (full-set,
// delta and resync frames), BEAT heartbeats, the join protocol's
// snapshot transfer (SNAPREQ/SNAPCHUNK), and everything else (future
// kinds). The sum equals exact bytes on the wire in both batching modes
// (batch framing adds zero bytes). Safe to poll while the node runs.
func (n *Node) ByteStats() (msgBytes, ackBytes, beatBytes, snapBytes, otherBytes uint64) {
	return n.sentMsgBytes.Load(), n.sentAckBytes.Load(), n.sentBeatBytes.Load(),
		n.sentSnapBytes.Load(), n.sentOtherBytes.Load()
}

// StoreStats describes the node's durability activity (all zero without
// WithStore).
type StoreStats struct {
	// Checkpoints and CheckpointBytes count snapshots saved and their
	// cumulative payload bytes.
	Checkpoints     uint64
	CheckpointBytes uint64
	// WALAppends and WALBytes count write-ahead records and their
	// cumulative payload bytes (across compactions).
	WALAppends uint64
	WALBytes   uint64
	// Err is the first store error, if any. After an error the node
	// stops persisting (and keeps serving): a half-written durable state
	// is worse than a clearly stale one, and the error is surfaced here
	// for the supervisor to act on.
	Err error
}

// StoreStats returns the durability counters. Safe to call while the
// node runs.
func (n *Node) StoreStats() StoreStats {
	n.storeErrMu.Lock()
	err := n.storeErr
	n.storeErrMu.Unlock()
	return StoreStats{
		Checkpoints:     n.checkpoints.Load(),
		CheckpointBytes: n.checkpointBytes.Load(),
		WALAppends:      n.walAppends.Load(),
		WALBytes:        n.walBytes.Load(),
		Err:             err,
	}
}

// failStore records the first store error and stops further persistence.
func (n *Node) failStore(err error) {
	n.storeErrMu.Lock()
	if n.storeErr == nil {
		n.storeErr = err
	}
	n.storeErrMu.Unlock()
	n.storeBroken.Store(true)
}

// walAppend writes one durable event ahead of the action it guards.
// Runs on the node goroutine.
func (n *Node) walAppend(ev urb.DurableEvent) {
	rec := ev.EncodeWAL()
	if err := n.opt.store.AppendWAL(rec); err != nil {
		n.failStore(err)
		return
	}
	n.walAppends.Add(1)
	n.walBytes.Add(uint64(len(rec)))
}

// checkpoint snapshots the state machine into the store (compacting the
// WAL). Runs on the node goroutine.
func (n *Node) checkpoint() {
	d := n.proc.(urb.Durable) // validated in New
	snap := d.Snapshot()
	if err := n.opt.store.SaveSnapshot(snap); err != nil {
		n.failStore(err)
		return
	}
	n.checkpoints.Add(1)
	n.checkpointBytes.Add(uint64(len(snap)))
}

// InboxOverflows reports how many inbound frames this node's transport
// discarded because its inbox was full — the receiver-side saturation
// signal — or false when the transport cannot count overflows. With an
// admission stage installed, lane sheds count as overflow too (they are
// the same phenomenon, moved to where it can be selective).
func (n *Node) InboxOverflows() (uint64, bool) {
	return transport.Overflows(n.tr)
}

// FlowDeliveries returns this node's URB-delivery counts per
// broadcaster flow (wire.FlowOf of the delivered tag). For nodes whose
// peers pin flow tags (ident.NewFlowSource) the map has one entry per
// broadcaster; unpinned peers contribute one entry per delivered
// message. The returned map is a copy; safe to call while running.
func (n *Node) FlowDeliveries() map[uint64]uint64 {
	n.flowMu.Lock()
	defer n.flowMu.Unlock()
	out := make(map[uint64]uint64, len(n.flowDeliveries))
	for f, c := range n.flowDeliveries {
		out[f] = c
	}
	return out
}

// AdmitStats returns the admission stage's accounting, or false when
// the node was built without WithAdmission.
func (n *Node) AdmitStats() (admit.Stats, bool) {
	if n.admission == nil {
		return admit.Stats{}, false
	}
	return n.admission.Stats(), true
}

// EncodeCacheStats returns the node's encode cache (hits, misses).
// Like the other counter accessors it is safe to call while the node
// runs (the counters are atomic).
func (n *Node) EncodeCacheStats() (hits, misses uint64) {
	return n.cache.Stats()
}

// loop is the node goroutine: the single thread that touches proc.
//
//urbvet:unguarded cancel is written exactly once, by Start, before the go statement that spawns this goroutine: reading it here is ordered by goroutine creation, no lock needed
func (n *Node) loop(ctx context.Context) {
	defer func() {
		n.state.Store(stateStopped)
		// Snapshot the algorithm's final stats so post-run accounting
		// (quiescence and memory experiments) survives Stop. Published
		// to other goroutines by the close of done below.
		n.finalStats = n.proc.Stats()
		// Release the derived context even when the loop exits on its
		// own (e.g. the transport's receive channel closed) — otherwise
		// the registration on a long-lived parent context would leak.
		n.cancel()
		n.tr.Close()
		close(n.done)
		close(n.deliveries)
	}()
	n.ctx = ctx

	// Phase-shift the first tick so a cluster of nodes does not run in
	// lockstep (the simulator does the same).
	phase := time.Duration(xrand.SplitLabeled(n.opt.seed, "node-phase").Int63n(int64(n.opt.tickEvery))) + 1
	tick := time.NewTimer(phase)
	defer tick.Stop()

	var sentAtLastTick uint64
	quiet := false
	lastCheckpoint := time.Now()
	walAtCheckpoint := n.walAppends.Load()
	for {
		select {
		case <-ctx.Done():
			return
		case frame, ok := <-n.tr.Receive():
			if !ok {
				return
			}
			// A frame carries one message or a whole batch — pure
			// concatenation either way, so DecodePrefix splits it. Each
			// message feeds the algorithm individually; the resulting
			// Steps are merged so the replies (e.g. the ACKs to a batch
			// of MSGs) can leave as one batch in turn. A corrupt tail
			// drops the remainder only — fair lossy channels may lose
			// anything, including half a batch.
			var step urb.Step
			decoded := false
			rest := frame
			for len(rest) > 0 {
				m, next, err := wire.DecodePrefix(rest)
				if err != nil {
					// Garbled (remainder of the) frame: drop it, as the
					// lossy channel could have.
					break
				}
				rest = next
				decoded = true
				n.recvMsgs.Add(1)
				if n.opt.observer != nil {
					n.opt.observer.OnReceive(m)
				}
				if m.Kind.IsSnap() {
					// Join-protocol traffic is host-level, the way beats
					// are detector-level: served (or ignored) here, never
					// shown to the algorithm.
					n.serveSnap(&step, m)
					continue
				}
				step.Merge(n.proc.Receive(m))
			}
			// Every inbound frame lands in exactly one counter: received
			// if at least one message decoded from it (a corrupt tail
			// loses only the tail), bad otherwise (empty frames
			// included).
			if decoded {
				n.recvFrames.Add(1)
			} else {
				n.badFrames.Add(1)
			}
			n.absorb(step)
		case <-tick.C:
			n.absorb(n.proc.Tick())
			tick.Reset(n.opt.tickEvery)
			// Checkpoint on cadence, but only when the WAL grew since the
			// last one: an idle (e.g. quiescent) node re-snapshotting an
			// unchanged state would be pure churn.
			if n.opt.store != nil && !n.storeBroken.Load() &&
				time.Since(lastCheckpoint) >= n.opt.checkpointEvery &&
				n.walAppends.Load() != walAtCheckpoint {
				n.checkpoint()
				lastCheckpoint = time.Now()
				walAtCheckpoint = n.walAppends.Load()
			}
			sent := n.sentFrames.Load()
			if sent == sentAtLastTick && sent > 0 {
				if !quiet {
					quiet = true
					if n.opt.observer != nil {
						idle := time.Since(time.Unix(0, n.lastSend.Load()))
						n.opt.observer.OnQuiescence(idle)
					}
				}
			} else {
				quiet = false
			}
			sentAtLastTick = n.sentFrames.Load()
		case f := <-n.actions:
			f(n.proc)
		}
	}
}

// absorb executes one Step: deliveries to the application, broadcasts to
// the transport. Runs on the node goroutine only.
//
// Broadcasts are coalesced into batch frames up to the transport's
// frame budget (batching mode), or sent one frame per message
// (unbatched mode). Either way every message's bytes come from the
// per-MsgID encode cache, so a steady-state Task-1 tick copies cached
// MSG frames instead of re-encoding each body.
//
//urb:hotpath
func (n *Node) absorb(s urb.Step) {
	// Write-ahead: pins, broadcasts and deliveries reach the WAL before
	// the node acts on the Step — before the ACK carrying a fresh tag_ack
	// leaves, and before a delivery is exposed to the application. A
	// crash after the WAL write but before the action loses nothing; a
	// crash before it loses an event the outside world never saw.
	if n.opt.store != nil && !n.storeBroken.Load() {
		for _, ev := range s.Durable {
			n.walAppend(ev)
		}
		for _, d := range s.Deliveries {
			n.walAppend(urb.DeliverEvent(d))
		}
	}
	for _, d := range s.Deliveries {
		del := Delivery{ID: d.ID, Fast: d.Fast, At: time.Now()}
		n.flowMu.Lock()
		n.flowDeliveries[wire.FlowOf(d.ID.Tag)]++
		n.flowMu.Unlock()
		if n.opt.observer != nil {
			n.opt.observer.OnDeliver(del)
		}
		if n.subscribed.Load() {
			select {
			case n.deliveries <- del:
			case <-n.ctx.Done():
				return
			}
		}
	}
	if len(s.Broadcasts) == 0 {
		return
	}
	var frame []byte
	flush := func() {
		if len(frame) == 0 {
			return
		}
		n.tr.Send(frame)
		n.sentFrames.Add(1)
		n.lastSend.Store(time.Now().UnixNano())
		frame = nil
	}
	for _, m := range s.Broadcasts {
		// Split before appending when the next message would push the
		// batch over the transport budget (wire.SplitsBatch, the same
		// rule EncodeBatch packs with). A message too large for the
		// budget on its own still travels alone, exactly as before
		// batching existed (the transport decides its fate: UDP counts
		// it Oversized, the mesh carries it).
		if wire.SplitsBatch(len(frame), m, n.budget) {
			flush()
		}
		start := len(frame)
		frame = n.cache.AppendEncoded(frame, m)
		n.sentMsgs.Add(1)
		switch {
		case m.Kind == wire.KindMsg:
			n.sentMsgBytes.Add(uint64(len(frame) - start))
		case m.Kind.IsAck():
			n.sentAckBytes.Add(uint64(len(frame) - start))
		case m.Kind.IsBeat():
			n.sentBeatBytes.Add(uint64(len(frame) - start))
		case m.Kind.IsSnap():
			n.sentSnapBytes.Add(uint64(len(frame) - start))
		default:
			n.sentOtherBytes.Add(uint64(len(frame) - start))
		}
		if n.opt.observer != nil {
			n.opt.observer.OnSend(m, frame[start:])
		}
		if !n.opt.batching {
			flush()
		}
	}
	flush()
}
