// Package anonurb implements Uniform Reliable Broadcast (URB) for
// anonymous asynchronous message-passing systems with fair lossy
// channels, reproducing Tang, Larrea, Arévalo and Jiménez, "Implementing
// Uniform Reliable Broadcast in Anonymous Distributed Systems with Fair
// Lossy Channels" (IPDPS Workshops 2015).
//
// # What URB gives you
//
// URB_broadcast(m) / URB_deliver(m) with three guarantees, even though
// processes have no identifiers, any of them may crash, and the network
// may lose arbitrarily many messages (as long as it is "fair": a message
// retransmitted forever is eventually received):
//
//   - Validity: a correct broadcaster eventually delivers its own m.
//   - Uniform agreement: if ANY process delivers m — even one that
//     crashes right after — every correct process eventually delivers m.
//   - Uniform integrity: m is delivered at most once, and only if it was
//     broadcast.
//
// # The two algorithms
//
// NewMajority (the paper's Algorithm 1) needs no failure detector but
// assumes a majority of processes never crash; it retransmits forever
// (non-quiescent). NewQuiescent (Algorithm 2) consumes the anonymous
// failure detectors AΘ and AP* (package view: fd.Detector), tolerates any
// number of crashes, and eventually stops sending entirely.
//
// # How to run them
//
// The algorithms are deterministic state machines (Process); you feed
// them received messages and periodic ticks and execute the broadcasts
// and deliveries they return. Three hosts are provided:
//
//   - NewNode: the production surface — one Node per process, each on a
//     pluggable Transport (in-process mesh, real UDP sockets, or either
//     behind a Chaos loss injector), with a context-scoped lifecycle;
//   - SimConfig/NewSimEngine: the deterministic discrete-event simulator
//     used by the experiment suite (internal/sim);
//   - StartCluster: an index-addressed convenience wrapper that runs N
//     nodes on an in-process mesh (internal/liverun) — see examples/.
//
// # Quick start
//
// Byte payloads in, deliveries out; the transport decides what network
// the node lives on:
//
//	const n = 3
//	mesh := anonurb.NewMeshNetwork(anonurb.MeshConfig{
//		N:    n,
//		Link: anonurb.Bernoulli{P: 0.2, D: anonurb.UniformDelay{Min: 1, Max: 5}},
//	})
//	ctx := context.Background()
//	nodes := make([]*anonurb.Node, n)
//	for i := range nodes {
//		proc := anonurb.NewMajority(n, anonurb.NewTagSource(uint64(i+1)), anonurb.Config{})
//		nodes[i] = anonurb.NewNode(proc, mesh.Endpoint(i), anonurb.WithSeed(uint64(i)))
//		defer nodes[i].Stop()
//	}
//	deliveries := nodes[0].Deliveries() // subscribe before Start
//	for _, nd := range nodes {
//		nd.Start(ctx)
//	}
//	nodes[2].Broadcast([]byte("hello, anonymous world"))
//	d := <-deliveries
//	fmt.Printf("node 0 URB-delivered %q\n", d.Body())
//
// Swap mesh.Endpoint(i) for a transport from UDPGroup to run the same
// code over real sockets, or wrap any transport with NewChaosTransport
// to inject simulator loss models into it. See examples/quickstart for
// the complete program (both transports, same node code), DESIGN.md for
// the architecture and EXPERIMENTS.md for the evaluation suite.
package anonurb

import (
	"context"
	"io"
	"time"

	"anonurb/internal/admit"
	"anonurb/internal/channel"
	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/liverun"
	"anonurb/internal/node"
	"anonurb/internal/obs"
	"anonurb/internal/rb"
	"anonurb/internal/sim"
	"anonurb/internal/store"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// Core algorithm surface (internal/urb).
type (
	// Process is a URB algorithm instance: a deterministic state machine
	// driven by Receive/Tick/Broadcast.
	Process = urb.Process
	// Step is the output of one state-machine transition.
	Step = urb.Step
	// Delivery is one URB-delivery.
	Delivery = urb.Delivery
	// Stats reports a process's internal set sizes.
	Stats = urb.Stats
	// Config carries the algorithm knobs; the zero value is the
	// paper-faithful configuration.
	Config = urb.Config
	// Snapshotter is the state export/import surface of the durable
	// algorithms (DESIGN.md §9).
	Snapshotter = urb.Snapshotter
	// DurableProcess is the full crash-recovery contract: Process plus
	// snapshot export/import, WAL replay and the post-recovery Rejoin.
	// Both paper algorithms and the heartbeat host implement it.
	DurableProcess = urb.Durable
	// DurableEvent is one write-ahead record (delivery, tag_ack pin or
	// local broadcast).
	DurableEvent = urb.DurableEvent
	// SnapshotInfo summarises a verified state snapshot.
	SnapshotInfo = urb.SnapshotInfo
)

// VerifySnapshot decodes a durable-state snapshot, recomputes its state
// fingerprint and checks it against the embedded digest (what
// `urbcheck -snapshot` runs).
func VerifySnapshot(data []byte) (SnapshotInfo, error) { return urb.VerifySnapshot(data) }

// NewMajority builds the paper's Algorithm 1 (majority-based URB, no
// failure detector, non-quiescent) for a system of n processes.
func NewMajority(n int, tags *TagSource, cfg Config) Process {
	return urb.NewMajority(n, tags, cfg)
}

// NewQuiescent builds the paper's Algorithm 2 (quiescent URB with AΘ and
// AP*, any number of crashes).
func NewQuiescent(det Detector, tags *TagSource, cfg Config) Process {
	return urb.NewQuiescent(det, tags, cfg)
}

// NewHeartbeatHost builds the oracle-free stack: Algorithm 2 over a
// heartbeat-realised detector, ALIVE beats multiplexed on the same mesh.
// timeout is the trust window and beatEvery emits a beat on every k-th
// tick, both in the host runtime's time units.
func NewHeartbeatHost(tags *TagSource, timeout int64, beatEvery int, clock func() int64, cfg Config) Process {
	return urb.NewHeartbeatHost(tags, timeout, beatEvery, clock, cfg)
}

// Baselines (internal/rb), for comparison studies. None of these is a
// URB: see the package documentation of internal/rb and experiments T5,
// T6 and F7 for what each gives up.

// NewBestEffort builds the best-effort broadcast baseline (send once,
// deliver on reception; integrity only).
func NewBestEffort(tags *TagSource) Process { return rb.NewBestEffort(tags) }

// NewEagerRB builds the eager (one-shot flooding) reliable broadcast
// baseline; its guarantees assume reliable channels.
func NewEagerRB(tags *TagSource) Process { return rb.NewEagerRB(tags) }

// NewAnonymousRB builds the companion technical report's anonymous
// reliable (non-uniform) broadcast: deliver on first reception,
// retransmit forever.
func NewAnonymousRB(tags *TagSource) Process { return rb.NewAnonymousRB(tags) }

// NewIDedURB builds the classic identifier-based majority URB, the
// non-anonymous comparator.
func NewIDedURB(id, n int, tags *TagSource) Process { return rb.NewIDed(id, n, tags) }

// Identifiers (internal/ident, internal/wire).
type (
	// Tag is a 128-bit anonymous identifier (message tag, ack tag, or
	// failure detector label).
	Tag = ident.Tag
	// TagSource draws fresh tags deterministically.
	TagSource = ident.Source
	// MsgID identifies an application message: (payload, tag).
	MsgID = wire.MsgID
	// Message is a wire message (MSG or ACK).
	Message = wire.Message
)

// NewTagSource returns a tag stream seeded from seed.
func NewTagSource(seed uint64) *TagSource {
	return ident.NewSource(xrand.New(seed))
}

// NewFlowTagSource returns a tag stream whose tags all carry flow as
// their Hi half (Lo stays a fresh draw per tag), giving every broadcast
// a per-process flow key the admission stage can classify on with zero
// wire changes. This trades linkability for fairness — all of one
// process's broadcasts share a visible prefix — and is strictly opt-in;
// NewTagSource keeps full anonymity. flow must be nonzero.
func NewFlowTagSource(flow, seed uint64) *TagSource {
	return ident.NewFlowSource(flow, xrand.New(seed))
}

// Failure detectors (internal/fd).
type (
	// Detector is the per-process AΘ/AP* handle Algorithm 2 consumes.
	Detector = fd.Detector
	// FDPair is one (label, number) view element.
	FDPair = fd.Pair
	// FDView is a failure detector output.
	FDView = fd.View
	// Oracle synthesises legal AΘ/AP* views for a known crash schedule.
	Oracle = fd.Oracle
	// OracleConfig parameterises the oracle.
	OracleConfig = fd.OracleConfig
	// NoiseMode selects the oracle's pre-stabilisation behaviour.
	NoiseMode = fd.NoiseMode
	// Heartbeat realises the detectors from periodic ALIVE messages
	// under partial synchrony.
	Heartbeat = fd.Heartbeat
)

// Oracle noise modes.
const (
	NoiseExact       = fd.NoiseExact
	NoiseBenign      = fd.NoiseBenign
	NoiseAdversarial = fd.NoiseAdversarial
)

// NewOracle builds a grounded failure detector oracle; correct[i] states
// whether process i stays up in the run.
func NewOracle(cfg OracleConfig, correct []bool) *Oracle {
	return fd.NewOracle(cfg, correct)
}

// NewHeartbeat builds the heartbeat realisation of the detectors.
func NewHeartbeat(label Tag, timeout int64, clock func() int64) *Heartbeat {
	return fd.NewHeartbeat(label, timeout, clock)
}

// Channel models (internal/channel).
type (
	// LinkModel decides drop/delay per copy on a directed link.
	LinkModel = channel.LinkModel
	// Verdict is a link's decision for one copy.
	Verdict = channel.Verdict
	// Delayer draws per-copy latencies.
	Delayer = channel.Delayer
	// Reliable never drops.
	Reliable = channel.Reliable
	// Bernoulli drops each copy independently with probability P.
	Bernoulli = channel.Bernoulli
	// GilbertElliott is the two-state burst-loss model.
	GilbertElliott = channel.GilbertElliott
	// DropFirst drops the first K copies per link.
	DropFirst = channel.DropFirst
	// Partition cuts cross-group traffic until a given time.
	Partition = channel.Partition
	// Blackhole drops everything (NOT fair; for impossibility studies).
	Blackhole = channel.Blackhole
	// SlowSink starves one destination for its first K inbound copies.
	SlowSink = channel.SlowSink
	// FixedDelay is a constant latency.
	FixedDelay = channel.FixedDelay
	// UniformDelay draws latencies uniformly from [Min, Max].
	UniformDelay = channel.UniformDelay
	// ExpDelay draws Base + Exp(Mean) latencies.
	ExpDelay = channel.ExpDelay
)

// Deterministic simulation (internal/sim).
type (
	// SimConfig describes a deterministic simulator run.
	SimConfig = sim.Config
	// SimEngine executes one run.
	SimEngine = sim.Engine
	// SimResult summarises a completed run.
	SimResult = sim.Result
	// SimEnv is what a process factory receives.
	SimEnv = sim.Env
	// ScheduledBroadcast injects a URB-broadcast into a run.
	ScheduledBroadcast = sim.ScheduledBroadcast
)

// Never marks a process that does not crash in a simulator schedule.
const Never = sim.Never

// NewSimEngine builds a deterministic simulation run.
func NewSimEngine(cfg SimConfig) *SimEngine {
	return sim.NewEngine(cfg)
}

// Node runtime (internal/node): one process on a pluggable transport.
type (
	// Node hosts one Process on a Transport with a context-scoped
	// lifecycle: Start(ctx), Broadcast([]byte), Deliveries(), Stop().
	Node = node.Node
	// NodeDelivery is one URB-delivery observed on a Node.
	NodeDelivery = node.Delivery
	// NodeOption configures a Node (WithTickEvery, WithSeed,
	// WithObserver, WithInboxDepth).
	NodeOption = node.Option
	// Observer receives node events
	// (broadcast/send/receive/deliver/quiescence).
	Observer = node.Observer
	// NodeMetrics is an Observer aggregating node events with the
	// internal metrics toolkit.
	NodeMetrics = node.Metrics
	// NodeMetricsSnapshot is a point-in-time copy of NodeMetrics.
	NodeMetricsSnapshot = node.Snapshot
)

// Node lifecycle errors.
var (
	ErrNodeNotRunning     = node.ErrNotRunning
	ErrNodeAlreadyStarted = node.ErrAlreadyStarted
	ErrNodeBodyTooLarge   = node.ErrBodyTooLarge
)

// MaxBody is the largest payload the wire codec carries; Node.Broadcast
// rejects longer bodies with ErrNodeBodyTooLarge.
const MaxBody = wire.MaxBody

// MaxUDPFrame is the UDP transport's frame budget (the real IPv4
// datagram payload ceiling); it is also the default mesh frame budget,
// so batch framing behaves identically on both transports.
const MaxUDPFrame = transport.MaxUDPFrame

// NewNode builds a node hosting proc on tr. The node takes ownership of
// the transport (Stop closes it). Call Start to run it.
func NewNode(proc Process, tr Transport, opts ...NodeOption) *Node {
	return node.New(proc, tr, opts...)
}

// WithTickEvery sets a node's Task-1 tick period (default 10ms).
func WithTickEvery(d time.Duration) NodeOption { return node.WithTickEvery(d) }

// WithSeed seeds a node's local randomness (tick phase).
func WithSeed(seed uint64) NodeOption { return node.WithSeed(seed) }

// WithObserver installs a node event observer.
func WithObserver(obs Observer) NodeOption { return node.WithObserver(obs) }

// WithInboxDepth sets the capacity of a node's delivery queue.
func WithInboxDepth(depth int) NodeOption { return node.WithInboxDepth(depth) }

// Observability (internal/obs): per-message lifecycle tracing, the live
// introspection endpoint and the delivery stall explainer (DESIGN.md
// §14).
type (
	// Tracer is a bounded per-node ring of typed lifecycle events
	// (BROADCAST, FIRST_SEND, RECV, ACK_PROGRESS, DELIVER, RETIRE, ...).
	Tracer = obs.Tracer
	// TraceEvent is one recorded lifecycle event.
	TraceEvent = obs.Event
	// Explanation is the stall explainer's report: exactly which
	// delivery evidence a message is still missing.
	Explanation = obs.Explanation
	// DebugServer is the live introspection endpoint (obs.Serve).
	DebugServer = obs.Server
	// DebugOptions configures the endpoint's routes.
	DebugOptions = obs.ServeOptions
)

// NewTracer builds a lifecycle tracer for the given node index with a
// ring of capacity events (0 selects the default) and wall-clock
// timestamps. Install it with WithTracer; read it with Tracer.Events,
// WriteChromeTrace or MergeTraces.
func NewTracer(nodeIndex, capacity int) *Tracer {
	return obs.New(nodeIndex, capacity, func() int64 { return time.Now().UnixNano() })
}

// WithTracer installs a lifecycle tracer into a node and its hosted
// algorithm. The zero configuration — no tracer — has no overhead.
func WithTracer(t *Tracer) NodeOption { return node.WithTracer(t) }

// MergeTraces merges per-node traces into one time-ordered event list.
func MergeTraces(tracers ...*Tracer) []TraceEvent { return obs.Merge(tracers...) }

// WriteChromeTrace writes events as Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing. Pass nanos=true
// for traces stamped by NewTracer's wall clock.
func WriteChromeTrace(w io.Writer, evs []TraceEvent, nanos bool) error {
	return obs.WriteChromeTrace(w, evs, nanos)
}

// ServeDebug starts the live introspection endpoint on addr
// ("127.0.0.1:0" picks a free port): /debug/vars, /debug/pprof,
// /metrics (Prometheus text over m's aggregates, when m is non-nil),
// /trace.json, /report and /explain. Close the returned server when
// done.
func ServeDebug(addr string, tracers []*Tracer, m *NodeMetrics) (*DebugServer, error) {
	opts := obs.ServeOptions{Tracers: tracers, Nanos: true}
	if m != nil {
		opts.Gauges = m.Gauges
	}
	return obs.Serve(addr, opts)
}

// WithBatching enables or disables batched sending (default enabled):
// all broadcasts of one algorithm step are coalesced into concatenated
// batch frames no larger than the transport's FrameBudget. Batch
// framing adds zero bytes; disabling restores one frame per wire
// message. Receiving handles batch frames in both modes.
func WithBatching(enabled bool) NodeOption { return node.WithBatching(enabled) }

// WithEncodeCacheSize bounds the node's per-message encode cache, which
// serves the byte-identical MSG frames Task 1 retransmits every tick.
func WithEncodeCacheSize(entries int) NodeOption { return node.WithEncodeCacheSize(entries) }

// Flow-fairness admission (internal/admit, DESIGN.md §11).
type (
	// AdmitConfig parameterises a node's admission stage: per-flow fair
	// share (Rate bytes/s, Burst bytes), demotion Penalty, lane depths,
	// tracked-flow table size, and the FIFO measurement baseline.
	AdmitConfig = admit.Config
	// AdmitStats is an admission stage's counter snapshot.
	AdmitStats = admit.Stats
	// AdmitFlowStats is one demoted flow's accounting within AdmitStats.
	AdmitFlowStats = admit.FlowStats
)

// WithAdmission interposes a flow-fairness admission stage between a
// node's transport and its inbox: traffic is classified per broadcaster
// flow (see NewFlowTagSource), heavy hitters exceeding cfg's fair share
// are demoted to a droppable low-priority lane, and everyone else's
// MSG/ACK frames keep flowing. Admission only drops or reorders before
// the algorithm sees a message — behaviour a fair lossy channel was
// always allowed — so D1–D5 are untouched (DESIGN.md §11). Inspect the
// stage with Node.AdmitStats, per-flow deliveries with
// Node.FlowDeliveries.
func WithAdmission(cfg AdmitConfig) NodeOption { return node.WithAdmission(cfg) }

// NewNodeMetrics returns an empty metrics-collecting Observer.
func NewNodeMetrics() *NodeMetrics { return node.NewMetrics() }

// Durable state (internal/store + the node recovery path, DESIGN.md §9).
type (
	// Store persists a node's durable URB state: compacted snapshots
	// plus a write-ahead log of deliveries, tag_ack pins and local
	// broadcasts.
	Store = store.Store
	// MemStore is the in-memory Store (tests and simulations).
	MemStore = store.Mem
	// FileStore is the file-backed Store: snapshot.bin (atomic
	// replacement) and wal.log (append-only, checksummed, torn-tail
	// tolerant) in one directory per process.
	FileStore = store.File
	// StoreStats reports a store's size counters.
	StoreStats = store.Stats
	// NodeStoreStats reports a node's durability activity.
	NodeStoreStats = node.StoreStats
)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return store.NewMem() }

// OpenFileStore opens (creating if needed) a file-backed store
// directory.
func OpenFileStore(dir string) (*FileStore, error) { return store.OpenFile(dir) }

// WithStore makes a node durable: durable events are write-ahead-logged
// to st and the state machine is checkpointed on the WithCheckpointEvery
// cadence. The process must implement DurableProcess and st must be
// empty (a populated store is a restart — use RecoverNode); NewNode
// panics on either violation.
func WithStore(st Store) NodeOption { return node.WithStore(st) }

// WithCheckpointEvery sets a durable node's checkpoint cadence (default
// 1s). Shorter cadences bound the WAL replayed at recovery.
func WithCheckpointEvery(d time.Duration) NodeOption { return node.WithCheckpointEvery(d) }

// RecoverNode rebuilds a node from its durable state: proc must be a
// freshly constructed process with the same constructor parameters (and
// tag-stream seed) as the crashed one; the store's snapshot is restored
// into it, the WAL replayed, and the returned node — once started —
// resumes where its predecessor stopped: it re-delivers nothing it
// delivered and re-acks under the tag_acks it pinned.
func RecoverNode(proc Process, st Store, tr Transport, opts ...NodeOption) (*Node, error) {
	return node.Recover(proc, st, tr, opts...)
}

// JoinNode bootstraps a brand-new process into a running cluster
// (DESIGN.md §13): it solicits a state snapshot from the live peers over
// tr (SNAPREQ/SNAPCHUNK, chunked under the transport's frame budget,
// resumable under loss), verifies whichever container completes first,
// restores it into proc and adopts it under a fresh anonymous identity —
// the donor's delivered history is never re-delivered. proc must be a
// freshly constructed DurableProcess; st (which must be empty) becomes
// the joiner's durable store. The returned node is already started.
// There is no leave call: a departing node just stops — to the survivors
// a leave is indistinguishable from a crash, and the detectors' label
// purge eventually forgets it.
func JoinNode(ctx context.Context, proc Process, st Store, tr Transport, opts ...NodeOption) (*Node, error) {
	nd, err := node.Join(ctx, proc, st, tr, opts...)
	if err != nil {
		return nil, err
	}
	if err := nd.Start(ctx); err != nil {
		return nil, err
	}
	return nd, nil
}

// WithJoinFloor makes JoinNode reject donor snapshots below the given
// incarnation — protection against a stale donor serving state from
// before a known restart.
func WithJoinFloor(incarnation uint64) NodeOption { return node.WithJoinFloor(incarnation) }

// WithJoinTimeout sets how long JoinNode lets a transfer stall before
// abandoning it and re-soliciting from scratch (default 500ms) — this is
// how a mid-transfer donor crash is survived.
func WithJoinTimeout(d time.Duration) NodeOption { return node.WithJoinTimeout(d) }

// Transports (internal/transport): the swappable communication
// substrate carrying encoded wire frames.
type (
	// Transport carries encoded frames from one node to every node
	// (self included): Send, Receive, Close.
	Transport = transport.Transport
	// MeshNetwork joins N in-process endpoints over a lossy link mesh.
	MeshNetwork = transport.Mesh
	// MeshConfig describes a MeshNetwork.
	MeshConfig = transport.MeshConfig
	// UDPTransport is a Transport over real UDP sockets.
	UDPTransport = transport.UDP
	// ChaosTransport wraps another Transport with a LinkModel.
	ChaosTransport = transport.Chaos
	// ChaosConfig parameterises a ChaosTransport.
	ChaosConfig = transport.ChaosConfig
	// OverflowCounter is implemented by transports that count inbound
	// frames shed on a full inbox (receiver-side saturation, distinct
	// from link loss). See Node.InboxOverflows.
	OverflowCounter = transport.OverflowCounter
)

// NewMeshNetwork builds an in-process mesh; node i's transport is
// Endpoint(i).
func NewMeshNetwork(cfg MeshConfig) *MeshNetwork { return transport.NewMesh(cfg) }

// ListenUDP binds a UDP transport on addr (e.g. "127.0.0.1:0"); set its
// peer set with SetPeers before sending.
func ListenUDP(addr string, depth int) (*UDPTransport, error) {
	return transport.ListenUDP(addr, depth)
}

// UDPGroup binds n loopback UDP transports wired into one
// fully-connected group (self included).
func UDPGroup(n, depth int) ([]*UDPTransport, error) { return transport.UDPGroup(n, depth) }

// NewChaosTransport wraps inner with a loss/delay model, turning any
// transport into a reproduction of any simulator loss scenario.
func NewChaosTransport(inner Transport, cfg ChaosConfig) *ChaosTransport {
	return transport.NewChaos(inner, cfg)
}

// Live runtime (internal/liverun).
type (
	// ClusterConfig describes a live goroutine cluster.
	ClusterConfig = liverun.Config
	// Cluster is a running live cluster.
	Cluster = liverun.Cluster
	// ClusterDelivery is a delivery observed on a live cluster.
	ClusterDelivery = liverun.Delivery
	// ClusterFactory builds one live process.
	ClusterFactory = liverun.Factory
)

// StartCluster launches a live cluster.
func StartCluster(cfg ClusterConfig) *Cluster {
	return liverun.Start(cfg)
}
