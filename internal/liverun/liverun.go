// Package liverun hosts the paper's algorithms as a live in-process
// cluster: N node.Node instances (one goroutine per anonymous process)
// joined by a transport.Mesh of lossy links with wall-clock delays.
//
// The deterministic simulator (internal/sim) is where experiments run;
// liverun exists to demonstrate the same state machines driving a real
// concurrent system — the examples under examples/ are built on it. It
// is deliberately thin: a Cluster is nothing but N nodes on an
// in-process transport plus index-based convenience accessors, so
// everything it does can also be done with the node and transport
// packages directly (see examples/quickstart for the same stack over
// real UDP sockets).
package liverun

import (
	"context"
	"fmt"
	"time"

	"anonurb/internal/admit"
	"anonurb/internal/channel"
	"anonurb/internal/ident"
	"anonurb/internal/node"
	"anonurb/internal/obs"
	"anonurb/internal/replay"
	"anonurb/internal/store"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// Factory builds the algorithm instance for one live process. index is
// bookkeeping (for wiring failure detector handles); clock reads the
// cluster's elapsed time in link-delay units.
type Factory func(index int, tags *ident.Source, clock func() int64) urb.Process

// Delivery is one URB-delivery observed on the cluster.
type Delivery struct {
	Proc    int
	ID      wire.MsgID
	Fast    bool
	Elapsed time.Duration
}

// Body returns the delivered payload as a fresh byte slice.
func (d Delivery) Body() []byte { return d.ID.Bytes() }

// Config describes a live cluster.
type Config struct {
	// N is the number of processes.
	N int
	// Factory builds each process (required).
	Factory Factory
	// Link is the loss/delay model shared by all directed links
	// (required). Delay values count in Units.
	Link channel.LinkModel
	// Unit converts the link model's abstract delay units and TickEvery
	// into wall-clock time. Defaults to 1ms.
	Unit time.Duration
	// TickEvery is the Task-1 period in Units. Defaults to 10.
	TickEvery int64
	// Seed drives the link randomness, tag streams and tick phases.
	Seed uint64
	// OnDeliver, if set, observes every URB-delivery. It is called from
	// node goroutines and must be safe for concurrent use.
	OnDeliver func(Delivery)
	// InboxDepth bounds each node's mesh mailbox; a full mailbox drops
	// copies (legal: the network is lossy anyway). Defaults to 1024.
	InboxDepth int
	// Stores[i], when non-nil, makes process i durable: its node
	// write-ahead-logs deliveries/pins/broadcasts to the store and
	// checkpoints on the CheckpointEvery cadence, and Cluster.Recover can
	// restart it after a Crash. Requires the Factory to build
	// urb.Durable processes for stored indices.
	Stores []store.Store
	// CheckpointEvery is the durable nodes' checkpoint cadence (default
	// 1s; see node.WithCheckpointEvery).
	CheckpointEvery time.Duration
	// Flows[i], when nonzero, pins process i's broadcast tags to that
	// flow key (ident.NewFlowSource): all of i's broadcasts share
	// Tag.Hi == Flows[i], which is what the admission stage classifies
	// on. nil or a zero entry leaves the process fully anonymous
	// (per-message flows).
	Flows []uint64
	// Admission, when non-nil, interposes a flow-fairness admission
	// stage in front of every node's inbox (node.WithAdmission).
	Admission *admit.Config
	// Chaos, when non-nil, wraps every node's mesh endpoint in its own
	// transport.Chaos with this configuration (per-node seeds derived
	// from the cluster seed, so senders decorrelate): outbound frames
	// are judged twice, once by the node's chaos wrapper and once by the
	// mesh links. Cluster.ChaosStats exposes the per-node drop/send
	// counters. The Seed/Src/Dst fields of the template are overridden
	// per node; Unit defaults to the cluster Unit.
	Chaos *transport.ChaosConfig
	// Trace enables per-node lifecycle tracing (DESIGN.md §14): every
	// node gets an obs.Tracer sized TraceCapacity (0: obs default) and
	// Cluster.Tracers/ServeDebug expose the merged trace. The zero value
	// is off — no tracers, no emit overhead.
	Trace bool
	// TraceCapacity is each node's trace ring size in events.
	TraceCapacity int
}

// Cluster is a running set of live processes: N nodes on one mesh.
type Cluster struct {
	cfg    Config
	start  time.Time
	mesh   *transport.Mesh
	nodes  []*node.Node
	ctx    context.Context
	cancel context.CancelFunc
	// tagClones[i] is process i's tag stream frozen at creation, for
	// rebuilding an identical stream on recovery.
	tagClones []*xrand.Source
	// tagRoot keeps splitting the seed tag stream past the founding N,
	// so processes added by Join draw fresh, non-colliding tags.
	tagRoot *xrand.Source
	// tracers[i] is process i's lifecycle tracer (nil unless cfg.Trace).
	// A recovered process keeps its predecessor's tracer: the ring then
	// shows the crash-spanning lifecycle.
	tracers []*obs.Tracer
	// chaos[i] is process i's current chaos wrapper (nil unless
	// cfg.Chaos); Recover and Join install fresh wrappers, and the
	// retired ones' counters fold into chaosShed so ChaosStats totals
	// survive restarts.
	chaos     []*transport.Chaos
	chaosShed []transport.ChaosStats
}

// Start builds and launches a cluster.
func Start(cfg Config) *Cluster {
	if cfg.N < 1 {
		panic("liverun: N must be >= 1")
	}
	if cfg.Factory == nil || cfg.Link == nil {
		panic("liverun: Factory and Link are required")
	}
	if cfg.Unit <= 0 {
		cfg.Unit = time.Millisecond
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 10
	}
	if cfg.InboxDepth <= 0 {
		cfg.InboxDepth = 1024
	}
	c := &Cluster{
		cfg:   cfg,
		start: time.Now(),
		mesh: transport.NewMesh(transport.MeshConfig{
			N:          cfg.N,
			Link:       cfg.Link,
			Unit:       cfg.Unit,
			Seed:       cfg.Seed,
			InboxDepth: cfg.InboxDepth,
		}),
		nodes: make([]*node.Node, cfg.N),
	}
	if cfg.Stores != nil && len(cfg.Stores) != cfg.N {
		panic("liverun: Stores length mismatch")
	}
	if cfg.Flows != nil && len(cfg.Flows) != cfg.N {
		panic("liverun: Flows length mismatch")
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.ctx, c.cancel = ctx, cancel
	c.tagClones = make([]*xrand.Source, cfg.N)
	c.tagRoot = xrand.SplitLabeled(cfg.Seed, "live-tags")
	for i := 0; i < cfg.N; i++ {
		src := c.tagRoot.Split()
		c.tagClones[i] = src.Clone()
		proc := cfg.Factory(i, c.tagSource(i, src), c.ElapsedUnits)
		c.nodes[i] = node.New(proc, c.transportFor(i, c.mesh.Endpoint(i)), c.nodeOptions(i)...)
	}
	for _, nd := range c.nodes {
		if err := nd.Start(ctx); err != nil {
			panic("liverun: node start: " + err.Error())
		}
	}
	return c
}

// transportFor wraps ep in process proc's own chaos wrapper when the
// cluster configures one (Config.Chaos), deriving a per-process seed so
// senders decorrelate. A predecessor wrapper's counters (crash/recover
// installs a fresh one) fold into the shed totals first, so ChaosStats
// stays cumulative across restarts.
func (c *Cluster) transportFor(proc int, ep transport.Transport) transport.Transport {
	if c.cfg.Chaos == nil {
		return ep
	}
	for len(c.chaos) <= proc {
		c.chaos = append(c.chaos, nil)
		c.chaosShed = append(c.chaosShed, transport.ChaosStats{})
	}
	if old := c.chaos[proc]; old != nil {
		s := old.StatsDetail()
		c.chaosShed[proc].Sends += s.Sends
		c.chaosShed[proc].Drops += s.Drops
		c.chaosShed[proc].Delayed += s.Delayed
	}
	ccfg := *c.cfg.Chaos
	ccfg.Seed = xrand.HashStream(c.cfg.Seed, 0xC4A05, uint64(proc))
	if ccfg.Unit <= 0 {
		ccfg.Unit = c.cfg.Unit
	}
	ch := transport.NewChaos(ep, ccfg)
	c.chaos[proc] = ch
	return ch
}

// ChaosStats returns the per-process chaos wrapper counters, cumulative
// across crash/recover restarts; nil when Config.Chaos is unset.
func (c *Cluster) ChaosStats() []transport.ChaosStats {
	if c.cfg.Chaos == nil {
		return nil
	}
	out := make([]transport.ChaosStats, len(c.nodes))
	for i := range out {
		if i < len(c.chaosShed) {
			out[i] = c.chaosShed[i]
		}
		if i < len(c.chaos) && c.chaos[i] != nil {
			s := c.chaos[i].StatsDetail()
			out[i].Sends += s.Sends
			out[i].Drops += s.Drops
			out[i].Delayed += s.Delayed
		}
	}
	return out
}

// LinkStats returns the mesh link network's full statistics, including
// the mutation/duplication counters a nemesis FrameModel feeds.
func (c *Cluster) LinkStats() channel.Stats {
	return c.mesh.LinkStats()
}

// tagSource builds process proc's tag source over src, flow-pinned when
// the cluster configures a flow for it (shared by Start and Recover so
// a restarted process re-derives the same tag stream).
func (c *Cluster) tagSource(proc int, src *xrand.Source) *ident.Source {
	if proc < len(c.cfg.Flows) && c.cfg.Flows[proc] != 0 {
		return ident.NewFlowSource(c.cfg.Flows[proc], src)
	}
	return ident.NewSource(src)
}

// nodeOptions assembles one process's node options (shared by Start and
// Recover so a restarted node is configured like its predecessor).
func (c *Cluster) nodeOptions(proc int) []node.Option {
	opts := []node.Option{
		node.WithTickEvery(time.Duration(c.cfg.TickEvery) * c.cfg.Unit),
		node.WithSeed(xrand.HashStream(c.cfg.Seed, uint64(proc))),
	}
	if c.cfg.OnDeliver != nil {
		opts = append(opts, node.WithObserver(node.Hooks{Deliver: func(d node.Delivery) {
			c.cfg.OnDeliver(Delivery{Proc: proc, ID: d.ID, Fast: d.Fast, Elapsed: time.Since(c.start)})
		}}))
	}
	if tr := c.tracer(proc); tr != nil {
		opts = append(opts, node.WithTracer(tr))
	}
	if c.cfg.Admission != nil {
		opts = append(opts, node.WithAdmission(*c.cfg.Admission))
	}
	if proc < len(c.cfg.Stores) && c.cfg.Stores[proc] != nil {
		opts = append(opts, node.WithStore(c.cfg.Stores[proc]))
		if c.cfg.CheckpointEvery > 0 {
			opts = append(opts, node.WithCheckpointEvery(c.cfg.CheckpointEvery))
		}
	}
	return opts
}

// tracer returns (building on first use) process proc's tracer, or nil
// when tracing is off. Tracer timestamps are wall-clock nanos, so the
// Chrome export uses nanos=true.
func (c *Cluster) tracer(proc int) *obs.Tracer {
	if !c.cfg.Trace {
		return nil
	}
	for len(c.tracers) <= proc {
		c.tracers = append(c.tracers,
			obs.New(len(c.tracers), c.cfg.TraceCapacity, func() int64 { return time.Now().UnixNano() }))
	}
	return c.tracers[proc]
}

// Tracers returns the per-process tracers (nil when tracing is off);
// obs.Merge turns them into one cluster-wide trace.
func (c *Cluster) Tracers() []*obs.Tracer {
	return append([]*obs.Tracer(nil), c.tracers...)
}

// Explain runs the stall explainer for id on process proc (DESIGN.md
// §14), synchronised through its node.
func (c *Cluster) Explain(proc int, id wire.MsgID) (obs.Explanation, error) {
	return c.nodes[proc].Explain(id)
}

// ServeDebug starts the live introspection endpoint on addr ("127.0.0.1:0"
// picks a free port; see Server.Addr): /debug/vars, /debug/pprof,
// /metrics in Prometheus text format over m's aggregates (m may be nil),
// /trace.json (the merged Chrome trace when tracing is on), /report and
// /explain?msg=<id>. The explain route searches every live process and
// returns the first report that knows the message. Close the returned
// server before Stop.
func (c *Cluster) ServeDebug(addr string, m *node.Metrics) (*obs.Server, error) {
	opts := obs.ServeOptions{Tracers: c.Tracers(), Nanos: true}
	if m != nil {
		opts.Gauges = m.Gauges
	}
	opts.Explain = func(msg string) (obs.Explanation, bool) {
		var fallback obs.Explanation
		found := false
		for proc := range c.nodes {
			for _, ev := range c.tracerEvents(proc) {
				if ev.Msg.Body == "" && ev.Msg.Tag.Zero() {
					continue
				}
				if ev.Msg.String() != msg {
					continue
				}
				ex, err := c.nodes[proc].Explain(ev.Msg)
				if err != nil {
					continue
				}
				if ex.Known {
					return ex, true
				}
				fallback, found = ex, true
			}
		}
		return fallback, found
	}
	return obs.Serve(addr, opts)
}

// tracerEvents returns proc's recorded events (nil when untraced).
func (c *Cluster) tracerEvents(proc int) []obs.Event {
	if proc >= len(c.tracers) {
		return nil
	}
	return c.tracers[proc].Events()
}

// Node returns the node hosting process proc, for direct access to the
// node-level API.
func (c *Cluster) Node(proc int) *node.Node { return c.nodes[proc] }

// N returns the current process count, counting processes added by
// Join. Left and crashed slots are included: indices are stable.
func (c *Cluster) N() int { return len(c.nodes) }

// Join grows the running cluster by one process (DESIGN.md §13): the
// mesh gains a fresh endpoint slot, the factory builds a fresh
// algorithm instance for the new index, and node.Join bootstraps it
// from whichever live peer answers the snapshot solicitation before the
// node starts. The factory must build urb.Joiner processes (both paper
// algorithms and the heartbeat host qualify). st, when non-nil, makes
// the joiner durable and becomes its store for a later Recover. The
// call blocks for the transfer, bounded by the cluster's lifetime; on
// error the grown mesh slot stays silent and unused.
//
// Join and Leave reconfigure the cluster and must be driven from one
// goroutine, like Recover and Crash.
func (c *Cluster) Join(st store.Store, opts ...node.Option) (int, error) {
	proc := len(c.nodes)
	src := c.tagRoot.Split()
	clone := src.Clone()
	p := c.cfg.Factory(proc, c.tagSource(proc, src), c.ElapsedUnits)
	jopts := append(c.nodeOptions(proc), opts...)
	if st != nil && c.cfg.CheckpointEvery > 0 {
		jopts = append(jopts, node.WithCheckpointEvery(c.cfg.CheckpointEvery))
	}
	nd, err := node.Join(c.ctx, p, st, c.transportFor(proc, c.mesh.Grow()), jopts...)
	if err != nil {
		return 0, err
	}
	if c.cfg.Stores != nil || st != nil {
		for len(c.cfg.Stores) <= proc {
			c.cfg.Stores = append(c.cfg.Stores, nil)
		}
		c.cfg.Stores[proc] = st
	}
	c.tagClones = append(c.tagClones, clone)
	c.nodes = append(c.nodes, nd)
	return proc, nd.Start(c.ctx)
}

// Leave removes process proc for good: its node stops and its mesh
// endpoint is detached. To the survivors a departed process is
// indistinguishable from a crashed one — its beats stop, its ACKs
// freeze, and the D4 purge eventually forgets its labels; no leave
// announcement exists on the wire, exactly as the paper's crash model
// prescribes. The slot is never reused (indices stay stable) and
// Recover on a left process is unsupported; a returning process Joins
// as a fresh index with a fresh identity.
func (c *Cluster) Leave(proc int) {
	c.nodes[proc].Stop()
	c.mesh.Detach(proc)
}

// Recover restarts a crashed (Stop-ed) durable process from its store:
// a fresh algorithm instance is built by the cluster factory over a
// clone of the original tag stream, the snapshot and WAL are merged into
// it, the process rejoins the mesh on a fresh endpoint, and it resumes
// ACKing and retransmitting — re-delivering nothing it delivered before
// the crash. It fails if the process was never given a store or is
// still running.
func (c *Cluster) Recover(proc int) error {
	if c.cfg.Stores == nil || c.cfg.Stores[proc] == nil {
		return fmt.Errorf("liverun: proc %d has no store", proc)
	}
	// A still-running node must be crashed first; Stop is idempotent.
	c.nodes[proc].Stop()
	p := c.cfg.Factory(proc, c.tagSource(proc, c.tagClones[proc].Clone()), c.ElapsedUnits)
	nd, err := node.Recover(p, c.cfg.Stores[proc], c.transportFor(proc, c.mesh.Reopen(proc)), c.nodeOptions(proc)...)
	if err != nil {
		return err
	}
	c.nodes[proc] = nd
	return nd.Start(c.ctx)
}

// ElapsedUnits returns the cluster age in link-delay units (the live
// counterpart of the simulator's virtual clock, e.g. for failure
// detector handles). It is the mesh's clock, so QuietFor and the
// factory clocks share one epoch.
func (c *Cluster) ElapsedUnits() int64 {
	return c.mesh.ElapsedUnits()
}

// Broadcast has process proc URB-broadcast body. It returns false if the
// process has crashed or the cluster is stopped.
func (c *Cluster) Broadcast(proc int, body []byte) bool {
	_, err := c.nodes[proc].Broadcast(body)
	return err == nil
}

// Play replays a recorded schedule against the cluster at unit pace
// (speed scales the rate as in replay.Drive): each entry URB-broadcasts
// from its recorded process when its wall-clock moment arrives. It
// blocks until the last entry is driven or ctx is cancelled.
func (c *Cluster) Play(ctx context.Context, s *replay.Schedule, unit time.Duration, speed float64) error {
	return replay.Drive(ctx, s, c.N(), unit, speed, func(proc int, body []byte) error {
		_, err := c.nodes[proc].Broadcast(body)
		return err
	})
}

// Crash kills process proc: it stops receiving, ticking and sending.
func (c *Cluster) Crash(proc int) {
	c.nodes[proc].Stop()
}

// Stats fetches a process's algorithm stats, synchronised through its
// node. For crashed (stopped) processes it returns the final snapshot
// taken when the node exited, so post-run quiescence and memory
// accounting keeps working.
func (c *Cluster) Stats(proc int) urb.Stats {
	st, err := c.nodes[proc].Stats()
	if err != nil {
		return urb.Stats{}
	}
	return st
}

// QuietFor reports whether no process has sent for at least d.
func (c *Cluster) QuietFor(d time.Duration) bool {
	return c.mesh.QuietFor(d)
}

// NetStats returns (copies offered, copies dropped) so far.
func (c *Cluster) NetStats() (sends, drops uint64) {
	return c.mesh.Stats()
}

// Stop terminates every process and waits for the node goroutines to
// exit. In-flight link timers become no-ops. Idempotent.
func (c *Cluster) Stop() {
	c.cancel()
	for _, nd := range c.nodes {
		nd.Stop()
	}
	c.mesh.Close()
}

// String describes the cluster.
func (c *Cluster) String() string {
	return fmt.Sprintf("liverun.Cluster(n=%d, link=%s, unit=%s)",
		c.N(), c.cfg.Link, c.cfg.Unit)
}
