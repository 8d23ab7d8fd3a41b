// Package sim is the deterministic discrete-event simulator that hosts the
// paper's algorithms over the fair lossy channel models.
//
// A run is a pure function of its Config (including the seed): events are
// ordered by (virtual time, sequence number), every random decision flows
// from named xrand streams, and the algorithms themselves are
// deterministic state machines. The same Config therefore replays bit-for-
// bit, which is what makes the experiment tables in EXPERIMENTS.md
// reproducible.
//
// The simulator models:
//
//   - n anonymous processes, each hosting one urb.Process instance fed by
//     Receive/Tick/Broadcast events;
//   - an n×n mesh of lossy links (internal/channel) applying per-copy
//     drop/delay verdicts — broadcasting one wire message costs n copies,
//     one per destination, including the sender itself (the paper's
//     broadcast primitive includes self-delivery, and the self-link is as
//     lossy as any other);
//   - a crash schedule: a crashed process receives, sends and delivers
//     nothing from its crash time on;
//   - periodic Task-1 ticks per process, phase-shifted so processes do
//     not run in lockstep;
//   - an application workload: URB-broadcasts injected at scheduled
//     times.
package sim

import (
	"container/heap"
	"fmt"
	"sort"

	"anonurb/internal/channel"
	"anonurb/internal/ident"
	"anonurb/internal/obs"
	"anonurb/internal/snapxfer"
	"anonurb/internal/store"
	"anonurb/internal/trace"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// Time is virtual time. The unit is abstract ("ticks"); scenarios in this
// repository use a Task-1 period of ~10 and link delays of ~1-5.
type Time = int64

// Never marks a process that does not crash in the run.
const Never Time = -1

// Env is what a process factory receives: everything a process may use
// without breaking anonymity, plus the bookkeeping index for wiring
// failure detector handles (the algorithm itself must never see it).
type Env struct {
	// Index is the simulator's bookkeeping index for this process. It
	// exists so the factory can bind per-process oracle handles; do not
	// leak it into algorithm state.
	Index int
	// Tags is the process's private tag stream.
	Tags *ident.Source
	// Now reads the virtual clock (for failure detector handles).
	Now func() Time
}

// Factory builds the algorithm instance for one process.
type Factory func(env Env) urb.Process

// ScheduledBroadcast injects one URB-broadcast into the run.
type ScheduledBroadcast struct {
	At   Time
	Proc int
	Body []byte
}

// Config fully describes a run.
type Config struct {
	// N is the number of processes.
	N int
	// Factory builds each process's algorithm instance.
	Factory Factory
	// Link is the channel model for every directed link.
	Link channel.LinkModel
	// Seed drives all simulator randomness (channel verdicts, tag
	// streams, tick phases).
	Seed uint64
	// TickEvery is the Task-1 period. Defaults to 10.
	TickEvery Time
	// MaxTime stops the run unconditionally. Defaults to 10_000.
	MaxTime Time
	// CrashAt[i] is process i's crash time, or Never. nil means nobody
	// crashes.
	CrashAt []Time
	// Stores[i], when non-nil, persists process i's durable events
	// (write-ahead, as they happen) and periodic checkpoints, and is what
	// RecoverAt restarts the process from. Requires the factory to build
	// urb.Durable processes for stored indices.
	Stores []store.Store
	// CheckpointEvery, when > 0, snapshots every live stored process on
	// this virtual-time cadence (compacting its WAL). 0 means the WAL
	// alone carries recovery.
	CheckpointEvery Time
	// RecoverAt[i], when not Never, restarts process i at that time from
	// Stores[i]: a fresh process is built by the factory (with a tag
	// stream cloned from the original's seed), the snapshot is restored,
	// the WAL replayed, and the process resumes receiving, ticking and
	// sending. Requires CrashAt[i] < RecoverAt[i] and Stores[i] != nil.
	// A recovered process counts as correct: the convergence stop holds
	// it to every delivery obligation.
	RecoverAt []Time
	// CrashAfterDeliveries, if non-nil, crashes process i immediately
	// after its k-th delivery where k = CrashAfterDeliveries[i] (0 means
	// disabled). This is the paper's "fast deliver then crash" adversary
	// (Remark, Section III).
	CrashAfterDeliveries []int
	// JoinAt[i], when > 0, makes process i a late joiner (DESIGN.md
	// §13): it does not exist before that time (no ticks, no inbox),
	// and at that time it solicits a state snapshot over the lossy
	// links (SNAPREQ/SNAPCHUNK through the same LinkModel as all other
	// traffic), restores whichever live peer's snapshot completes and
	// verifies first, adopts it (urb.Joiner) and goes live. From then
	// on it counts as correct: the convergence stop holds it to every
	// delivery obligation except the history it adopted as already
	// delivered. nil, 0 and Never mean present from the start — the
	// paper's fixed-n membership.
	JoinAt []Time
	// LeaveAt[i], when > 0, removes process i at that time. No farewell
	// exists on the wire: to the survivors a departed process is
	// indistinguishable from a crashed one, and the detector's label
	// purge (DESIGN.md §13) eventually forgets it. nil, 0 and Never mean
	// the process stays — the paper's fixed-n membership.
	LeaveAt []Time
	// Broadcasts is the application workload.
	Broadcasts []ScheduledBroadcast
	// StopWhenQuiet, when > 0, ends the run once no wire message has
	// been sent for this long AND every pending event is a tick. This is
	// how quiescence runs terminate before MaxTime.
	StopWhenQuiet Time
	// ExpectDeliveries, when > 0, ends the run once every correct
	// process has delivered this many messages (used by latency sweeps
	// that do not care about quiescence).
	ExpectDeliveries int
	// NoEarlyStopBefore, when > 0, suppresses every stop condition
	// (quiescence and delivery convergence alike) before this virtual
	// time. Nemesis campaigns set it to the heal time: a run must not
	// declare convergence while scheduled faults — crashes, recoveries,
	// partitions — are still ahead of it, even if the cluster is
	// momentarily consistent.
	NoEarlyStopBefore Time
	// Observers are hooks that receive every run event, synchronously
	// inside the event loop and in event order: broadcasts, one send per
	// copy offered to a link (Dropped when the copy is lost), receives
	// of copies handed to a live process's algorithm, deliveries,
	// crashes, recoveries, joins with the history each joiner adopted,
	// and leaves. A torn-store recovery retracts deliveries from the
	// Result that the hooks have already seen.
	Observers []func(trace.Event)
	// SampleEvery, when > 0, snapshots per-process stats periodically
	// into Result.Samples (experiments F1/F5).
	SampleEvery Time
}

// event kinds.
type evKind uint8

const (
	evReceive evKind = iota
	evTick
	evCrash
	evBroadcast
	evSample
	evCheckpoint
	evRecover
	evJoinStart
	evJoinRetry
	evLeave
)

type event struct {
	at   Time
	seq  uint64
	kind evKind
	proc int
	msg  wire.Message
	body []byte
}

// eventHeap orders by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// DeliveryAt is one URB-delivery with its virtual time.
type DeliveryAt struct {
	ID   wire.MsgID
	At   Time
	Fast bool
}

// BroadcastAt is one URB-broadcast with its origin (ground truth for the
// property checkers; the algorithms never see origins).
type BroadcastAt struct {
	ID   wire.MsgID
	Proc int
	At   Time
}

// Sample is a periodic snapshot for the time-series experiments.
type Sample struct {
	At Time
	// Stats[i] is process i's algorithm state sizes at the sample time.
	Stats []urb.Stats
	// CumSent is the cumulative number of copies offered to the network.
	CumSent uint64
}

// Result summarises a completed run.
type Result struct {
	// Deliveries[i] lists process i's URB-deliveries in order.
	Deliveries [][]DeliveryAt
	// Broadcasts lists every URB-broadcast with its ground-truth origin.
	Broadcasts []BroadcastAt
	// Crashed[i] reports whether process i crashed during the run and
	// stayed down. A process that crashed and later recovered reports
	// false here (it is correct in the crash-recovery reading) and true
	// in Recovered.
	Crashed []bool
	// Recovered[i] reports whether process i restarted from its store.
	Recovered []bool
	// JoinedAt[i] is the virtual time process i's join completed (its
	// snapshot verified and adopted), or Never for processes present
	// from the start or still joining at run end. JoinedAt - JoinAt is
	// the join latency.
	JoinedAt []Time
	// JoinBytes[i] is the snapshot container size process i pulled to
	// join (the catch-up cost before post-join deltas), 0 otherwise.
	JoinBytes []int
	// Left[i] reports whether process i left via LeaveAt (such
	// processes also report Crashed: to the survivors the two are the
	// same event).
	Left []bool
	// Adopted[i] holds the message ids process i adopted as already
	// delivered when its join completed. Uniformity forbids it from ever
	// delivering them itself, so property checkers must credit these as
	// satisfied rather than demand a delivery event. nil for processes
	// that never joined.
	Adopted []map[wire.MsgID]bool
	// EndTime is the virtual time at which the run stopped.
	EndTime Time
	// LastSend is the virtual time of the last copy offered to the
	// network (quiescence metric).
	LastSend Time
	// Quiescent reports that the run ended via StopWhenQuiet.
	Quiescent bool
	// Net is the channel mesh statistics.
	Net channel.Stats
	// ProcStats[i] is process i's final algorithm state sizes.
	ProcStats []urb.Stats
	// Samples is the periodic time series (empty unless SampleEvery>0).
	Samples []Sample
}

// Events lists the run's ledger as checker events: its broadcasts, its
// deliveries, and the history each mid-run joiner adopted (in
// broadcast order, at its join time).
func (r Result) Events() []trace.Event {
	var events []trace.Event
	for _, b := range r.Broadcasts {
		events = append(events, trace.Event{At: b.At, Kind: trace.KindBroadcast, Proc: b.Proc, ID: b.ID})
	}
	for p, ds := range r.Deliveries {
		for _, d := range ds {
			events = append(events, trace.Event{At: d.At, Kind: trace.KindDeliver, Proc: p, ID: d.ID, Fast: d.Fast})
		}
	}
	for p, ids := range r.Adopted {
		for _, b := range r.Broadcasts {
			if ids[b.ID] {
				events = append(events, trace.Event{At: r.JoinedAt[p], Kind: trace.KindAdopt, Proc: p, ID: b.ID})
			}
		}
	}
	return events
}

// Engine executes one run.
type Engine struct {
	cfg    Config
	now    Time
	seq    uint64
	heap   eventHeap
	net    *channel.Network
	procs  []urb.Process
	crash  []bool
	result Result
	// pendingWire counts queued evReceive events; quiescence detection
	// needs to know whether non-tick events remain.
	pendingWire int
	delivered   []int
	// Obligation tracking for the convergence stop: a message must be
	// delivered by every live process iff its broadcaster is still live
	// or someone already delivered it (a faulty sender's message that
	// nobody delivered may legally vanish — URB imposes nothing then).
	remainingBroadcasts int
	msgOrigin           map[wire.MsgID]int
	deliveredSomewhere  map[wire.MsgID]bool
	deliveredAt         []map[wire.MsgID]bool
	// aliveTouched[id]: some live process received a MSG or ACK about
	// id, so the message can still propagate and stays obliged even if
	// its broadcaster crashed. inFlightMsg[id] counts queued copies.
	aliveTouched map[wire.MsgID]bool
	inFlightMsg  map[wire.MsgID]int
	// tagClones[i] is process i's tag stream frozen at creation, so a
	// recovery can hand the factory an identical stream for the restored
	// process to fast-forward.
	tagClones []*xrand.Source
	// present[i] is false for a JoinAt process until its transfer
	// completes: an absent process has no inbox, no ticks and no
	// delivery obligations.
	present []bool
	// joining[i] is process i's in-progress snapshot transfer.
	joining []*joinState
	// donors[i] caches process i's chunk server across resume requests
	// for one transfer reference (rebuilt on every fresh solicitation).
	donors []*snapxfer.Donor
	// frameAware routes broadcasts through the encoded-frame judging
	// path (set when cfg.Link is a channel.FrameModel).
	frameAware bool
}

// joinState is one joiner's transfer progress.
type joinState struct {
	asm *snapxfer.Assembler
	// rejected remembers transfer refs whose assembled container failed
	// verification, so a bad donor is never retried.
	rejected map[uint64]bool
	// lastGain is when the assembler last covered new bytes; a stalled
	// transfer (dead donor) is abandoned and re-solicited.
	lastGain Time
}

// joinStallTicks is how many Task-1 periods without progress make a
// joiner abandon its donor and solicit afresh.
const joinStallTicks = 10

// simSnapWindow is how many chunks a donor answers per SNAPREQ, the
// simulator counterpart of the node layer's serving window.
const simSnapWindow = 8

// NewEngine validates cfg and builds the run.
func NewEngine(cfg Config) *Engine {
	if cfg.N < 1 {
		panic("sim: N must be >= 1")
	}
	if cfg.Factory == nil {
		panic("sim: Factory is required")
	}
	if cfg.Link == nil {
		panic("sim: Link is required")
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 10
	}
	if cfg.MaxTime <= 0 {
		cfg.MaxTime = 10_000
	}
	if cfg.CrashAt != nil && len(cfg.CrashAt) != cfg.N {
		panic("sim: CrashAt length mismatch")
	}
	if cfg.CrashAfterDeliveries != nil && len(cfg.CrashAfterDeliveries) != cfg.N {
		panic("sim: CrashAfterDeliveries length mismatch")
	}
	if cfg.Stores != nil && len(cfg.Stores) != cfg.N {
		panic("sim: Stores length mismatch")
	}
	if cfg.JoinAt != nil && len(cfg.JoinAt) != cfg.N {
		panic("sim: JoinAt length mismatch")
	}
	if cfg.LeaveAt != nil && len(cfg.LeaveAt) != cfg.N {
		panic("sim: LeaveAt length mismatch")
	}
	for i, at := range cfg.JoinAt {
		if at <= 0 {
			continue
		}
		if i < len(cfg.LeaveAt) && cfg.LeaveAt[i] > 0 && cfg.LeaveAt[i] <= at {
			panic(fmt.Sprintf("sim: LeaveAt[%d]=%d not after JoinAt[%d]=%d", i, cfg.LeaveAt[i], i, at))
		}
		for _, b := range cfg.Broadcasts {
			if b.Proc == i && b.At < at {
				panic(fmt.Sprintf("sim: broadcast at %d from proc %d before its JoinAt %d", b.At, i, at))
			}
		}
	}
	if cfg.RecoverAt != nil {
		if len(cfg.RecoverAt) != cfg.N {
			panic("sim: RecoverAt length mismatch")
		}
		for i, at := range cfg.RecoverAt {
			if at == Never || at < 0 {
				continue
			}
			if cfg.Stores == nil || cfg.Stores[i] == nil {
				panic(fmt.Sprintf("sim: RecoverAt[%d] without a store", i))
			}
			if cfg.CrashAt == nil || cfg.CrashAt[i] == Never || cfg.CrashAt[i] >= at {
				panic(fmt.Sprintf("sim: RecoverAt[%d]=%d must follow a crash", i, at))
			}
		}
	}
	e := &Engine{
		cfg:                 cfg,
		net:                 channel.NewNetwork(cfg.N, cfg.Link, xrand.SplitLabeled(cfg.Seed, "net")),
		procs:               make([]urb.Process, cfg.N),
		crash:               make([]bool, cfg.N),
		delivered:           make([]int, cfg.N),
		remainingBroadcasts: len(cfg.Broadcasts),
		msgOrigin:           make(map[wire.MsgID]int),
		deliveredSomewhere:  make(map[wire.MsgID]bool),
		deliveredAt:         make([]map[wire.MsgID]bool, cfg.N),
		aliveTouched:        make(map[wire.MsgID]bool),
		inFlightMsg:         make(map[wire.MsgID]int),
	}
	_, e.frameAware = cfg.Link.(channel.FrameModel)
	for i := range e.deliveredAt {
		e.deliveredAt[i] = make(map[wire.MsgID]bool)
	}
	e.result.Deliveries = make([][]DeliveryAt, cfg.N)
	e.result.Crashed = make([]bool, cfg.N)
	e.result.Recovered = make([]bool, cfg.N)
	e.result.JoinedAt = make([]Time, cfg.N)
	e.result.JoinBytes = make([]int, cfg.N)
	e.result.Left = make([]bool, cfg.N)
	e.result.Adopted = make([]map[wire.MsgID]bool, cfg.N)
	e.present = make([]bool, cfg.N)
	e.joining = make([]*joinState, cfg.N)
	e.donors = make([]*snapxfer.Donor, cfg.N)
	for i := range e.present {
		e.present[i] = true
		e.result.JoinedAt[i] = Never
		if i < len(cfg.JoinAt) && cfg.JoinAt[i] > 0 {
			e.present[i] = false
		}
	}
	tagRoot := xrand.SplitLabeled(cfg.Seed, "tags")
	e.tagClones = make([]*xrand.Source, cfg.N)
	for i := 0; i < cfg.N; i++ {
		src := tagRoot.Split()
		e.tagClones[i] = src.Clone()
		env := Env{
			Index: i,
			Tags:  ident.NewSource(src),
			Now:   func() Time { return e.now },
		}
		e.procs[i] = cfg.Factory(env)
	}
	// Phase-shift the first tick of each process so the mesh does not
	// operate in lockstep. Late joiners have no tick chain until their
	// join completes.
	phase := xrand.SplitLabeled(cfg.Seed, "phase")
	for i := 0; i < cfg.N; i++ {
		first := 1 + phase.Int63n(cfg.TickEvery)
		if !e.present[i] {
			continue
		}
		e.push(&event{at: first, kind: evTick, proc: i})
	}
	for i, at := range cfg.JoinAt {
		if at > 0 {
			e.push(&event{at: at, kind: evJoinStart, proc: i})
		}
	}
	for i, at := range cfg.LeaveAt {
		if at > 0 {
			e.push(&event{at: at, kind: evLeave, proc: i})
		}
	}
	for i, at := range cfg.CrashAt {
		if at != Never && at >= 0 {
			e.push(&event{at: at, kind: evCrash, proc: i})
		}
	}
	for _, b := range cfg.Broadcasts {
		if b.Proc < 0 || b.Proc >= cfg.N {
			panic(fmt.Sprintf("sim: broadcast proc %d out of range", b.Proc))
		}
		e.push(&event{at: b.At, kind: evBroadcast, proc: b.Proc, body: b.Body})
	}
	if cfg.SampleEvery > 0 {
		e.push(&event{at: 0, kind: evSample})
	}
	if cfg.CheckpointEvery > 0 && cfg.Stores != nil {
		e.push(&event{at: cfg.CheckpointEvery, kind: evCheckpoint})
	}
	if cfg.RecoverAt != nil {
		for i, at := range cfg.RecoverAt {
			if at != Never && at >= 0 {
				e.push(&event{at: at, kind: evRecover, proc: i})
			}
		}
	}
	return e
}

// carriesMsg reports whether a wire message references an application
// message and can advance its fate at the receiver: MSG copies and the
// whole ACK family (full-set, delta and resync frames all carry the
// body; a labeled ACK can trigger fast delivery, and a resync request
// elicits the snapshot that can). Beats reference no message. The
// convergence bookkeeping (inFlightMsg/aliveTouched) keys on this.
func carriesMsg(m wire.Message) bool {
	return m.Kind == wire.KindMsg || m.Kind.IsAck()
}

func (e *Engine) push(ev *event) {
	ev.seq = e.seq
	e.seq++
	heap.Push(&e.heap, ev)
	if ev.kind == evReceive {
		e.pendingWire++
		if carriesMsg(ev.msg) {
			e.inFlightMsg[ev.msg.ID()]++
		}
	}
}

// Now returns the current virtual time (exposed for FD handles).
func (e *Engine) Now() Time { return e.now }

// Process returns the algorithm instance at index i (test hook).
func (e *Engine) Process(i int) urb.Process { return e.procs[i] }

// Network exposes the mesh (test hook).
func (e *Engine) Network() *channel.Network { return e.net }

// broadcastCopies offers one wire message to every destination link.
func (e *Engine) broadcastCopies(src int, m wire.Message) {
	if e.frameAware {
		e.broadcastFrames(src, m)
		return
	}
	size := m.EncodedSize()
	for dst := 0; dst < e.cfg.N; dst++ {
		v := e.net.Send(e.now, src, dst, size)
		if !v.Drop {
			d := v.Delay
			if d < 1 {
				d = 1
			}
			e.push(&event{at: e.now + d, kind: evReceive, proc: dst, msg: m})
		}
		e.emit(trace.Event{At: e.now, Kind: trace.KindSend, Proc: src, Dst: dst, Msg: m, Dropped: v.Drop})
	}
	e.result.LastSend = e.now
}

// broadcastFrames is broadcastCopies under a channel.FrameModel: the
// message is encoded once and each link judged over the bytes, so the
// model may duplicate or mutate the frame. Simulator messages travel as
// decoded structs, so the receiver's decode happens here, eagerly: a
// copy whose mutated bytes no longer equal the original frame is what a
// live node would reject at DecodePrefix — it is counted as sent and
// then goes nowhere, which is exactly "mutation surfaces as loss". (A
// frame here carries one message, so any byte change at all defeats the
// decode; partial-batch truncation only exists on the live path.)
func (e *Engine) broadcastFrames(src int, m wire.Message) {
	frame := m.Encode(nil)
	for dst := 0; dst < e.cfg.N; dst++ {
		copies := e.net.SendFrame(e.now, src, dst, frame)
		delivered := false
		for _, c := range copies {
			if !c.SameFrame(frame) {
				continue // receiver decode-reject: the copy is lost
			}
			d := c.Delay
			if d < 1 {
				d = 1
			}
			delivered = true
			e.push(&event{at: e.now + d, kind: evReceive, proc: dst, msg: m})
		}
		e.emit(trace.Event{At: e.now, Kind: trace.KindSend, Proc: src, Dst: dst, Msg: m, Dropped: !delivered})
	}
	e.result.LastSend = e.now
}

// absorb handles one Step from a process.
func (e *Engine) absorb(proc int, s urb.Step) {
	// Write-ahead: durable events and deliveries reach the process's
	// store before the Step's broadcasts reach the network or the
	// deliveries reach the result (the same discipline the live node
	// applies). Store errors are fatal in the simulator — a sim store is
	// in-memory or a test fixture, and silent degradation would make a
	// recovery test pass vacuously.
	if e.cfg.Stores != nil && e.cfg.Stores[proc] != nil {
		st := e.cfg.Stores[proc]
		for _, ev := range s.Durable {
			if err := st.AppendWAL(ev.EncodeWAL()); err != nil {
				panic(fmt.Sprintf("sim: proc %d wal append: %v", proc, err))
			}
		}
		for _, d := range s.Deliveries {
			if err := st.AppendWAL(urb.DeliverEvent(d).EncodeWAL()); err != nil {
				panic(fmt.Sprintf("sim: proc %d wal append: %v", proc, err))
			}
		}
	}
	for _, d := range s.Deliveries {
		e.result.Deliveries[proc] = append(e.result.Deliveries[proc],
			DeliveryAt{ID: d.ID, At: e.now, Fast: d.Fast})
		e.delivered[proc]++
		e.deliveredSomewhere[d.ID] = true
		e.deliveredAt[proc][d.ID] = true
		e.emit(trace.Event{At: e.now, Kind: trace.KindDeliver, Proc: proc, ID: d.ID, Fast: d.Fast})
	}
	// Crash-after-delivery adversary: the crash lands between the
	// delivery and any further protocol action, which is exactly the
	// fast-deliver-then-crash scenario of the paper's remark.
	if e.cfg.CrashAfterDeliveries != nil && !e.crash[proc] {
		if k := e.cfg.CrashAfterDeliveries[proc]; k > 0 && e.delivered[proc] >= k {
			e.doCrash(proc)
			return // broadcasts die with the process
		}
	}
	for _, m := range s.Broadcasts {
		e.broadcastCopies(proc, m)
	}
}

func (e *Engine) doCrash(proc int) {
	if e.crash[proc] {
		return
	}
	e.crash[proc] = true
	e.result.Crashed[proc] = true
	e.emit(trace.Event{At: e.now, Kind: trace.KindCrash, Proc: proc})
}

// emit hands one run event to every hook.
func (e *Engine) emit(ev trace.Event) {
	for _, o := range e.cfg.Observers {
		o(ev)
	}
}

// allCorrectDelivered reports whether every live process has delivered at
// least want messages. Processes that have not joined yet are exempt —
// but a run with pending joiners is never satisfied, or a stop before
// the join would vacuously pass churn experiments.
func (e *Engine) allCorrectDelivered(want int) bool {
	for i := 0; i < e.cfg.N; i++ {
		if e.crash[i] {
			continue
		}
		if !e.present[i] {
			return false
		}
		if e.delivered[i] < want {
			return false
		}
	}
	return true
}

// converged reports that no delivery obligation remains: every scheduled
// broadcast has been resolved (issued, or its broadcaster crashed first),
// and every live process has delivered every message that is still
// obliged — i.e. whose broadcaster is live, or that somebody delivered.
// A faulty sender's message that nobody delivered is not an obligation:
// URB permits it to vanish.
func (e *Engine) converged() bool {
	if e.remainingBroadcasts > 0 {
		return false
	}
	for p := range e.present {
		if !e.present[p] && !e.crash[p] {
			return false // a join is still in flight: membership unsettled
		}
	}
	for id, origin := range e.msgOrigin {
		if e.crash[origin] && !e.deliveredSomewhere[id] &&
			!e.aliveTouched[id] && e.inFlightMsg[id] == 0 {
			// The message died with its sender: no live process ever saw
			// it and no copy is in flight. It obliges nothing.
			continue
		}
		for p := 0; p < e.cfg.N; p++ {
			if e.crash[p] {
				continue
			}
			if !e.deliveredAt[p][id] {
				return false
			}
		}
	}
	return true
}

// deliveryStopMet combines the two convergence criteria used by the stop
// conditions.
func (e *Engine) deliveryStopMet() bool {
	return e.allCorrectDelivered(e.cfg.ExpectDeliveries) || e.converged()
}

// Run executes the event loop and returns the result.
func (e *Engine) Run() Result {
	for e.heap.Len() > 0 {
		ev := heap.Pop(&e.heap).(*event)
		if ev.kind == evReceive {
			e.pendingWire--
			if carriesMsg(ev.msg) {
				e.inFlightMsg[ev.msg.ID()]--
			}
		}
		if ev.at > e.cfg.MaxTime {
			e.now = e.cfg.MaxTime
			break
		}
		e.now = ev.at
		switch ev.kind {
		case evReceive:
			if e.crash[ev.proc] {
				break
			}
			if ev.msg.Kind.IsSnap() {
				// Join-protocol traffic is host-level, exactly as in
				// the live node: served or assembled here, never shown
				// to the algorithm.
				e.handleSnap(ev.proc, ev.msg)
				break
			}
			if !e.present[ev.proc] {
				break // not yet joined: the slot has no inbox
			}
			if carriesMsg(ev.msg) {
				e.aliveTouched[ev.msg.ID()] = true
			}
			e.emit(trace.Event{At: e.now, Kind: trace.KindReceive, Proc: ev.proc, Msg: ev.msg})
			e.absorb(ev.proc, e.procs[ev.proc].Receive(ev.msg))
		case evTick:
			if e.crash[ev.proc] || !e.present[ev.proc] {
				break
			}
			e.absorb(ev.proc, e.procs[ev.proc].Tick())
			if !e.crash[ev.proc] { // absorb may have crashed it
				e.push(&event{at: e.now + e.cfg.TickEvery, kind: evTick, proc: ev.proc})
			}
		case evCrash:
			e.doCrash(ev.proc)
		case evBroadcast:
			if e.joining[ev.proc] != nil && !e.crash[ev.proc] {
				// The application waits out an in-flight join:
				// re-offer the broadcast next period.
				e.push(&event{at: e.now + e.cfg.TickEvery, kind: evBroadcast, proc: ev.proc, body: ev.body})
				break
			}
			e.remainingBroadcasts--
			if e.crash[ev.proc] {
				break
			}
			id, s := e.procs[ev.proc].Broadcast(ev.body)
			e.result.Broadcasts = append(e.result.Broadcasts,
				BroadcastAt{ID: id, Proc: ev.proc, At: e.now})
			e.msgOrigin[id] = ev.proc
			e.emit(trace.Event{At: e.now, Kind: trace.KindBroadcast, Proc: ev.proc, ID: id})
			e.absorb(ev.proc, s)
		case evSample:
			e.takeSample()
			e.push(&event{at: e.now + e.cfg.SampleEvery, kind: evSample})
		case evCheckpoint:
			e.takeCheckpoints()
			e.push(&event{at: e.now + e.cfg.CheckpointEvery, kind: evCheckpoint})
		case evRecover:
			e.doRecover(ev.proc)
		case evJoinStart:
			e.startJoin(ev.proc)
		case evJoinRetry:
			e.retryJoin(ev.proc)
		case evLeave:
			e.doLeave(ev.proc)
		}

		// ExpectDeliveries alone stops the run early; when StopWhenQuiet
		// is also set the run continues until it is quiet as well (the
		// quiescence experiments need both conditions).
		if e.now < e.cfg.NoEarlyStopBefore {
			continue // scheduled faults remain: no stop condition applies yet
		}
		if e.cfg.ExpectDeliveries > 0 && e.cfg.StopWhenQuiet == 0 && e.deliveryStopMet() {
			break
		}
		if e.cfg.StopWhenQuiet > 0 && e.pendingWire == 0 &&
			e.now-e.result.LastSend >= e.cfg.StopWhenQuiet &&
			(e.cfg.ExpectDeliveries == 0 || e.deliveryStopMet()) {
			e.result.Quiescent = true
			break
		}
	}
	e.result.EndTime = e.now
	e.result.Net = e.net.Stats()
	e.result.ProcStats = make([]urb.Stats, e.cfg.N)
	for i, p := range e.procs {
		e.result.ProcStats[i] = p.Stats()
	}
	return e.result
}

// takeCheckpoints snapshots every live stored process (compacting its
// WAL), the simulator's counterpart of the node's checkpoint cadence.
func (e *Engine) takeCheckpoints() {
	for i, st := range e.cfg.Stores {
		if st == nil || e.crash[i] || !e.present[i] {
			continue
		}
		d, ok := e.procs[i].(urb.Durable)
		if !ok {
			panic(fmt.Sprintf("sim: proc %d has a store but is not urb.Durable", i))
		}
		if err := st.SaveSnapshot(d.Snapshot()); err != nil {
			panic(fmt.Sprintf("sim: proc %d checkpoint: %v", i, err))
		}
	}
}

// doRecover restarts a crashed process from its store: the factory
// builds a fresh instance over a clone of the original tag stream, the
// snapshot is restored, the WAL replayed, and the process resumes
// ticking. From here on the process counts as correct — the convergence
// stop holds it to every delivery obligation, which is exactly the
// crash-recovery uniformity claim the recovery tests assert.
func (e *Engine) doRecover(proc int) {
	if !e.crash[proc] {
		panic(fmt.Sprintf("sim: recover of live proc %d", proc))
	}
	st := e.cfg.Stores[proc]
	snap, wal, err := st.Load()
	if err != nil {
		panic(fmt.Sprintf("sim: proc %d recover load: %v", proc, err))
	}
	env := Env{
		Index: proc,
		Tags:  ident.NewSource(e.tagClones[proc].Clone()),
		Now:   func() Time { return e.now },
	}
	p := e.cfg.Factory(env)
	d, ok := p.(urb.Durable)
	if !ok {
		panic(fmt.Sprintf("sim: proc %d factory does not build urb.Durable processes", proc))
	}
	if snap != nil {
		if err := d.Restore(snap); err != nil {
			panic(fmt.Sprintf("sim: proc %d restore: %v", proc, err))
		}
	}
	for i, raw := range wal {
		rec, err := urb.DecodeWALRecord(raw)
		if err != nil {
			panic(fmt.Sprintf("sim: proc %d wal record %d: %v", proc, i, err))
		}
		if err := d.ApplyWAL(rec); err != nil {
			panic(fmt.Sprintf("sim: proc %d wal replay %d: %v", proc, i, err))
		}
	}
	// New incarnation (delta-ACK epoch rebasing; see urb.Durable.Rejoin),
	// then compact, as the live Recover does: the merged state is the new
	// baseline.
	d.Rejoin()
	if err := st.SaveSnapshot(d.Snapshot()); err != nil {
		panic(fmt.Sprintf("sim: proc %d recovery checkpoint: %v", proc, err))
	}
	// Write-ahead reconciliation for torn stores: the restored state may
	// lack deliveries this run already exposed, if the store lost tail
	// records (store.Mem.TearTail, nemesis StageTornWAL). Exposed but not
	// durable contradicts the write-ahead discipline absorb enforces, so
	// the only physical reading of a torn delivery record is a crash that
	// struck mid-step — after the append began, before the exposure
	// escaped. The engine re-dates history accordingly: the retracted
	// delivery never happened, and the recovered process delivering the
	// message later is its first (and only) exposure. Without this a torn
	// tail would manufacture an impossible run — a delivery observed out
	// of a state that never durably held it — and every downstream
	// redelivery gate would fire on a harness artifact instead of a bug.
	if ex, ok := p.(obs.Explainer); ok {
		var torn []wire.MsgID
		for id := range e.deliveredAt[proc] {
			if !ex.Explain(id).Delivered {
				torn = append(torn, id)
			}
		}
		sort.Slice(torn, func(i, j int) bool {
			return torn[i].String() < torn[j].String()
		})
		for _, id := range torn {
			e.retractDelivery(proc, id)
		}
	}
	e.procs[proc] = p
	e.crash[proc] = false
	e.result.Crashed[proc] = false
	e.result.Recovered[proc] = true
	e.emit(trace.Event{At: e.now, Kind: trace.KindRecover, Proc: proc})
	// Resume the tick chain the crash cut (next period, not immediately:
	// a restart takes at least a beat).
	e.push(&event{at: e.now + e.cfg.TickEvery, kind: evTick, proc: proc})
}

// retractDelivery erases one exposed delivery from the run record: the
// crash preempted its callback (see the torn-store reconciliation in
// doRecover), so bookkeeping, counters and the result must all read as
// if it never happened.
func (e *Engine) retractDelivery(proc int, id wire.MsgID) {
	delete(e.deliveredAt[proc], id)
	ds := e.result.Deliveries[proc]
	for i := len(ds) - 1; i >= 0; i-- {
		if ds[i].ID == id {
			e.result.Deliveries[proc] = append(ds[:i], ds[i+1:]...)
			e.delivered[proc]--
			break
		}
	}
	for p := range e.deliveredAt {
		if e.deliveredAt[p][id] {
			return
		}
	}
	delete(e.deliveredSomewhere, id)
}

// startJoin begins proc's pull-based snapshot transfer: solicit over
// the lossy links and keep re-requesting on the tick cadence until the
// container assembles and verifies.
func (e *Engine) startJoin(proc int) {
	js := &joinState{asm: snapxfer.NewAssembler(), rejected: make(map[uint64]bool), lastGain: e.now}
	e.joining[proc] = js
	e.broadcastCopies(proc, js.asm.Request())
	e.push(&event{at: e.now + e.cfg.TickEvery, kind: evJoinRetry, proc: proc})
}

// retryJoin re-requests the lowest missing offset, abandoning a stalled
// transfer (dead donor) so any other live peer may answer the fresh
// solicitation.
func (e *Engine) retryJoin(proc int) {
	js := e.joining[proc]
	if js == nil || e.crash[proc] {
		return
	}
	if js.asm.Ref() != 0 && e.now-js.lastGain >= joinStallTicks*e.cfg.TickEvery {
		js.asm.Reset()
		js.lastGain = e.now
	}
	e.broadcastCopies(proc, js.asm.Request())
	e.push(&event{at: e.now + e.cfg.TickEvery, kind: evJoinRetry, proc: proc})
}

// handleSnap routes join-protocol traffic: a live Snapshotter answers
// solicitations and resume requests (the donor side), and a joining
// process feeds chunks to its assembler (the joiner side). Neither side
// ever shows these messages to the algorithm.
func (e *Engine) handleSnap(proc int, m wire.Message) {
	if m.Kind == wire.KindSnapReq {
		if !e.present[proc] {
			return // joiners do not serve
		}
		sn, ok := e.procs[proc].(urb.Snapshotter)
		if !ok {
			return
		}
		if m.Ref == 0 {
			e.donors[proc] = snapxfer.NewDonor(store.EncodeSnapshotFile(sn.Snapshot()), 0)
		} else if e.donors[proc] == nil || e.donors[proc].Ref() != m.Ref {
			return // another donor's transfer
		}
		if e.donors[proc] == nil {
			return // unservable state
		}
		for _, chunk := range e.donors[proc].Serve(m.Off, simSnapWindow) {
			e.broadcastCopies(proc, chunk)
		}
		return
	}
	// A SNAPCHUNK is only meaningful at a joining process.
	js := e.joining[proc]
	if js == nil || js.rejected[m.Ref] {
		return
	}
	if js.asm.Offer(m) {
		js.lastGain = e.now
	}
	if js.asm.Done() {
		e.finishJoin(proc)
	}
}

// finishJoin verifies the assembled container and brings the joiner
// live: restore through the recovery path, Adopt (fresh acker identity,
// rebased delta streams; see urb.Joiner), checkpoint the adopted state
// as the durable baseline, and start the tick chain. A container that
// fails verification is remembered by ref — loud locally would be a
// panic, but a lossy world must tolerate a bad donor — and the transfer
// re-solicited from someone else.
func (e *Engine) finishJoin(proc int) {
	js := e.joining[proc]
	container := js.asm.Bytes()
	payload, err := store.ParseSnapshotFile(container)
	if err == nil {
		_, err = urb.VerifySnapshot(payload)
	}
	if err != nil {
		js.rejected[js.asm.Ref()] = true
		js.asm.Reset()
		js.lastGain = e.now
		e.broadcastCopies(proc, js.asm.Request())
		return
	}
	j, ok := e.procs[proc].(urb.Joiner)
	if !ok {
		panic(fmt.Sprintf("sim: proc %d has JoinAt but %T does not implement urb.Joiner", proc, e.procs[proc]))
	}
	if err := j.Restore(payload); err != nil {
		panic(fmt.Sprintf("sim: proc %d join restore: %v", proc, err))
	}
	j.Adopt()
	e.joining[proc] = nil
	e.present[proc] = true
	e.result.JoinedAt[proc] = e.now
	e.result.JoinBytes[proc] = len(container)
	// History the joiner adopted as already delivered satisfies its
	// delivery obligations — uniformity forbids re-delivering it — so
	// the convergence ledger credits it up front.
	if hd, ok := e.procs[proc].(interface{ HasDelivered(wire.MsgID) bool }); ok {
		e.result.Adopted[proc] = make(map[wire.MsgID]bool)
		for id := range e.msgOrigin {
			if hd.HasDelivered(id) {
				e.deliveredAt[proc][id] = true
				e.result.Adopted[proc][id] = true
			}
		}
	}
	if proc < len(e.cfg.Stores) && e.cfg.Stores[proc] != nil {
		if err := e.cfg.Stores[proc].SaveSnapshot(j.Snapshot()); err != nil {
			panic(fmt.Sprintf("sim: proc %d join checkpoint: %v", proc, err))
		}
	}
	for _, b := range e.result.Broadcasts {
		if e.result.Adopted[proc][b.ID] {
			e.emit(trace.Event{At: e.now, Kind: trace.KindAdopt, Proc: proc, ID: b.ID})
		}
	}
	e.emit(trace.Event{At: e.now, Kind: trace.KindJoin, Proc: proc, Bytes: len(container)})
	e.push(&event{at: e.now + e.cfg.TickEvery, kind: evTick, proc: proc})
}

// doLeave removes a process for good. On the wire a leave IS a crash —
// no farewell exists — so the crash path runs and the slot additionally
// reports Left.
func (e *Engine) doLeave(proc int) {
	if e.crash[proc] {
		return
	}
	e.doCrash(proc)
	e.result.Left[proc] = true
	e.emit(trace.Event{At: e.now, Kind: trace.KindLeave, Proc: proc})
}

func (e *Engine) takeSample() {
	s := Sample{At: e.now, Stats: make([]urb.Stats, e.cfg.N), CumSent: e.net.Stats().Sent}
	for i, p := range e.procs {
		s.Stats[i] = p.Stats()
	}
	e.result.Samples = append(e.result.Samples, s)
}

// CorrectSet derives the []bool correctness vector from a crash schedule
// (convenience for building failure detector oracles).
func CorrectSet(n int, crashAt []Time, crashAfterDeliveries []int) []bool {
	correct := make([]bool, n)
	for i := range correct {
		correct[i] = true
		if crashAt != nil && crashAt[i] != Never && crashAt[i] >= 0 {
			correct[i] = false
		}
		if crashAfterDeliveries != nil && crashAfterDeliveries[i] > 0 {
			correct[i] = false
		}
	}
	return correct
}
