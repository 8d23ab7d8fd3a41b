package admit

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anonurb/internal/transport"
	"anonurb/internal/wire"
)

// Transport is an admission stage wrapped around an inner transport: a
// transport.Transport whose Receive stream has passed per-flow
// heavy-hitter metering. Build one with Wrap; nodes install it with
// node.WithAdmission.
//
// Pipeline: an ingest goroutine reads the inner transport's inbound
// frames, classifies each contained message by flow with wire.PeekFlow
// (batch frames are split into per-run subslices — zero copy, since
// batch framing is pure concatenation and received frames are read-only
// and shared), charges the detector, and offers each run to the high
// (admitted) or low (demoted) lane; a full lane drops, exactly as any
// finite inbox legally may. An emit goroutine serves the high lane
// strictly while it has frames and the low lane otherwise, so demoted
// traffic consumes only capacity the admitted traffic left idle.
type Transport struct {
	inner transport.Transport
	cfg   Config
	det   *detector
	start time.Time

	high chan []byte
	low  chan []byte
	out  chan []byte

	admittedMsgs  atomic.Uint64
	admittedBytes atomic.Uint64
	demotedMsgs   atomic.Uint64
	demotedBytes  atomic.Uint64
	highDrops     atomic.Uint64
	lowDrops      atomic.Uint64
	splitFrames   atomic.Uint64

	flowMu sync.Mutex
	// demotedFlows is the set of flows ever demoted; guarded by flowMu,
	// written by the ingest goroutine and read by Stats.
	demotedFlows map[uint64]struct{}
	// flowDrops attributes low-lane drops to flows; guarded by flowMu.
	flowDrops map[uint64]uint64
}

var _ transport.Transport = (*Transport)(nil)
var _ transport.OverflowCounter = (*Transport)(nil)

// Wrap builds an admission stage around inner and starts its pipeline.
// The stage takes ownership of inner: closing the stage closes it, and
// inner's Receive must not be consumed elsewhere.
//
//urbvet:wallclock pins the epoch the leaky buckets' nano clock counts from
func Wrap(inner transport.Transport, cfg Config) *Transport {
	if inner == nil {
		panic("admit: inner transport is required")
	}
	cfg = cfg.withDefaults()
	t := &Transport{
		inner:        inner,
		cfg:          cfg,
		det:          newDetector(cfg),
		start:        time.Now(),
		high:         make(chan []byte, cfg.HighDepth),
		low:          make(chan []byte, cfg.LowDepth),
		out:          make(chan []byte),
		demotedFlows: make(map[uint64]struct{}),
		flowDrops:    make(map[uint64]uint64),
	}
	go t.ingest()
	go t.emit()
	return t
}

// Inner exposes the wrapped transport so capability probes (for
// example transport.Overflows) can unwrap the stage.
func (t *Transport) Inner() transport.Transport { return t.inner }

// Send implements transport.Transport: outbound traffic bypasses the
// stage (admission polices what this node absorbs, not what it says).
func (t *Transport) Send(frame []byte) { t.inner.Send(frame) }

// Receive implements transport.Transport: the admitted stream. The
// channel closes once the inner transport's stream closes and both
// lanes have drained.
func (t *Transport) Receive() <-chan []byte { return t.out }

// FrameBudget implements transport.Transport.
func (t *Transport) FrameBudget() int { return t.inner.FrameBudget() }

// Close implements transport.Transport: closes the inner transport,
// which winds the pipeline down.
func (t *Transport) Close() error { return t.inner.Close() }

// ingest classifies inbound frames and routes them to the lanes.
func (t *Transport) ingest() {
	for frame := range t.inner.Receive() {
		t.classify(frame)
	}
	close(t.high)
	close(t.low)
}

// classify routes one inbound frame. Messages are grouped into maximal
// runs with one verdict, so a frame that is all-admitted or all-demoted
// (the overwhelmingly common case — a batch is one sender's tick, and a
// flood's batches are flood through and through) travels as a single
// subslice with zero per-message cost beyond the peek.
//
//urbvet:wallclock bucket leak rates are bytes per real second; EARDet meters arrival time, not algorithm time
//urb:hotpath
func (t *Transport) classify(frame []byte) {
	if t.cfg.FIFO {
		t.offer(frame, false, 0)
		return
	}
	now := int64(time.Since(t.start))
	runStart := 0
	off := 0
	runDemoted := false
	runFlow := uint64(0)
	first, split := true, false
	flush := func(end int) {
		if end > runStart {
			t.offer(frame[runStart:end], runDemoted, runFlow)
		}
		runStart = end
	}
	for off < len(frame) {
		_, flow, size, err := wire.PeekFlow(frame[off:])
		if err != nil {
			// Undecodable remainder: pass it through on the current
			// verdict and let the node's decoder account for it (it
			// drops corrupt tails and counts bad frames).
			off = len(frame)
			break
		}
		demoted := t.det.charge(flow, size, now)
		if demoted {
			t.demotedMsgs.Add(1)
			t.demotedBytes.Add(uint64(size))
		} else {
			t.admittedMsgs.Add(1)
			t.admittedBytes.Add(uint64(size))
		}
		if first {
			runDemoted, runFlow, first = demoted, flow, false
		} else if demoted != runDemoted {
			// Count the split before any run is offered: a receiver
			// that reads a run and then Stats must see it counted.
			if !split {
				split = true
				t.splitFrames.Add(1)
			}
			flush(off)
			runDemoted, runFlow = demoted, flow
		}
		off += size
	}
	flush(len(frame))
}

// offer pushes a frame (or run subslice) to a lane; a full lane drops
// it and the drop is attributed to the run's leading flow.
func (t *Transport) offer(frame []byte, demoted bool, flow uint64) {
	lane := t.high
	if demoted {
		lane = t.low
		t.flowMu.Lock()
		t.demotedFlows[flow] = struct{}{}
		t.flowMu.Unlock()
	}
	select {
	case lane <- frame:
	default:
		if demoted {
			t.lowDrops.Add(1)
		} else {
			t.highDrops.Add(1)
		}
		t.flowMu.Lock()
		t.flowDrops[flow]++
		t.flowMu.Unlock()
	}
}

// emit merges the lanes into the outbound stream, high lane first.
func (t *Transport) emit() {
	highC, lowC := t.high, t.low
	for highC != nil || lowC != nil {
		// Fast path: serve the high lane while it has frames (a nil
		// highC makes this select take its default immediately).
		select {
		case f, ok := <-highC:
			if !ok {
				highC = nil
				continue
			}
			t.out <- f
			continue
		default:
		}
		select {
		case f, ok := <-highC:
			if !ok {
				highC = nil
				continue
			}
			t.out <- f
		case f, ok := <-lowC:
			if !ok {
				lowC = nil
				continue
			}
			t.out <- f
		}
	}
	close(t.out)
}

// Overflows implements transport.OverflowCounter: frames shed by the
// stage's lanes plus whatever the inner transport shed below it. From
// the node's point of view both are inbox overflow — load shedding at
// the receiver, distinct from link loss.
func (t *Transport) Overflows() uint64 {
	inner, _ := transport.Overflows(t.inner)
	return inner + t.highDrops.Load() + t.lowDrops.Load()
}

// FlowStats is per-flow admission accounting.
type FlowStats struct {
	Flow    uint64
	Demoted bool
	Drops   uint64
}

// Stats is an admission stage's accounting snapshot.
type Stats struct {
	// AdmittedMsgs/Bytes and DemotedMsgs/Bytes count metered messages by
	// verdict at classification time.
	AdmittedMsgs  uint64
	AdmittedBytes uint64
	DemotedMsgs   uint64
	DemotedBytes  uint64
	// HighDrops counts frames shed from the admitted lane — damage, if
	// the traffic was honest. LowDrops counts frames shed from the
	// demoted lane — the intended shedding.
	HighDrops uint64
	LowDrops  uint64
	// SplitFrames counts inbound frames that were split into more than
	// one run because they mixed verdicts.
	SplitFrames uint64
	// Demotions counts admitted→demoted flow transitions; Evictions
	// counts bucket-table evictions under flow-table pressure.
	Demotions uint64
	Evictions uint64
	// DemotedFlows lists every flow that was ever routed demoted, with
	// its attributed frame drops. Sorted by flow for determinism.
	Flows []FlowStats
}

// Stats snapshots the stage's accounting. Safe to call while running.
func (t *Transport) Stats() Stats {
	s := Stats{
		AdmittedMsgs:  t.admittedMsgs.Load(),
		AdmittedBytes: t.admittedBytes.Load(),
		DemotedMsgs:   t.demotedMsgs.Load(),
		DemotedBytes:  t.demotedBytes.Load(),
		HighDrops:     t.highDrops.Load(),
		LowDrops:      t.lowDrops.Load(),
		SplitFrames:   t.splitFrames.Load(),
		Demotions:     t.det.demotions.Load(),
		Evictions:     t.det.evictions.Load(),
	}
	t.flowMu.Lock()
	flows := make(map[uint64]*FlowStats, len(t.demotedFlows)+len(t.flowDrops))
	for f := range t.demotedFlows {
		flows[f] = &FlowStats{Flow: f, Demoted: true}
	}
	for f, d := range t.flowDrops {
		fs := flows[f]
		if fs == nil {
			fs = &FlowStats{Flow: f}
			flows[f] = fs
		}
		fs.Drops = d
	}
	t.flowMu.Unlock()
	for _, fs := range flows {
		s.Flows = append(s.Flows, *fs)
	}
	sort.Slice(s.Flows, func(i, j int) bool { return s.Flows[i].Flow < s.Flows[j].Flow })
	return s
}
