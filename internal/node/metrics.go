package node

import (
	"fmt"
	"sync"
	"time"

	"anonurb/internal/metrics"
	"anonurb/internal/wire"
)

// Metrics is an Observer that aggregates node events with the
// internal/metrics toolkit: message/byte counters per wire kind, a
// per-message encoded-size histogram, and a delivery latency histogram.
// Latency is measured per message, from the moment the local node
// broadcast it (OnBroadcast) to each delivery of it; messages this
// collector never saw broadcast — deliveries of remote broadcasts when
// the collector is not shared cluster-wide — fall back
// to measuring from the collector's creation, the pre-tracing behavior,
// suitable for single-shot experiments where one broadcast starts the
// clock.
//
// It counts wire messages, not transport frames: OnSend fires once per
// message, and with batching several messages share one frame. Summing
// message bytes still equals bytes on the wire exactly (batch framing
// is pure concatenation); for frame counts ask Node.FrameStats.
//
// One Metrics value may be shared by every node of a cluster; it is safe
// for concurrent use.
type Metrics struct {
	mu sync.Mutex

	start       time.Time
	sentMsgs    uint64
	recvMsgs    uint64
	sentBytes   uint64
	sentByKind  map[wire.Kind]uint64
	bytesByKind map[wire.Kind]uint64
	deliveries  uint64
	fast        uint64
	quiescences uint64
	// deliveriesByFlow counts deliveries per broadcaster flow
	// (wire.FlowOf of the delivered tag) — the observability half of the
	// fairness work: a skewed delivery distribution is visible here
	// without any bench harness.
	deliveriesByFlow map[uint64]uint64

	// broadcastAt records when each locally-broadcast message entered the
	// system, keyed by MsgID so every delivery of it (shared collectors
	// see one per node) measures true broadcast→deliver latency.
	broadcastAt map[wire.MsgID]time.Time

	msgSize    *metrics.Histogram // encoded bytes per sent wire message
	deliverLat *metrics.Histogram // ms from broadcast (fallback: creation) to delivery
}

var _ Observer = (*Metrics)(nil)

// NewMetrics returns an empty collector; the fallback delivery latency
// clock starts now.
func NewMetrics() *Metrics {
	return &Metrics{
		start:            time.Now(),
		sentByKind:       make(map[wire.Kind]uint64),
		bytesByKind:      make(map[wire.Kind]uint64),
		deliveriesByFlow: make(map[uint64]uint64),
		broadcastAt:      make(map[wire.MsgID]time.Time),
		msgSize:          metrics.NewHistogram(),
		deliverLat:       metrics.NewHistogram(),
	}
}

// OnBroadcast implements Observer: it pins the message's
// latency epoch, replacing the creation-time fallback for this MsgID.
func (c *Metrics) OnBroadcast(id wire.MsgID, at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.broadcastAt[id]; !ok {
		c.broadcastAt[id] = at
	}
}

// OnSend implements Observer.
func (c *Metrics) OnSend(m wire.Message, encoded []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sentMsgs++
	c.sentBytes += uint64(len(encoded))
	c.sentByKind[m.Kind]++
	c.bytesByKind[m.Kind] += uint64(len(encoded))
	c.msgSize.Observe(int64(len(encoded)))
}

// OnReceive implements Observer.
func (c *Metrics) OnReceive(wire.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recvMsgs++
}

// OnDeliver implements Observer.
func (c *Metrics) OnDeliver(d Delivery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deliveries++
	if d.Fast {
		c.fast++
	}
	c.deliveriesByFlow[wire.FlowOf(d.ID.Tag)]++
	epoch := c.start
	if at, ok := c.broadcastAt[d.ID]; ok {
		epoch = at
	}
	c.deliverLat.Observe(d.At.Sub(epoch).Milliseconds())
}

// OnQuiescence implements Observer.
func (c *Metrics) OnQuiescence(time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.quiescences++
}

// Snapshot is a point-in-time copy of the collector's aggregates. All
// counts are wire messages (see the Metrics doc); SentBytes is exact
// bytes on the wire in both batching modes.
type Snapshot struct {
	SentMsgs  uint64
	RecvMsgs  uint64
	SentBytes uint64
	// SentAckBytes is the ACK-family slice of SentBytes (full-set ACKs,
	// delta ACKs and resync requests) — the wire cost of Algorithm 2's
	// acknowledgement path, measured separately from MSG dissemination.
	// Derived from SentBytesByKind at snapshot time.
	SentAckBytes uint64
	// SentBeatBytes is the BEAT/heartbeat slice of SentBytes — the
	// failure-detector traffic of the oracle-free stack, derived from
	// SentBytesByKind at snapshot time.
	SentBeatBytes uint64
	// SentSnapBytes is the join protocol's snapshot-transfer slice of
	// SentBytes (SNAPREQ solicitations and SNAPCHUNK payload), derived
	// from SentBytesByKind at snapshot time.
	SentSnapBytes uint64
	SentByKind    map[wire.Kind]uint64
	// SentBytesByKind splits SentBytes per wire kind, the byte-currency
	// companion of SentByKind's message counts.
	SentBytesByKind map[wire.Kind]uint64
	Deliveries      uint64
	Fast            uint64
	// DeliveriesByFlow splits Deliveries per broadcaster flow
	// (wire.FlowOf) — one entry per broadcaster under flow-pinned tag
	// sources, one per message otherwise.
	DeliveriesByFlow map[uint64]uint64
	Quiescences      uint64
	// MsgSize is mean/p50/p99/max of sent per-message encoded sizes in
	// bytes.
	MsgSize string
	// DeliverLatencyMs is mean/p50/p99/max of delivery latencies in
	// milliseconds since the collector was created.
	DeliverLatencyMs string
}

// SentBytesTotal returns just the wire-byte counter. Unlike Snapshot it
// does no histogram summarising, so it is cheap enough for polling
// loops that sample the collector while a cluster is sending.
func (c *Metrics) SentBytesTotal() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sentBytes
}

// Snapshot returns the current aggregates. The histograms are cloned
// under the collector lock (a plain copy) and summarized — which sorts,
// O(n log n) — after it is released, so a large histogram never stalls
// the node goroutines feeding the collector.
func (c *Metrics) Snapshot() Snapshot {
	c.mu.Lock()
	byKind := make(map[wire.Kind]uint64, len(c.sentByKind))
	for k, v := range c.sentByKind {
		byKind[k] = v
	}
	bytesByKind := make(map[wire.Kind]uint64, len(c.bytesByKind))
	var ackBytes, beatBytes, snapBytes uint64
	for k, v := range c.bytesByKind {
		bytesByKind[k] = v
		switch {
		case k.IsAck():
			ackBytes += v
		case k.IsBeat():
			beatBytes += v
		case k.IsSnap():
			snapBytes += v
		}
	}
	byFlow := make(map[uint64]uint64, len(c.deliveriesByFlow))
	for f, v := range c.deliveriesByFlow {
		byFlow[f] = v
	}
	s := Snapshot{
		SentMsgs:         c.sentMsgs,
		RecvMsgs:         c.recvMsgs,
		SentBytes:        c.sentBytes,
		SentAckBytes:     ackBytes,
		SentBeatBytes:    beatBytes,
		SentSnapBytes:    snapBytes,
		SentByKind:       byKind,
		SentBytesByKind:  bytesByKind,
		Deliveries:       c.deliveries,
		Fast:             c.fast,
		DeliveriesByFlow: byFlow,
		Quiescences:      c.quiescences,
	}
	msgSize := c.msgSize.Clone()
	deliverLat := c.deliverLat.Clone()
	c.mu.Unlock()
	s.MsgSize = msgSize.Summary()
	s.DeliverLatencyMs = deliverLat.Summary()
	return s
}

// Gauges flattens the current aggregates into the name→value form
// obs.WritePrometheus serves: counters, per-kind byte splits and the
// latency/size quantiles (suffix _p50/_p99/_max, plus _mean).
func (c *Metrics) Gauges() map[string]float64 {
	s := c.Snapshot()
	c.mu.Lock()
	msgSize := c.msgSize.Clone()
	deliverLat := c.deliverLat.Clone()
	c.mu.Unlock()
	g := map[string]float64{
		"urb_sent_msgs_total":         float64(s.SentMsgs),
		"urb_recv_msgs_total":         float64(s.RecvMsgs),
		"urb_sent_bytes_total":        float64(s.SentBytes),
		"urb_sent_ack_bytes_total":    float64(s.SentAckBytes),
		"urb_sent_beat_bytes_total":   float64(s.SentBeatBytes),
		"urb_sent_snap_bytes_total":   float64(s.SentSnapBytes),
		"urb_deliveries_total":        float64(s.Deliveries),
		"urb_fast_deliveries_total":   float64(s.Fast),
		"urb_quiescences_total":       float64(s.Quiescences),
		"urb_msg_size_bytes_mean":     msgSize.Mean(),
		"urb_msg_size_bytes_p99":      float64(msgSize.Quantile(0.99)),
		"urb_deliver_latency_ms_mean": deliverLat.Mean(),
		"urb_deliver_latency_ms_p50":  float64(deliverLat.Quantile(0.5)),
		"urb_deliver_latency_ms_p99":  float64(deliverLat.Quantile(0.99)),
		"urb_deliver_latency_ms_max":  float64(deliverLat.Max()),
	}
	for k, v := range s.SentBytesByKind {
		g["urb_sent_bytes_kind_"+kindMetricName(k)] = float64(v)
	}
	return g
}

// kindMetricName renders a wire kind as a Prometheus-safe name fragment
// (Kind.String uses Δ, which metric names cannot carry).
func kindMetricName(k wire.Kind) string {
	switch k {
	case wire.KindMsg:
		return "msg"
	case wire.KindAck:
		return "ack"
	case wire.KindBeat:
		return "beat"
	case wire.KindAckDelta:
		return "ackdelta"
	case wire.KindAckReq:
		return "ackreq"
	case wire.KindBeatDelta:
		return "beatdelta"
	case wire.KindBeatReq:
		return "beatreq"
	case wire.KindSnapReq:
		return "snapreq"
	case wire.KindSnapChunk:
		return "snapchunk"
	default:
		return fmt.Sprintf("kind%d", uint8(k))
	}
}

// String renders a one-line summary.
func (s Snapshot) String() string {
	return fmt.Sprintf("sent=%d (%dB, ack %dB, beat %dB) recv=%d delivered=%d (fast=%d) quiescences=%d msg=%s latms=%s",
		s.SentMsgs, s.SentBytes, s.SentAckBytes, s.SentBeatBytes, s.RecvMsgs, s.Deliveries, s.Fast, s.Quiescences,
		s.MsgSize, s.DeliverLatencyMs)
}
