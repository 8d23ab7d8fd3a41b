package main

import (
	"sync/atomic"
	"time"

	"anonurb/internal/obs"
	"anonurb/internal/store"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
)

// The traced run measures each layer from outside: node.Node calls into
// the urb, transport and store layers through the decorators below,
// which time those calls and forward them unchanged. Nothing inside the
// program is instrumented.

// callTimer accumulates the count and total duration of one call site.
// Its fields are atomic because the benchmark reads them at the edges of
// the load window while node goroutines keep adding.
type callTimer struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (t *callTimer) add(d time.Duration) {
	t.calls.Add(1)
	t.ns.Add(int64(d))
}

// timerTotals is a callTimer read at one instant.
type timerTotals struct{ calls, ns int64 }

func (t *callTimer) read() timerTotals { return timerTotals{t.calls.Load(), t.ns.Load()} }

func (a timerTotals) minus(b timerTotals) timerTotals {
	return timerTotals{a.calls - b.calls, a.ns - b.ns}
}

func (a timerTotals) plus(b timerTotals) timerTotals {
	return timerTotals{a.calls + b.calls, a.ns + b.ns}
}

// meanNs is the mean duration of one call, or 0 without calls.
func (a timerTotals) meanNs() float64 {
	if a.calls == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.calls)
}

// maxSamples caps each decorator's per-call duration log, from which the
// p99 figures come.
const maxSamples = 1 << 18

// hostedProcess is what the benchmark's stack (urb.HeartbeatHost) offers
// and node.Node asserts: urb.Joiner (and through it urb.Durable, which
// node.New requires under WithStore), obs.Traceable for WithTracer and
// obs.Explainer for Node.Explain. Embedding it makes timedProcess
// implement exactly these, so the decorator hides nothing from the node.
type hostedProcess interface {
	urb.Joiner
	obs.Traceable
	obs.Explainer
}

// timedProcess times node.Node's calls into the urb layer.
type timedProcess struct {
	hostedProcess
	receive, tick, broadcast, snapshot callTimer
	snapshotBytes                      atomic.Int64
}

func (p *timedProcess) Receive(m wire.Message) urb.Step {
	start := time.Now()
	s := p.hostedProcess.Receive(m)
	p.receive.add(time.Since(start))
	return s
}

func (p *timedProcess) Tick() urb.Step {
	start := time.Now()
	s := p.hostedProcess.Tick()
	p.tick.add(time.Since(start))
	return s
}

func (p *timedProcess) Broadcast(body []byte) (wire.MsgID, urb.Step) {
	start := time.Now()
	id, s := p.hostedProcess.Broadcast(body)
	p.broadcast.add(time.Since(start))
	return id, s
}

// Snapshot is the checkpoint's state encoding (node.Node calls it under
// WithStore, on its own goroutine).
func (p *timedProcess) Snapshot() []byte {
	start := time.Now()
	b := p.hostedProcess.Snapshot()
	p.snapshot.add(time.Since(start))
	p.snapshotBytes.Add(int64(len(b)))
	return b
}

// Frame sampling for the codec timing: every frameSampleEvery-th frame
// a node sends is copied, up to maxFrames per node.
const (
	frameSampleEvery = 8
	maxFrames        = 2048
)

// timedTransport times node.Node's Send calls and samples the frames it
// sends. It implements transport.Wrapper, so transport.Overflows still
// unwraps to the real inbox counter. Send runs only on the owning node's
// goroutine, so the sample logs need no lock; read them after the node
// has stopped.
type timedTransport struct {
	transport.Transport
	send    callTimer
	samples []int64
	frames  [][]byte
	sends   int
}

var _ transport.Wrapper = (*timedTransport)(nil)

func (t *timedTransport) Send(frame []byte) {
	if t.sends%frameSampleEvery == 0 && len(t.frames) < maxFrames {
		// Copied before Send: the transport owns the frame afterwards.
		t.frames = append(t.frames, append([]byte(nil), frame...))
	}
	t.sends++
	start := time.Now()
	t.Transport.Send(frame)
	d := time.Since(start)
	t.send.add(d)
	if len(t.samples) < maxSamples {
		t.samples = append(t.samples, int64(d))
	}
}

// Inner implements transport.Wrapper.
func (t *timedTransport) Inner() transport.Transport { return t.Transport }

// timedStore times node.Node's durable writes. Like Send, they run on
// the owning node's goroutine only.
type timedStore struct {
	store.Store
	append, save callTimer
	walBytes     atomic.Int64
	samples      []int64
}

func (s *timedStore) AppendWAL(rec []byte) error {
	start := time.Now()
	err := s.Store.AppendWAL(rec)
	d := time.Since(start)
	s.append.add(d)
	s.walBytes.Add(int64(len(rec)))
	if len(s.samples) < maxSamples {
		s.samples = append(s.samples, int64(d))
	}
	return err
}

func (s *timedStore) SaveSnapshot(snap []byte) error {
	start := time.Now()
	err := s.Store.SaveSnapshot(snap)
	s.save.add(time.Since(start))
	return err
}

// codecCost times the wire codec on the real traffic mix: it splits
// every sampled frame with wire.DecodePrefix, as the node loop does, and
// re-encodes the decoded messages. It repeats the pass until at least
// minCodecMsgs messages went each way and returns the mean nanoseconds
// per message of each direction, and the messages in one pass.
func codecCost(frames [][]byte) (decodeNs, encodeNs float64, msgs int) {
	const minCodecMsgs = 200_000
	var decoded []wire.Message
	for _, f := range frames {
		for rest := f; len(rest) > 0; {
			m, next, err := wire.DecodePrefix(rest)
			if err != nil {
				break
			}
			decoded = append(decoded, m)
			rest = next
		}
	}
	if len(decoded) == 0 {
		return 0, 0, 0
	}
	reps := (minCodecMsgs + len(decoded) - 1) / len(decoded)

	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, f := range frames {
			for rest := f; len(rest) > 0; {
				_, next, err := wire.DecodePrefix(rest)
				if err != nil {
					break
				}
				rest = next
			}
		}
	}
	decodeNs = float64(time.Since(start)) / float64(reps*len(decoded))

	buf := make([]byte, 0, transport.MaxUDPFrame)
	start = time.Now()
	for r := 0; r < reps; r++ {
		for _, m := range decoded {
			buf = m.Encode(buf[:0])
		}
	}
	encodeNs = float64(time.Since(start)) / float64(reps*len(decoded))
	return decodeNs, encodeNs, len(decoded)
}
