package urb

import (
	"bytes"
	"fmt"
	"testing"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/obs"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// encodeStep is a Step's canonical bytes: every broadcast's wire
// encoding, every delivery's identity and fast flag, and every durable
// event's WAL record, in order.
func encodeStep(s Step) []byte {
	var b []byte
	for _, m := range s.Broadcasts {
		b = m.Encode(b)
	}
	for _, d := range s.Deliveries {
		b = append(b, DeliverEvent(d).EncodeWAL()...)
	}
	for _, ev := range s.Durable {
		b = append(b, ev.EncodeWAL()...)
	}
	return b
}

// TestTracedStepsBitIdentical: the lifecycle tracer is observability
// state only, so a traced process's Steps are bit-identical to an
// untraced twin's. One seeded script of receives (some copies lost),
// ticks and broadcasts drives a traced and an untraced cluster of each
// stack in lockstep, and every Step's broadcasts, deliveries and
// durable events must encode identically. A traced run therefore puts
// exactly the same frames on the wire as an untraced one.
func TestTracedStepsBitIdentical(t *testing.T) {
	const n = 4
	stacks := []struct {
		name  string
		build func(tags *ident.Source, clock func() int64) Process
	}{
		{"majority", func(tags *ident.Source, _ func() int64) Process {
			return NewMajority(n, tags, Config{})
		}},
		{"quiescent-delta", func(tags *ident.Source, _ func() int64) Process {
			return NewQuiescent(staticFD(fd.Pair{Label: lbl(1), Number: 2}), tags, Config{DeltaAcks: true})
		}},
		{"heartbeat", func(tags *ident.Source, clock func() int64) Process {
			return NewHeartbeatHost(tags, 40, 1, clock, Config{})
		}},
	}
	for _, stack := range stacks {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", stack.name, seed), func(t *testing.T) {
				var now int64
				clock := func() int64 { return now }
				plain := make([]Process, n)
				traced := make([]Process, n)
				tracers := make([]*obs.Tracer, n)
				for i := range plain {
					plain[i] = stack.build(ident.NewSource(xrand.New(seed*100+uint64(i))), clock)
					traced[i] = stack.build(ident.NewSource(xrand.New(seed*100+uint64(i))), clock)
					tracers[i] = obs.New(i, 0, nil)
					traced[i].(obs.Traceable).SetTracer(tracers[i])
				}
				type copyTo struct {
					dst int
					m   wire.Message
				}
				var queue []copyTo
				delivered := 0
				step := func(i int, op func(p Process) Step) {
					t.Helper()
					a, b := op(plain[i]), op(traced[i])
					if !bytes.Equal(encodeStep(a), encodeStep(b)) {
						t.Fatalf("t=%d p%d: traced Step differs:\nplain  %+v\ntraced %+v", now, i, a, b)
					}
					delivered += len(a.Deliveries)
					for _, m := range a.Broadcasts {
						for dst := 0; dst < n; dst++ {
							queue = append(queue, copyTo{dst: dst, m: m})
						}
					}
				}
				rng := xrand.New(seed)
				sent := 0
				for ; now < 600; now++ {
					switch op := rng.Uint64() % 10; {
					case op < 6 && len(queue) > 0:
						j := int(rng.Uint64() % uint64(len(queue)))
						c := queue[j]
						queue = append(queue[:j], queue[j+1:]...)
						if rng.Uint64()%5 == 0 {
							continue // the copy is lost
						}
						step(c.dst, func(p Process) Step { return p.Receive(c.m) })
					case op < 9:
						step(int(rng.Uint64()%n), Process.Tick)
					case sent < 6:
						body := []byte(fmt.Sprintf("m%d", sent))
						sent++
						step(int(rng.Uint64()%n), func(p Process) Step {
							_, s := p.Broadcast(body)
							return s
						})
					}
				}
				events := 0
				for _, tr := range tracers {
					events += len(tr.Events())
				}
				if sent == 0 || delivered == 0 || events == 0 {
					t.Fatalf("script too thin: %d broadcasts, %d deliveries, %d traced events", sent, delivered, events)
				}
			})
		}
	}
}
