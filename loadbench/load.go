package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"anonurb/internal/ident"
	"anonurb/internal/node"
	"anonurb/internal/wire"
)

const (
	// warmup lets the heartbeat detectors learn every label before the
	// load starts.
	warmup = 300 * time.Millisecond
	// grace is how long the benchmark keeps listening after the last
	// owed delivery, so that late duplicates are caught.
	grace = 200 * time.Millisecond
	// drainLimit bounds the wait for owed deliveries after the window.
	drainLimit = 60 * time.Second
	// msgsetEvery is the traced run's Stats sampling period.
	msgsetEvery = 100 * time.Millisecond
)

// counters is everything the benchmark reads at the edges of the load
// window; a window's cost is the difference of two readings.
type counters struct {
	cpu                                  time.Duration
	msgBytes, ackBytes, beatBytes, other uint64
	frames, msgs                         uint64
	gcCPU                                float64 // seconds
	allocs                               uint64
	receive, tick, broadcast, snapshot   timerTotals
	send, append, save                   timerTotals
	snapshotBytes, walBytes              int64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/live:bytes"},
}

// readRuntime returns the GC CPU seconds, heap objects allocated and
// live heap bytes as of the last GC.
func readRuntime() (gcCPU float64, allocs, live uint64) {
	s := slices.Clone(runtimeSamples)
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

func liveHeap() uint64 {
	runtime.GC()
	_, _, live := readRuntime()
	return live
}

func readCounters(c *cluster) counters {
	var k counters
	k.cpu = processCPU()
	k.gcCPU, k.allocs, _ = readRuntime()
	for _, nd := range c.nodes {
		msg, ack, beat, snap, other := nd.ByteStats()
		k.msgBytes += msg
		k.ackBytes += ack
		k.beatBytes += beat
		k.other += snap + other
		f, _, _ := nd.FrameStats()
		m, _ := nd.MessageStats()
		k.frames += f
		k.msgs += m
	}
	for _, p := range c.procs {
		k.receive = k.receive.plus(p.receive.read())
		k.tick = k.tick.plus(p.tick.read())
		k.broadcast = k.broadcast.plus(p.broadcast.read())
		k.snapshot = k.snapshot.plus(p.snapshot.read())
		k.snapshotBytes += p.snapshotBytes.Load()
	}
	for _, t := range c.trs {
		k.send = k.send.plus(t.send.read())
	}
	for _, s := range c.timedS {
		k.append = k.append.plus(s.append.read())
		k.save = k.save.plus(s.save.read())
		k.walBytes += s.walBytes.Load()
	}
	return k
}

func (a counters) minus(b counters) counters {
	return counters{
		cpu:      a.cpu - b.cpu,
		msgBytes: a.msgBytes - b.msgBytes, ackBytes: a.ackBytes - b.ackBytes,
		beatBytes: a.beatBytes - b.beatBytes, other: a.other - b.other,
		frames: a.frames - b.frames, msgs: a.msgs - b.msgs,
		gcCPU: a.gcCPU - b.gcCPU, allocs: a.allocs - b.allocs,
		receive: a.receive.minus(b.receive), tick: a.tick.minus(b.tick),
		broadcast: a.broadcast.minus(b.broadcast), snapshot: a.snapshot.minus(b.snapshot),
		send: a.send.minus(b.send), append: a.append.minus(b.append), save: a.save.minus(b.save),
		snapshotBytes: a.snapshotBytes - b.snapshotBytes, walBytes: a.walBytes - b.walBytes,
	}
}

func (k counters) wireBytes() uint64 { return k.msgBytes + k.ackBytes + k.beatBytes + k.other }

// urbBusy is the time spent in urb calls.
func (k counters) urbBusy() int64 {
	return k.receive.ns + k.tick.ns + k.broadcast.ns + k.snapshot.ns
}

// loadRun is what one load window of one cluster produced.
type loadRun struct {
	broadcasts int
	setup      time.Duration
	audit      audit
	// Sorted latency samples: deliverMs per (message, node) delivery of
	// a broadcast message, uniformMs per message delivered at every
	// node, submitMs and latenessMs per successful broadcast (due time
	// to Broadcast's return, and to its call), callNs per Broadcast
	// call.
	deliverMs, uniformMs, submitMs, latenessMs, callNs []float64
	// windowDeliveries counts the deliveries made during the window.
	windowDeliveries int
	window           time.Duration
	// win is the cost of the window.
	win counters
	// Whole-run totals, read once the owed deliveries are in.
	cacheHits, cacheMisses, overflows uint64
	kernelDrops                       uint64
	kernelErr                         error
	linkSends, linkDrops              uint64
	heapBytes                         float64
	// Traced run only.
	msgsetMean         float64
	msgsetSamples      int
	ackEntries, myAcks int
	sendNs, appendNs   []float64 // sorted per-call durations
	frames             [][]byte
}

// runLoad builds a cluster for w, offers it the schedule as an open
// loop, waits for every owed delivery (until deadline at the latest) and
// measures. The window is the schedule's span.
func runLoad(w workload, seed uint64, sched *schedule, window time.Duration, storeRoot string, traced bool, deadline time.Time) (*loadRun, error) {
	m := len(sched.due)
	got := make([][]node.Delivery, w.n)
	for i := range got {
		// Room for every owed delivery and some duplicates, so the
		// collectors do not allocate during the load.
		got[i] = make([]node.Delivery, 0, m+m/8+16)
	}
	ids := make([]wire.MsgID, m)
	errs := make([]error, m)
	callAt := make([]time.Time, m)
	retAt := make([]time.Time, m)
	live0 := liveHeap()

	var delivered atomic.Int64
	var collectors sync.WaitGroup
	start := time.Now()
	c, err := buildCluster(w, seed, storeRoot, traced, func(i int, ch <-chan node.Delivery) {
		collectors.Add(1)
		go func() {
			defer collectors.Done()
			for d := range ch {
				got[i] = append(got[i], d)
				delivered.Add(1)
			}
		}()
	})
	setup := time.Since(start)
	if err != nil {
		collectors.Wait()
		return nil, err
	}
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			c.stop()
			collectors.Wait()
		}
	}
	defer stop()

	time.Sleep(warmup)
	before := readCounters(c)
	t0 := time.Now()
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		for k, off := range sched.due {
			if d := time.Until(t0.Add(off)); d > 0 {
				time.Sleep(d)
			}
			callAt[k] = time.Now()
			ids[k], errs[k] = c.nodes[sched.sender[k]].Broadcast(sched.payload[k])
			retAt[k] = time.Now()
		}
	}()
	var msgsetSum float64
	var msgsetSamples int
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		if !traced {
			return
		}
		for next := t0.Add(msgsetEvery); next.Before(t0.Add(window)); next = next.Add(msgsetEvery) {
			time.Sleep(time.Until(next))
			sum := 0
			for _, nd := range c.nodes {
				if st, err := nd.Stats(); err == nil {
					sum += st.MsgSet
				}
			}
			msgsetSum += float64(sum)
			msgsetSamples++
		}
	}()
	time.Sleep(time.Until(t0.Add(window)))
	after := readCounters(c)
	<-samplerDone
	<-genDone

	owed := int64(0)
	for _, err := range errs {
		if err == nil {
			owed += int64(w.n)
		}
	}
	drainBy := time.Now().Add(drainLimit)
	if deadline.Before(drainBy) {
		drainBy = deadline
	}
	for delivered.Load() < owed && time.Now().Before(drainBy) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(grace)

	r := &loadRun{broadcasts: m, setup: setup, window: window, win: after.minus(before)}
	if msgsetSamples > 0 {
		r.msgsetMean = msgsetSum / float64(msgsetSamples)
		r.msgsetSamples = msgsetSamples
	}
	r.heapBytes = float64(liveHeap()) - float64(live0)
	if len(c.udps) > 0 {
		r.kernelDrops, r.kernelErr = udpKernelDrops(c.ports())
	}
	r.linkSends, r.linkDrops = c.linkStats()
	for _, nd := range c.nodes {
		h, miss := nd.EncodeCacheStats()
		r.cacheHits += h
		r.cacheMisses += miss
		if o, ok := nd.InboxOverflows(); ok {
			r.overflows += o
		}
		if traced {
			if st, err := nd.Stats(); err == nil {
				r.ackEntries += st.AckEntries
				r.myAcks += st.MyAcks
			}
		}
	}
	stop()
	for _, t := range c.trs {
		r.sendNs = appendNs(r.sendNs, t.samples)
		r.frames = append(r.frames, t.frames...)
	}
	for _, s := range c.timedS {
		r.appendNs = appendNs(r.appendNs, s.samples)
	}
	slices.Sort(r.sendNs)
	slices.Sort(r.appendNs)

	r.audit = auditDeliveries(sched.payload, ids, errs, got)
	r.measureLatency(sched, ids, errs, callAt, retAt, got, t0)
	return r, nil
}

func appendNs(dst []float64, ns []int64) []float64 {
	for _, v := range ns {
		dst = append(dst, float64(v))
	}
	return dst
}

// measureLatency derives the latency samples, all measured from each
// broadcast's due time, and counts the deliveries inside the window.
func (r *loadRun) measureLatency(sched *schedule, ids []wire.MsgID, errs []error, callAt, retAt []time.Time, got [][]node.Delivery, t0 time.Time) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	byTag := make(map[ident.Tag]int, len(ids))
	for k, id := range ids {
		if errs[k] == nil {
			byTag[id.Tag] = k
			due := t0.Add(sched.due[k])
			r.submitMs = append(r.submitMs, ms(retAt[k].Sub(due)))
			r.latenessMs = append(r.latenessMs, ms(callAt[k].Sub(due)))
			r.callNs = append(r.callNs, float64(retAt[k].Sub(callAt[k])))
		}
	}
	last := make([]time.Time, len(ids))
	reached := make([]int, len(ids))
	for _, ds := range got {
		seen := make(map[int]bool, len(ds))
		for _, d := range ds {
			if off := d.At.Sub(t0); off >= 0 && off < r.window {
				r.windowDeliveries++
			}
			k, ok := byTag[d.ID.Tag]
			if !ok || seen[k] {
				continue
			}
			seen[k] = true
			r.deliverMs = append(r.deliverMs, ms(d.At.Sub(t0.Add(sched.due[k]))))
			if d.At.After(last[k]) {
				last[k] = d.At
			}
			reached[k]++
		}
	}
	for k, n := range reached {
		if n == len(got) {
			r.uniformMs = append(r.uniformMs, ms(last[k].Sub(t0.Add(sched.due[k]))))
		}
	}
	for _, s := range [][]float64{r.deliverMs, r.uniformMs, r.submitMs, r.latenessMs, r.callNs} {
		slices.Sort(s)
	}
}

// quantile is the nearest-rank q-quantile of sorted (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
