// Command loadbench is the repository's sustained-load benchmark. It
// drives live clusters — real node.Node goroutines over a real
// transport — with an open-loop generator: one goroutine issues
// Node.Broadcast round-robin on a schedule drawn from the seed before the
// cluster exists, with no retries and no throttling. Every run checks
// URB's guarantees on every delivery.
//
//	loadbench --workload lossy-n5 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of one load window.
// With --trace 1 it runs the same schedule cut to half the window twice,
// on two fresh clusters: once plain and once with decorators timing the
// calls node.Node makes into the urb, transport and store layers. It
// reports the per-layer metrics of the decorated run, and the difference
// in CPU per delivery between the two as the tracing overhead.
//
// The last line of standard output is one JSON object with keys
// correct, attempted, failed and metrics. The exit status is 0 when
// every check passed, 1 when a URB check failed (after printing), and 2
// when the run could not be made.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"anonurb/internal/xrand"
)

const (
	// setupReps is how many clusters a run builds and starts only to
	// time setup, besides the ones that carry load.
	setupReps = 10
	// runBudget bounds a whole run, build of clusters to exit.
	runBudget = 170 * time.Second
)

func main() {
	wname := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed for the schedule, the tags and the link models")
	seconds := flag.Int("seconds", 10, "length of the load window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	storeRoot := flag.String("store-dir", ".bench_build/stores", "directory for the durable workload's stores")
	flag.Parse()
	w, err := lookupWorkload(*wname)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(2)
	}
	ok, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *storeRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() string {
	var s string
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// metric is one reported figure with the number of samples behind it.
type metric struct {
	value   float64
	unit    string
	samples int
}

// The metric names the two modes report, in order; BENCHMARK.json
// declares the same lists. endToEndReportOnly are printed by untraced
// runs but left out of the JSON result and BENCHMARK.json: across seeds
// on a shared 2-core host their spread exceeds the largest bound a
// regression gate can take (see NOTES.md).
var (
	endToEnd = []string{
		"deliver_p50_ms", "uniform_p90_ms",
		"deliveries_per_s", "cpu_us_per_delivery", "wire_bytes_per_delivery",
		"frames_per_delivery", "heap_mb", "setup_s",
	}
	endToEndReportOnly = []string{"deliver_p99_ms", "submit_p99_ms"}
	perLayer           = []string{
		"urb.receive_ns", "urb.receive_calls_per_delivery", "urb.tick_ns", "urb.busy_share",
		"urb.msgset_mean", "urb.ack_entries_per_msg", "urb.snapshot_ns", "urb.snapshot_bytes",
		"node.submit_p99_ms", "node.broadcast_call_ns_p99", "node.msgs_per_frame", "node.cache_hit_ratio", "node.inbox_overflows",
		"wire.decode_ns_per_msg", "wire.encode_ns_per_msg", "wire.ack_bytes_per_delivery",
		"wire.msg_bytes_per_delivery", "wire.beat_bytes_per_delivery",
		"transport.send_ns", "transport.send_ns_p99", "transport.kernel_drops", "transport.link_drop_ratio",
		"store.append_ns", "store.append_ns_p99", "store.appends_per_delivery",
		"store.wal_bytes_per_delivery", "store.save_snapshot_ns",
		"runtime.gc_cpu_fraction", "runtime.allocs_per_delivery",
		"trace.untraced_cpu_us_per_delivery", "trace.traced_cpu_us_per_delivery",
		"trace.overhead_cpu_us_per_delivery",
	}
)

// run makes one benchmark run and prints its report. It returns whether
// every URB check passed.
func run(w workload, seed uint64, window time.Duration, traced bool, storeRoot string) (bool, error) {
	deadline := time.Now().Add(runBudget)
	fmt.Printf("loadbench workload=%s seed=%d seconds=%g trace=%t\n", w.name, seed, window.Seconds(), traced)
	fmt.Printf("env go=%s GOMAXPROCS=%d nproc=%d %s/%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("load n=%d offered=%g/s net=%s durable=%t tick=%s payload=%dB loss=%g delay=0-%dms\n",
		w.n, w.rate, w.net, w.durable, tickEvery, payloadSize, linkLoss, linkDelayMaxMs)

	// Setup time: the median over clusters built and started from
	// scratch, counting the ones that carry the load.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		c, err := buildCluster(w, xrand.HashStream(seed, 100, uint64(i)), storeRoot, false, nil)
		if err != nil {
			return false, err
		}
		setups = append(setups, time.Since(start).Seconds())
		c.stop()
	}

	// The window is cut into epochs (see workload.epoch), each a fresh
	// cluster carrying its own schedule; a traced run alternates plain
	// and decorated epochs.
	epochs := max(1, int(window/w.epoch))
	if traced {
		epochs = max(2, epochs&^1)
	}
	var runs []*loadRun
	var a audit
	for e := 0; e < epochs; e++ {
		eseed := xrand.HashStream(seed, uint64(e))
		r, err := runLoad(w, eseed, newSchedule(w, eseed, window/time.Duration(epochs)), window/time.Duration(epochs),
			storeRoot, traced && e%2 == 1, deadline)
		if err != nil {
			return false, err
		}
		runs = append(runs, r)
		setups = append(setups, r.setup.Seconds())
		a.add(r.audit)
		fmt.Printf("epoch %d decorated=%t window=%gs broadcasts=%d deliveries=%d cpu_us_per_delivery=%.1f "+
			"deliver_p50=%.2fms deliver_p99=%.2fms uniform_p90=%.2fms submit_p99=%.3fms lateness_p99=%.3fms\n",
			e, traced && e%2 == 1, r.window.Seconds(), r.broadcasts, r.windowDeliveries, r.cpuPerDelivery(),
			quantile(r.deliverMs, 0.5), quantile(r.deliverMs, 0.99), quantile(r.uniformMs, 0.9),
			quantile(r.submitMs, 0.99), quantile(r.latenessMs, 0.99))
		if r.kernelErr != nil {
			fmt.Println("  transport.kernel_drops unavailable:", r.kernelErr)
		}
		if time.Now().After(deadline) {
			// Only a drain that waited for missing deliveries spends
			// the budget; the URB check reports them.
			fmt.Println("run budget spent; skipping the remaining epochs")
			break
		}
	}
	fmt.Printf("urb check expected=%d missing=%d duplicate=%d corrupt=%d unknown=%d fail_ratio=%g\n",
		a.expected, a.missing, a.duplicate, a.corrupt, a.unknown, a.failRatio())
	for _, p := range a.problems {
		fmt.Println("  violation:", p)
	}

	// Each figure is the median of its per-epoch values; setup_s is the
	// median over every cluster built. The report also prints the
	// reportOnly figures, which the JSON result leaves out.
	var names, reportOnly []string
	var ms map[string]metric
	if traced {
		names = perLayer
		var plain, decorated []map[string]metric
		for e, r := range runs {
			if e%2 == 0 {
				plain = append(plain, map[string]metric{"cpu": {r.cpuPerDelivery(), "us", r.windowDeliveries}})
			} else {
				decorated = append(decorated, layerMetrics(w, r))
			}
		}
		ms = medians(decorated)
		untraced, traced := medians(plain)["cpu"], ms["trace.traced_cpu_us_per_delivery"]
		ms["trace.untraced_cpu_us_per_delivery"] = untraced
		ms["trace.overhead_cpu_us_per_delivery"] = metric{traced.value - untraced.value, "us", traced.samples}
	} else {
		names, reportOnly = endToEnd, endToEndReportOnly
		var per []map[string]metric
		for _, r := range runs {
			per = append(per, endToEndMetrics(r))
		}
		ms = medians(per)
		ms["setup_s"] = metric{median(setups), "s", len(setups)}
	}
	out := make(map[string]map[string]any, len(names))
	for _, name := range append(slices.Clone(names), reportOnly...) {
		m, ok := ms[name]
		if !ok {
			panic("loadbench: no value for metric " + name)
		}
		fmt.Printf("%-38s %16.6f %-6s n=%d\n", name, m.value, m.unit, m.samples)
		if slices.Contains(names, name) {
			out[name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	fmt.Printf("%-38s %16.6f %-6s n=%d\n", "fail_ratio", a.failRatio(), "1", a.expected)
	line, err := json.Marshal(map[string]any{
		"correct":   a.failures() == 0,
		"attempted": a.expected,
		"failed":    a.failures(),
		"metrics":   out,
	})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return a.failures() == 0, nil
}

func (r *loadRun) cpuPerDelivery() float64 {
	return float64(r.win.cpu.Nanoseconds()) / 1e3 / float64(r.windowDeliveries)
}

func endToEndMetrics(r *loadRun) map[string]metric {
	del := float64(r.windowDeliveries)
	return map[string]metric{
		"deliver_p50_ms":          {quantile(r.deliverMs, 0.5), "ms", len(r.deliverMs)},
		"deliver_p99_ms":          {quantile(r.deliverMs, 0.99), "ms", len(r.deliverMs)},
		"uniform_p90_ms":          {quantile(r.uniformMs, 0.9), "ms", len(r.uniformMs)},
		"submit_p99_ms":           {quantile(r.submitMs, 0.99), "ms", len(r.submitMs)},
		"deliveries_per_s":        {del / r.window.Seconds(), "1/s", r.windowDeliveries},
		"cpu_us_per_delivery":     {r.cpuPerDelivery(), "us", r.windowDeliveries},
		"wire_bytes_per_delivery": {float64(r.win.wireBytes()) / del, "B", r.windowDeliveries},
		"frames_per_delivery":     {float64(r.win.frames) / del, "1", r.windowDeliveries},
		"heap_mb":                 {r.heapBytes / (1 << 20), "MB", 1},
	}
}

// medians merges per-epoch metrics: each value is the median of its
// per-epoch values, each sample count their sum.
func medians(per []map[string]metric) map[string]metric {
	out := make(map[string]metric)
	values := make(map[string][]float64)
	for _, pm := range per {
		for name, v := range pm {
			m := out[name]
			m.unit = v.unit
			m.samples += v.samples
			out[name] = m
			values[name] = append(values[name], v.value)
		}
	}
	for name, vs := range values {
		m := out[name]
		m.value = median(vs)
		out[name] = m
	}
	return out
}

// layerMetrics reports a decorated epoch.
func layerMetrics(w workload, t *loadRun) map[string]metric {
	del := float64(t.windowDeliveries)
	nd := t.windowDeliveries
	per := func(x float64) float64 { return x / del }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	k := t.win
	decodeNs, encodeNs, codecMsgs := codecCost(t.frames)
	return map[string]metric{
		"urb.receive_ns":                   {k.receive.meanNs(), "ns", int(k.receive.calls)},
		"urb.receive_calls_per_delivery":   {per(float64(k.receive.calls)), "1", nd},
		"urb.tick_ns":                      {k.tick.meanNs(), "ns", int(k.tick.calls)},
		"urb.busy_share":                   {ratio(float64(k.urbBusy()), float64(k.cpu)), "1", 1},
		"urb.msgset_mean":                  {t.msgsetMean, "count", t.msgsetSamples},
		"urb.ack_entries_per_msg":          {ratio(float64(t.ackEntries), float64(t.myAcks)), "1", t.myAcks},
		"urb.snapshot_ns":                  {k.snapshot.meanNs(), "ns", int(k.snapshot.calls)},
		"urb.snapshot_bytes":               {ratio(float64(k.snapshotBytes), float64(k.snapshot.calls)), "B", int(k.snapshot.calls)},
		"node.submit_p99_ms":               {quantile(t.submitMs, 0.99), "ms", len(t.submitMs)},
		"node.broadcast_call_ns_p99":       {quantile(t.callNs, 0.99), "ns", len(t.callNs)},
		"node.msgs_per_frame":              {ratio(float64(k.msgs), float64(k.frames)), "1", int(k.frames)},
		"node.cache_hit_ratio":             {ratio(float64(t.cacheHits), float64(t.cacheHits+t.cacheMisses)), "1", int(t.cacheHits + t.cacheMisses)},
		"node.inbox_overflows":             {float64(t.overflows), "count", w.n},
		"wire.decode_ns_per_msg":           {decodeNs, "ns", codecMsgs},
		"wire.encode_ns_per_msg":           {encodeNs, "ns", codecMsgs},
		"wire.ack_bytes_per_delivery":      {per(float64(k.ackBytes)), "B", nd},
		"wire.msg_bytes_per_delivery":      {per(float64(k.msgBytes)), "B", nd},
		"wire.beat_bytes_per_delivery":     {per(float64(k.beatBytes)), "B", nd},
		"transport.send_ns":                {k.send.meanNs(), "ns", int(k.send.calls)},
		"transport.send_ns_p99":            {quantile(t.sendNs, 0.99), "ns", len(t.sendNs)},
		"transport.kernel_drops":           {float64(t.kernelDrops), "count", w.n},
		"transport.link_drop_ratio":        {ratio(float64(t.linkDrops), float64(t.linkSends)), "1", int(t.linkSends)},
		"store.append_ns":                  {k.append.meanNs(), "ns", int(k.append.calls)},
		"store.append_ns_p99":              {quantile(t.appendNs, 0.99), "ns", len(t.appendNs)},
		"store.appends_per_delivery":       {per(float64(k.append.calls)), "1", nd},
		"store.wal_bytes_per_delivery":     {per(float64(k.walBytes)), "B", nd},
		"store.save_snapshot_ns":           {k.save.meanNs(), "ns", int(k.save.calls)},
		"runtime.gc_cpu_fraction":          {ratio(k.gcCPU, k.cpu.Seconds()), "1", 1},
		"runtime.allocs_per_delivery":      {per(float64(k.allocs)), "1", nd},
		"trace.traced_cpu_us_per_delivery": {t.cpuPerDelivery(), "us", nd},
	}
}
