// Command urbbench regenerates the evaluation artefacts.
//
// Default mode regenerates the full simulator suite: every table
// (T1-T4) and figure (F1-F6) listed in DESIGN.md §4, printed as aligned
// text (default) or CSV.
//
// Batching mode (-batching) instead runs the live-runtime batching
// benchmark: each workload of the {majority, quiescent} × {mesh, udp} ×
// n matrix runs twice — batched sending off, then on — and the frames,
// bytes and allocations per URB-delivered message are compared. The
// JSON written with -out is what BENCH_batching.json records.
//
// Recovery mode (-recovery) measures the durable-state subsystem
// (DESIGN.md §9): checkpoint and WAL overhead per delivered message
// while a file-backed node runs, and the restart cost — recovery latency
// vs WAL length, catch-up time, zero re-deliveries — when it is killed
// and restarted from its store. The JSON written with -out is what
// BENCH_recovery.json records.
//
// Fairness mode (-fairness) runs the flow-fairness admission benchmark
// (DESIGN.md §11): every scenario of the fairness matrix — uniform
// controls, Zipf, burst trains, adversarial flood — runs twice, FIFO
// admission then fair admission, and the deadline-bounded victim losses
// are compared. The JSON written with -out is what BENCH_fairness.json
// records.
//
// Churn mode (-churn) runs the membership-churn benchmark (DESIGN.md
// §13): heartbeat-stack clusters accumulate pre-join history of varying
// size, a fresh node joins through the real SNAPREQ/SNAPCHUNK snapshot
// transfer, and join latency, catch-up bytes and post-join convergence
// are measured under both ACK encodings — with a hard gate that no
// process ever re-delivers (the joiner's adopted history included). The
// JSON written with -out is what BENCH_churn.json records.
//
// Nemesis mode (-nemesis) runs the staged fault campaigns (DESIGN.md
// §15): every campaign preset — split/heal partitions, asymmetric
// cuts, crash-recover storms with torn WALs, churn mid-partition —
// under both algorithm stacks in the simulator plus one live-cluster
// cell, with hard gates: uniform agreement within the heal deadline
// after the last fault lifts, zero re-deliveries anywhere, no pending
// joins. A deliberately broken campaign (heal deadline zero) then
// checks the failure machinery itself: its report must name the
// campaign stage each stalled message was born under. The JSON written
// with -out is what BENCH_nemesis.json records.
//
// Obs mode (-obs) runs the observability overhead benchmark (DESIGN.md
// §14): every workload of the obs matrix runs twice — lifecycle tracing
// off (the production default), then on — and the steady-state frames
// and wall time per delivered message are compared. The gate is hard:
// tracing must not change the wire traffic at all (frames ratio 1.0)
// and must cost no more than 5% throughput. The JSON written with -out
// is what BENCH_obs.json records.
//
// Usage:
//
//	urbbench [-quick] [-csv] [-seed N] [-only T1,F2,...]
//	urbbench -list
//	urbbench -batching [-quick] [-seed N] [-out BENCH_batching.json]
//	urbbench -recovery [-quick] [-seed N] [-out BENCH_recovery.json]
//	urbbench -fairness [-quick] [-seed N] [-out BENCH_fairness.json]
//	urbbench -churn [-quick] [-seed N] [-out BENCH_churn.json]
//	urbbench -nemesis [-quick] [-seed N] [-out BENCH_nemesis.json]
//	urbbench -obs [-quick] [-seed N] [-out BENCH_obs.json]
//
// Every mode accepts -cpuprofile and -memprofile, writing pprof
// profiles of the run so perf work can attach evidence without ad-hoc
// harnesses (the heap profile is written at exit, after a forced GC).
//
// The output of a full run is what EXPERIMENTS.md records.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"anonurb/internal/bench"
	"anonurb/internal/harness"
)

func main() {
	quick := flag.Bool("quick", false, "run the reduced sweeps (CI sizes)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	seed := flag.Uint64("seed", 2015, "base seed for every experiment (2015: the paper's year)")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. T1,F2); empty = all")
	batching := flag.Bool("batching", false, "run the batching benchmark matrix instead of the table/figure suite")
	recovery := flag.Bool("recovery", false, "run the crash-recovery benchmark matrix instead of the table/figure suite")
	fairness := flag.Bool("fairness", false, "run the flow-fairness admission benchmark matrix instead of the table/figure suite")
	churn := flag.Bool("churn", false, "run the membership-churn benchmark matrix instead of the table/figure suite")
	nemesisMode := flag.Bool("nemesis", false, "run the staged fault-campaign matrix instead of the table/figure suite")
	obs := flag.Bool("obs", false, "run the observability overhead benchmark (tracing on vs off) instead of the table/figure suite")
	list := flag.Bool("list", false, "list the available modes and exit")
	out := flag.String("out", "", "with a benchmark mode: write the results as JSON to this file")
	baseline := flag.String("baseline", "", "with -batching: fail if frames-, allocs- or beat-bytes-per-delivery regresses >25% against this checked-in results file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}
	// exit routes every termination through the profile writers (the
	// benchmark modes return codes rather than calling os.Exit directly,
	// so deferred writers would be skipped).
	exit := func(code int) {
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "urbbench: memprofile: %v\n", err)
				os.Exit(1)
			}
			runtime.GC() // profile retained state, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "urbbench: memprofile: %v\n", err)
				os.Exit(1)
			}
			f.Close()
		}
		os.Exit(code)
	}

	// Mode dispatch. Exactly one mode may be selected, and leftover
	// positional arguments are an error: a typo like `urbbench batching`
	// or `urbbench -batching -recovery` must fail loudly, not silently
	// run the (expensive) default suite or an arbitrary winner.
	modes := []struct {
		name string
		on   bool
		desc string
	}{
		{"suite", !*batching && !*recovery && !*fairness && !*churn && !*nemesisMode && !*obs, "tables T1-T4 and figures F1-F6 from the simulator (default)"},
		{"-batching", *batching, "live-runtime batching benchmark (BENCH_batching.json)"},
		{"-recovery", *recovery, "durable-state crash-recovery benchmark (BENCH_recovery.json)"},
		{"-fairness", *fairness, "flow-fairness admission benchmark (BENCH_fairness.json)"},
		{"-churn", *churn, "membership-churn join/leave benchmark (BENCH_churn.json)"},
		{"-nemesis", *nemesisMode, "staged fault-campaign matrix with convergence gates (BENCH_nemesis.json)"},
		{"-obs", *obs, "observability tracing overhead benchmark (BENCH_obs.json)"},
	}
	if *list {
		for _, m := range modes {
			fmt.Printf("%-10s %s\n", m.name, m.desc)
		}
		exit(0)
	}
	usage := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "urbbench: "+format+"\n", a...)
		fmt.Fprintln(os.Stderr, "usage: urbbench [-quick] [-seed N] [mode flag]; urbbench -list shows modes")
		exit(2)
	}
	var selected []string
	for _, m := range modes[1:] {
		if m.on {
			selected = append(selected, m.name)
		}
	}
	if len(selected) > 1 {
		usage("conflicting modes %s: pick one", strings.Join(selected, " "))
	}
	if flag.NArg() > 0 {
		usage("unexpected arguments %q (modes are flags, e.g. -%s)",
			flag.Args(), strings.TrimPrefix(flag.Arg(0), "-"))
	}
	if len(selected) == 1 {
		if *csv || *only != "" {
			usage("-csv and -only apply to the table/figure suite (use -out for machine-readable JSON)")
		}
		if *baseline != "" && !*batching {
			usage("-baseline applies only to -batching mode")
		}
	}
	if *batching {
		exit(runBatching(*seed, *quick, *out, *baseline))
	}
	if *recovery {
		exit(runRecovery(*seed, *quick, *out))
	}
	if *fairness {
		exit(runFairness(*seed, *quick, *out))
	}
	if *churn {
		exit(runChurn(*seed, *quick, *out))
	}
	if *nemesisMode {
		exit(runNemesis(*seed, *quick, *out))
	}
	if *obs {
		exit(runObs(*seed, *quick, *out))
	}
	if *out != "" || *baseline != "" {
		usage("-out and -baseline apply only to the benchmark modes")
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	params := harness.Params{Seed: *seed, Quick: *quick}
	ran := 0
	for _, exp := range harness.AllExperiments() {
		if len(want) > 0 && !want[exp.ID] {
			continue
		}
		start := time.Now()
		table := exp.Gen(params)
		ran++
		if *csv {
			fmt.Printf("# %s\n%s\n", table.Title, table.CSV())
		} else {
			fmt.Println(table.Render())
			fmt.Printf("(%s generated in %v)\n\n", exp.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "urbbench: no experiment matched %q\n", *only)
		exit(2)
	}
}

// batchingReport is the JSON document -batching -out writes. Schema v2
// added the ack-encoding comparisons and the ack_bytes /
// inbox_overflows counters inside every result; schema v3 adds the
// beat-encoding comparisons plus the steady-state heap/retained-label
// counters (DESIGN.md §10). Documents written before acker views were
// always interned also carry a "compaction" block, which nothing reads.
type batchingReport struct {
	Schema      string             `json:"schema"`
	Seed        uint64             `json:"seed"`
	Quick       bool               `json:"quick"`
	GoVersion   string             `json:"go_version"`
	GOOS        string             `json:"goos"`
	GOARCH      string             `json:"goarch"`
	NumCPU      int                `json:"num_cpu"`
	GeneratedAt string             `json:"generated_at"`
	Comparisons []bench.Comparison `json:"comparisons"`
	// AckEncoding compares delta against full-set labeled ACKs on the
	// quiescent cells (DESIGN.md §8).
	AckEncoding []bench.AckComparison `json:"ack_encoding,omitempty"`
	// BeatEncoding compares delta against legacy beat streams on the
	// heartbeat-stack cells (DESIGN.md §10).
	BeatEncoding []bench.BeatComparison `json:"beat_encoding,omitempty"`
}

// runBatching executes the batching benchmark matrix and returns the
// process exit code.
func runBatching(seed uint64, quick bool, out, baseline string) int {
	// Warm the runtime before measuring: netpoll init (first UDP
	// socket), timer wheels and heap growth are one-time costs that
	// would otherwise land in the first cell's allocation delta —
	// always on its unbatched run, biasing AllocsRatio.
	for _, net := range []bench.Net{bench.NetMesh, bench.NetUDP} {
		_, _ = bench.Run(bench.Workload{
			Algo: bench.AlgoMajority, Net: net, N: 3, Messages: 1,
			Batching: true, TickEvery: 5 * time.Millisecond, SteadyTicks: 1,
			Seed: seed, Timeout: 30 * time.Second,
		})
	}

	matrix := bench.Matrix(seed, quick)
	report := batchingReport{
		Schema:      "anonurb-bench-batching/v3",
		Seed:        seed,
		Quick:       quick,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}

	fmt.Printf("%-22s %10s %10s %9s %9s %9s %10s\n",
		"workload", "frames/d", "frames/d", "frames", "bytes", "allocs", "oversized")
	fmt.Printf("%-22s %10s %10s %9s %9s %9s %10s\n",
		"", "(off)", "(on)", "improv.", "ratio", "ratio", "(on)")
	failed := false
	for _, w := range matrix {
		start := time.Now()
		c, err := bench.Compare(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: %s: %v\n", w, err)
			failed = true
			continue
		}
		offFrames, onFrames := c.Off.SteadyFramesPerDelivery, c.On.SteadyFramesPerDelivery
		if w.Algo == bench.AlgoQuiescent {
			offFrames, onFrames = c.Off.FramesPerDelivery, c.On.FramesPerDelivery
		}
		fmt.Printf("%-22s %10.1f %10.1f %8.2fx %9.4f %9.3f %10d   (%v)\n",
			c.Name, offFrames, onFrames, c.FramesImprovement, c.BytesRatio,
			c.AllocsRatio, c.On.Oversized, time.Since(start).Round(time.Millisecond))
		report.Comparisons = append(report.Comparisons, c)
	}

	// Ack-encoding phase: delta versus full-set labeled ACKs on the
	// quiescent cells (batching on in both runs). The batching phase
	// above already measured each cell's batched delta run — reuse it
	// instead of re-executing the workload (the large quiescent cells
	// cost real wall-clock).
	measured := make(map[string]bench.Result, len(report.Comparisons))
	for _, c := range report.Comparisons {
		if c.On.Workload.Algo == bench.AlgoQuiescent {
			measured[c.Name] = c.On
		}
	}
	fmt.Printf("\n%-22s %12s %12s %9s %9s %10s %10s\n",
		"ack encoding", "ackB/d", "ackB/d", "ackB", "frames", "quiesce", "overflows")
	fmt.Printf("%-22s %12s %12s %9s %9s %10s %10s\n",
		"", "(full)", "(delta)", "improv.", "improv.", "improv.", "full→delta")
	for _, w := range bench.AckMatrix(seed, quick) {
		start := time.Now()
		var a bench.AckComparison
		var err error
		if delta, ok := measured[fmt.Sprintf("%s/%s/n=%d", w.Algo, w.Net, w.N)]; ok {
			a, err = bench.CompareAckEncodingAgainst(w, delta)
		} else {
			a, err = bench.CompareAckEncoding(w)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: ack-encoding %s: %v\n", w, err)
			failed = true
			continue
		}
		fmt.Printf("%-22s %12.1f %12.1f %8.2fx %8.2fx %9.2fx %5d→%-5d (%v)\n",
			a.Name, a.FullSet.AckBytesPerDelivery, a.Delta.AckBytesPerDelivery,
			a.AckBytesImprovement, a.FramesImprovement, a.QuiescenceImprovement,
			a.FullSet.InboxOverflows, a.Delta.InboxOverflows,
			time.Since(start).Round(time.Millisecond))
		report.AckEncoding = append(report.AckEncoding, a)
	}

	// Beat-encoding phase: the heartbeat stack's steady detector traffic,
	// delta BEATΔ streams versus legacy full beats (DESIGN.md §10).
	fmt.Printf("\n%-22s %12s %12s %9s %9s %9s\n",
		"beat encoding", "beatB/win", "beatB/win", "beatB", "frameB", "frameB")
	fmt.Printf("%-22s %12s %12s %9s %9s %9s\n",
		"", "(legacy)", "(delta)", "improv.", "(legacy)", "(delta)")
	for _, w := range bench.BeatMatrix(seed, quick) {
		start := time.Now()
		bc, err := bench.CompareBeatEncoding(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: beat-encoding %s: %v\n", w, err)
			failed = true
			continue
		}
		fmt.Printf("%-22s %12.0f %12.0f %8.2fx %9.1f %9.1f   (%v)\n",
			bc.Name, bc.Legacy.SteadyBeatBytes, bc.Delta.SteadyBeatBytes,
			bc.BeatBytesImprovement, bc.LegacyBeatFrameB, bc.DeltaBeatFrameB,
			time.Since(start).Round(time.Millisecond))
		report.BeatEncoding = append(report.BeatEncoding, bc)
	}

	if baseline != "" {
		if err := checkBaseline(baseline, report); err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: baseline regression: %v\n", err)
			failed = true
		} else {
			fmt.Printf("\nno frames/allocs/beat-bytes per-delivery regression >%d%% against %s\n", int(regressionTolerance*100-100), baseline)
		}
	}

	// Write whatever completed even when some workloads failed: hours of
	// measurement should not vanish because one cell timed out.
	if out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: marshal: %v\n", err)
			return 1
		}
		data = append(data, '\n')
		if err := os.WriteFile(out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: write %s: %v\n", out, err)
			return 1
		}
		fmt.Printf("\nwrote %s (%d comparisons)\n", out, len(report.Comparisons))
	}
	if failed {
		return 1
	}
	return 0
}

// recoveryReport is the JSON document -recovery -out writes.
type recoveryReport struct {
	Schema      string                 `json:"schema"`
	Seed        uint64                 `json:"seed"`
	Quick       bool                   `json:"quick"`
	GoVersion   string                 `json:"go_version"`
	GOOS        string                 `json:"goos"`
	GOARCH      string                 `json:"goarch"`
	NumCPU      int                    `json:"num_cpu"`
	GeneratedAt string                 `json:"generated_at"`
	Results     []bench.RecoveryResult `json:"results"`
}

// runRecovery executes the crash-recovery benchmark matrix and returns
// the process exit code.
func runRecovery(seed uint64, quick bool, out string) int {
	report := recoveryReport{
		Schema:      "anonurb-bench-recovery/v1",
		Seed:        seed,
		Quick:       quick,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	fmt.Printf("%-36s %8s %9s %9s %8s %9s %9s %7s\n",
		"workload", "ckptB/d", "walB/d", "walRecs", "snapB", "recovMS", "catchMS", "redeliv")
	failed := false
	for _, w := range bench.RecoveryMatrix(seed, quick) {
		start := time.Now()
		r, err := bench.RunRecovery(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: %s: %v\n", w, err)
			failed = true
			continue
		}
		fmt.Printf("%-36s %8.1f %9.1f %9d %8d %9.2f %9.2f %7d   (%v)\n",
			w, r.CheckpointBytesPerDelivery, r.WALBytesPerDelivery,
			r.WALRecordsReplayed, r.SnapshotBytesReplayed,
			r.RecoveryMS, r.CatchupMS, r.Redelivered,
			time.Since(start).Round(time.Millisecond))
		if r.Redelivered != 0 {
			fmt.Fprintf(os.Stderr, "urbbench: %s: recovered node re-delivered %d messages\n", w, r.Redelivered)
			failed = true
		}
		report.Results = append(report.Results, r)
	}
	if out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: marshal: %v\n", err)
			return 1
		}
		data = append(data, '\n')
		if err := os.WriteFile(out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: write %s: %v\n", out, err)
			return 1
		}
		fmt.Printf("\nwrote %s (%d results)\n", out, len(report.Results))
	}
	if failed {
		return 1
	}
	return 0
}

// fairnessReport is the JSON document -fairness -out writes.
type fairnessReport struct {
	Schema      string                     `json:"schema"`
	Seed        uint64                     `json:"seed"`
	Quick       bool                       `json:"quick"`
	GoVersion   string                     `json:"go_version"`
	GOOS        string                     `json:"goos"`
	GOARCH      string                     `json:"goarch"`
	NumCPU      int                        `json:"num_cpu"`
	GeneratedAt string                     `json:"generated_at"`
	Comparisons []bench.FairnessComparison `json:"comparisons"`
}

// runFairness executes the flow-fairness benchmark matrix and returns
// the process exit code. Beyond running the matrix it enforces the
// design's own bars: the uniform controls must show zero damage and
// zero demotions, and the flood must show the fair stage protecting the
// victims (fewer deadline losses than the FIFO baseline).
func runFairness(seed uint64, quick bool, out string) int {
	report := fairnessReport{
		Schema:      "anonurb-bench-fairness/v1",
		Seed:        seed,
		Quick:       quick,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	fmt.Printf("%-16s %14s %14s %9s %9s %9s %8s\n",
		"scenario", "victim lost", "victim lost", "improv.", "demoted", "false", "split")
	fmt.Printf("%-16s %14s %14s %9s %9s %9s %8s\n",
		"", "(fifo)", "(fair)", "", "flows", "demot.", "frames")
	failed := false
	for _, sc := range bench.FairnessMatrix(seed, quick) {
		start := time.Now()
		c, err := bench.CompareFairness(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: fairness %s: %v\n", sc.Name, err)
			failed = true
			continue
		}
		fmt.Printf("%-16s %8d/%-5d %8d/%-5d %8.1fx %9d %9d %8d   (%v)\n",
			sc.Name,
			c.Baseline.VictimLost, c.Baseline.VictimExpected,
			c.FairRun.VictimLost, c.FairRun.VictimExpected,
			c.VictimLossImprovement, c.FairRun.DemotedFlows,
			c.FairRun.FalseDemotions, c.FairRun.SplitFrames,
			time.Since(start).Round(time.Millisecond))
		switch {
		case strings.HasPrefix(sc.Name, "uniform") && !c.ZeroDamage:
			fmt.Fprintf(os.Stderr, "urbbench: fairness %s: fair stage damaged a uniform workload: %+v\n", sc.Name, c.FairRun)
			failed = true
		case c.FairRun.FalseDemotions != 0:
			fmt.Fprintf(os.Stderr, "urbbench: fairness %s: %d false demotions\n", sc.Name, c.FairRun.FalseDemotions)
			failed = true
		case sc.Name == "flood" && c.FairRun.VictimLost >= c.Baseline.VictimLost && c.Baseline.VictimLost > 0:
			fmt.Fprintf(os.Stderr, "urbbench: fairness %s: fair stage did not protect victims (%d lost vs %d)\n",
				sc.Name, c.FairRun.VictimLost, c.Baseline.VictimLost)
			failed = true
		}
		report.Comparisons = append(report.Comparisons, c)
	}
	if out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: marshal: %v\n", err)
			return 1
		}
		data = append(data, '\n')
		if err := os.WriteFile(out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: write %s: %v\n", out, err)
			return 1
		}
		fmt.Printf("\nwrote %s (%d comparisons)\n", out, len(report.Comparisons))
	}
	if failed {
		return 1
	}
	return 0
}

// churnReport is the JSON document -churn -out writes.
type churnReport struct {
	Schema      string              `json:"schema"`
	Seed        uint64              `json:"seed"`
	Quick       bool                `json:"quick"`
	GoVersion   string              `json:"go_version"`
	GOOS        string              `json:"goos"`
	GOARCH      string              `json:"goarch"`
	NumCPU      int                 `json:"num_cpu"`
	GeneratedAt string              `json:"generated_at"`
	Results     []bench.ChurnResult `json:"results"`
}

// runChurn executes the membership-churn benchmark matrix and returns
// the process exit code. Latency and byte figures are reported; the
// uniformity bar is enforced: any re-delivery anywhere — the joiner's
// adopted history above all — fails the run.
func runChurn(seed uint64, quick bool, out string) int {
	report := churnReport{
		Schema:      "anonurb-bench-churn/v1",
		Seed:        seed,
		Quick:       quick,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	fmt.Printf("%-14s %10s %12s %10s %11s %11s %8s\n",
		"scenario", "snapshot", "catchup", "join", "converge", "deliveries", "redeliv")
	failed := false
	for _, sc := range bench.ChurnMatrix(seed, quick) {
		r, err := bench.RunChurn(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: churn %s: %v\n", sc.Name, err)
			failed = true
			continue
		}
		fmt.Printf("%-14s %8d B %10d B %8.1fms %9.1fms %11d %8d\n",
			sc.Name, r.SnapshotBytes, r.CatchupWireBytes,
			r.JoinLatencyMS, r.ConvergeMS, r.Deliveries, r.Redelivered)
		if r.Redelivered != 0 {
			fmt.Fprintf(os.Stderr, "urbbench: churn %s: %d re-deliveries — uniformity across the join is broken\n",
				sc.Name, r.Redelivered)
			failed = true
		}
		if r.CatchupWireBytes < uint64(r.SnapshotBytes) {
			fmt.Fprintf(os.Stderr, "urbbench: churn %s: catch-up wire bytes %d below the container size %d — transfer accounting is broken\n",
				sc.Name, r.CatchupWireBytes, r.SnapshotBytes)
			failed = true
		}
		report.Results = append(report.Results, r)
	}
	if out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: marshal: %v\n", err)
			return 1
		}
		data = append(data, '\n')
		if err := os.WriteFile(out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: write %s: %v\n", out, err)
			return 1
		}
		fmt.Printf("\nwrote %s (%d results)\n", out, len(report.Results))
	}
	if failed {
		return 1
	}
	return 0
}

// nemesisReport is the JSON document -nemesis -out writes.
type nemesisReport struct {
	Schema      string                `json:"schema"`
	Seed        uint64                `json:"seed"`
	Quick       bool                  `json:"quick"`
	GoVersion   string                `json:"go_version"`
	GOOS        string                `json:"goos"`
	GOARCH      string                `json:"goarch"`
	NumCPU      int                   `json:"num_cpu"`
	GeneratedAt string                `json:"generated_at"`
	Results     []bench.NemesisResult `json:"results"`
	// BrokenCampaignOK records the failure-machinery self-test: the
	// zero-deadline campaign failed as it must, with every stalled
	// message attributed to a campaign stage.
	BrokenCampaignOK bool `json:"broken_campaign_ok"`
}

// runNemesis executes the fault-campaign matrix and returns the
// process exit code. Every cell's gate is hard — agreement within the
// heal deadline, zero re-deliveries, no pending joins — and the
// broken-campaign self-test must produce a stage-named failure report.
func runNemesis(seed uint64, quick bool, out string) int {
	report := nemesisReport{
		Schema:      "anonurb-bench-nemesis/v1",
		Seed:        seed,
		Quick:       quick,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	fmt.Printf("%-26s %6s %12s %10s %8s %7s %7s\n",
		"campaign", "gate", "heal-latency", "deadline", "redeliv", "surviv", "stalls")
	failed := false
	for _, sc := range bench.NemesisMatrix(seed) {
		r, err := bench.RunNemesis(sc, quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: nemesis %s: %v\n", sc.Name, err)
			failed = true
			continue
		}
		gate := "PASS"
		if !r.Passed {
			gate = "FAIL"
			failed = true
		}
		fmt.Printf("%-26s %6s %10d u %8d u %8d %7d %7d\n",
			sc.Name, gate, r.HealLatencyUnits, r.DeadlineUnits,
			r.Redelivered, r.Survivors, r.Stalls)
		if !r.Passed {
			fmt.Fprintf(os.Stderr, "urbbench: nemesis %s:\n%s\n", sc.Name, r.Report)
		}
		report.Results = append(report.Results, r)
	}
	brokenReport, brokenOK, err := bench.RunNemesisBroken(seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urbbench: nemesis broken-campaign self-test: %v\n", err)
		failed = true
	} else {
		report.BrokenCampaignOK = brokenOK
		if !brokenOK {
			fmt.Fprintf(os.Stderr,
				"urbbench: nemesis: the broken campaign did not fail with stage-attributed stalls:\n%s\n",
				brokenReport)
			failed = true
		} else {
			fmt.Printf("%-26s %6s (deliberate failure correctly stage-attributed)\n",
				"sim/majority/broken", "OK")
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: marshal: %v\n", err)
			return 1
		}
		data = append(data, '\n')
		if err := os.WriteFile(out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: write %s: %v\n", out, err)
			return 1
		}
		fmt.Printf("\nwrote %s (%d results)\n", out, len(report.Results))
	}
	if failed {
		return 1
	}
	return 0
}

// obsTolerance is the tracer-on/tracer-off elapsed ratio above which
// the observability overhead gate fails: tracing may cost at most 5%
// of frames-path throughput (DESIGN.md §14). Frames get no tolerance
// at all — tracing observes steps, it never touches the wire.
const obsTolerance = 1.05

// obsRepeats is how many times each configuration runs; the comparison
// uses the fastest of each, estimating the noise floor rather than the
// noisy mean.
const obsRepeats = 3

// obsReport is the JSON document -obs -out writes.
type obsReport struct {
	Schema      string                `json:"schema"`
	Seed        uint64                `json:"seed"`
	Quick       bool                  `json:"quick"`
	GoVersion   string                `json:"go_version"`
	GOOS        string                `json:"goos"`
	GOARCH      string                `json:"goarch"`
	NumCPU      int                   `json:"num_cpu"`
	GeneratedAt string                `json:"generated_at"`
	Results     []bench.ObsComparison `json:"results"`
}

// runObs executes the observability overhead matrix and returns the
// process exit code: non-zero when tracing changed the wire traffic or
// cost more than the 5% throughput budget.
func runObs(seed uint64, quick bool, out string) int {
	report := obsReport{
		Schema:      "anonurb-bench-obs/v1",
		Seed:        seed,
		Quick:       quick,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	fmt.Printf("%-34s %10s %12s %12s %10s\n",
		"workload", "events", "frames-ratio", "elapsed-off", "elapsed-on")
	failed := false
	for _, w := range bench.ObsMatrix(seed, quick) {
		c, err := bench.CompareObsOverhead(w, obsRepeats)
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: obs %s: %v\n", w.String(), err)
			failed = true
			continue
		}
		fmt.Printf("%-34s %10d %12.4f %10.1fms %8.1fms  (x%.3f)\n",
			c.Name, c.Events, c.FramesRatio, c.Off.ElapsedMS, c.On.ElapsedMS, c.ElapsedRatio)
		if c.Events == 0 {
			fmt.Fprintf(os.Stderr, "urbbench: obs %s: traced run recorded zero lifecycle events — the tracer is not wired\n", c.Name)
			failed = true
		}
		if c.FramesRatio != 1.0 {
			fmt.Fprintf(os.Stderr, "urbbench: obs %s: frames ratio %.4f != 1.0 — tracing changed the wire traffic\n",
				c.Name, c.FramesRatio)
			failed = true
		}
		if c.ElapsedRatio > obsTolerance {
			fmt.Fprintf(os.Stderr, "urbbench: obs %s: elapsed ratio %.3f exceeds the %.0f%% tracing budget\n",
				c.Name, c.ElapsedRatio, (obsTolerance-1)*100)
			failed = true
		}
		report.Results = append(report.Results, c)
	}
	if out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: marshal: %v\n", err)
			return 1
		}
		data = append(data, '\n')
		if err := os.WriteFile(out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "urbbench: write %s: %v\n", out, err)
			return 1
		}
		fmt.Printf("\nwrote %s (%d results)\n", out, len(report.Results))
	}
	if failed {
		return 1
	}
	return 0
}

// regressionTolerance is the frames-per-delivery ratio above which a
// cell counts as regressed against the checked-in baseline: >25% worse
// fails. Generous enough for shared-runner noise on the quick matrix,
// tight enough to catch a broken batching or delta-ACK pipeline (whose
// regressions are multiples, not percentages).
const regressionTolerance = 1.25

// onFramesBasis is the frames-per-delivery figure a comparison is
// gated on: the steady-state window for Majority (its totals include
// an unbounded dissemination phase), whole-run for Quiescent (its
// steady state is silence).
func onFramesBasis(c bench.Comparison) float64 {
	if c.On.Workload.Algo == bench.AlgoQuiescent {
		return c.On.FramesPerDelivery
	}
	return c.On.SteadyFramesPerDelivery
}

// checkBaseline compares the current run's batched frames-per-delivery,
// allocs-per-delivery and steady beat-bytes against the checked-in
// results file, cell by cell on the name intersection (a quick run
// gates against the quick-sized subset of the full baseline matrix).
// Metrics the baseline file does not carry (older schemas) are skipped,
// so the gate tightens as the baseline is regenerated.
func checkBaseline(path string, cur batchingReport) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base batchingReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	var regressions []string
	checked := 0
	gate := func(name, metric string, baseV, curV float64) {
		if baseV <= 0 || curV <= 0 {
			return
		}
		checked++
		if curV > baseV*regressionTolerance {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.2f %s vs baseline %.2f (+%.0f%%)",
				name, curV, metric, baseV, (curV/baseV-1)*100))
		}
	}
	byName := make(map[string]bench.Comparison, len(base.Comparisons))
	for _, c := range base.Comparisons {
		byName[c.Name] = c
	}
	for _, c := range cur.Comparisons {
		b, ok := byName[c.Name]
		if !ok {
			continue
		}
		gate(c.Name, "frames/delivery", onFramesBasis(b), onFramesBasis(c))
		gate(c.Name, "allocs/delivery", b.On.AllocsPerDelivery, c.On.AllocsPerDelivery)
	}
	beatByName := make(map[string]bench.BeatComparison, len(base.BeatEncoding))
	for _, b := range base.BeatEncoding {
		beatByName[b.Name] = b
	}
	for _, c := range cur.BeatEncoding {
		b, ok := beatByName[c.Name]
		if !ok {
			continue
		}
		gate(c.Name, "beatB/window", b.Delta.SteadyBeatBytes, c.Delta.SteadyBeatBytes)
	}
	if checked == 0 {
		return fmt.Errorf("no overlapping cells between this run and %s", path)
	}
	if len(regressions) > 0 {
		return errors.New(strings.Join(regressions, "; "))
	}
	return nil
}
