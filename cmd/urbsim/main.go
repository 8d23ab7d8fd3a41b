// Command urbsim runs one scenario of the anonymous-URB simulator from
// flags and reports deliveries, property checks and traffic statistics.
// It is the interactive companion to cmd/urbbench: where urbbench sweeps,
// urbsim lets you poke at a single configuration.
//
// Examples:
//
//	urbsim -n 7 -algo majority -loss 0.3 -crashes 3 -msgs 4
//	urbsim -n 5 -algo quiescent -loss 0.2 -crashes 4 -gst 200 -noise benign
//	urbsim -n 4 -algo lowered -loss 0 -v   # unsafe threshold, watch it break
//
// Record/replay (DESIGN.md §11): -record writes the run's broadcast
// schedule to a compact trace file; -replay drives a scenario from such
// a file instead of the built-in workload (same trace + same seed =
// byte-identical deliveries — the printed delivery digest line is what
// CI diffs):
//
//	urbsim -n 5 -seed 7 -record run.sched
//	urbsim -replay run.sched -seed 7        # identical digest every time
//	urbsim -replay run.sched -speed 2       # same schedule, twice the pace
//
// Membership churn (DESIGN.md §13): -join and -leave schedule joins and
// leaves as comma-separated proc@time entries. A joiner pulls its state
// snapshot over the same lossy links as all other traffic; a leaver
// simply falls silent. Churn needs the heartbeat stack (-algo heartbeat)
// so the detector views follow membership instead of a fixed oracle.
// Churn composes with -replay: the same recorded schedule driven through
// a churning cluster still prints the same digest every run:
//
//	urbsim -n 4 -algo heartbeat -join 3@600 -leave 1@2500 -msgs 3
//	urbsim -replay run.sched -algo heartbeat -join 4@800
//
// Nemesis campaigns (DESIGN.md §15): -nemesis runs a staged fault
// campaign — a preset name (split, asym, crashstorm, churnsplit,
// broken) or a spec string like "split@100-400:0,1;loss@100-800:0.1;
// deadline=6000" — merged over the scenario, then audits convergence
// after the last fault lifts. Campaigns need -algo majority or
// heartbeat: the oracle detectors are built before the campaign faults
// are merged and would contradict them. Composes with -replay (same
// digest line every run):
//
//	urbsim -n 5 -nemesis split -msgs 3
//	urbsim -replay run.sched -nemesis crashstorm
//	urbsim -n 5 -nemesis 'oneway@100-300:1,2>0;deadline=5000'
//	urbsim -n 5 -msgs 8 -nemesis broken   # deliberate failure: stage-named stall report
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strings"

	"anonurb/internal/channel"
	"anonurb/internal/fd"
	"anonurb/internal/harness"
	"anonurb/internal/nemesis"
	"anonurb/internal/obs"
	"anonurb/internal/replay"
	"anonurb/internal/sim"
	"anonurb/internal/trace"
	"anonurb/internal/workload"
)

func main() {
	n := flag.Int("n", 5, "number of processes")
	algo := flag.String("algo", "majority", "algorithm: majority | quiescent | lowered | heartbeat")
	loss := flag.Float64("loss", 0.2, "per-copy loss probability")
	delayMax := flag.Int64("delay", 5, "max link delay (uniform in [1,delay])")
	crashes := flag.Int("crashes", 0, "how many processes crash")
	crashAt := flag.Int64("crash-at", 50, "crash time")
	msgs := flag.Int("msgs", 2, "messages to broadcast (1 writer)")
	gst := flag.Int64("gst", 0, "failure detector stabilisation time (quiescent)")
	noise := flag.String("noise", "exact", "fd noise: exact | benign | adversarial")
	seed := flag.Uint64("seed", 1, "run seed")
	maxTime := flag.Int64("max-time", 200_000, "virtual-time horizon")
	verbose := flag.Bool("v", false, "print per-process deliveries")
	traceOut := flag.String("trace", "", "write the run trace (JSONL) to this file for urbcheck")
	chromeOut := flag.String("trace-out", "", "write a Chrome trace-event JSON lifecycle trace (load in Perfetto / chrome://tracing)")
	timeline := flag.Bool("timeline", false, "print an event timeline (broadcast/deliver/crash)")
	timelineWire := flag.Bool("timeline-wire", false, "include send/receive events in the timeline")
	record := flag.String("record", "", "record the run's broadcast schedule to this trace file")
	replayFrom := flag.String("replay", "", "replay the broadcast schedule from this trace file instead of the built-in workload")
	speed := flag.Float64("speed", 1, "with -replay: time-scale the schedule (2 = twice as fast)")
	joinSpec := flag.String("join", "", "late joiners as proc@time,... (snapshot transfer over the lossy links; needs -algo heartbeat)")
	leaveSpec := flag.String("leave", "", "leavers as proc@time,... (a leave looks like a crash on the wire)")
	nemesisSpec := flag.String("nemesis", "", "run a staged fault campaign: a preset name ("+strings.Join(nemesis.PresetNames(), "|")+") or a campaign spec string (needs -algo majority or heartbeat)")
	flag.Parse()

	if *record != "" && *replayFrom != "" {
		fmt.Fprintln(os.Stderr, "urbsim: -record and -replay conflict: replaying a trace while recording it again is a no-op copy")
		os.Exit(2)
	}

	var a harness.Algo
	switch *algo {
	case "majority":
		a = harness.AlgoMajority
	case "quiescent":
		a = harness.AlgoQuiescent
	case "lowered":
		a = harness.AlgoMajorityLowered
	case "heartbeat":
		a = harness.AlgoHeartbeat
	default:
		fmt.Fprintf(os.Stderr, "urbsim: unknown algorithm %q\n", *algo)
		os.Exit(2)
	}
	var nm fd.NoiseMode
	switch *noise {
	case "exact":
		nm = fd.NoiseExact
	case "benign":
		nm = fd.NoiseBenign
	case "adversarial":
		nm = fd.NoiseAdversarial
	default:
		fmt.Fprintf(os.Stderr, "urbsim: unknown noise mode %q\n", *noise)
		os.Exit(2)
	}

	var rec *trace.Recorder
	var observers []sim.Observer
	if *traceOut != "" || *timeline || *timelineWire {
		rec = trace.NewRecorder(trace.Options{Wire: *traceOut != "" || *timelineWire})
		observers = []sim.Observer{rec}
	}
	var schedRec *replay.Recorder
	if *record != "" {
		schedRec = replay.NewRecorder()
		observers = append(observers, schedRec)
	}
	var lifecycle *sim.TraceObserver
	if *chromeOut != "" {
		lifecycle = sim.NewTraceObserver(0)
		observers = append(observers, lifecycle)
	}

	var wl workload.Broadcasts = workload.MultiWriter{
		Writers: 1, PerWriter: *msgs, Start: 5, Interval: 30,
	}
	if *replayFrom != "" {
		sched, err := replay.ReadFile(*replayFrom)
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbsim: read %s: %v\n", *replayFrom, err)
			os.Exit(2)
		}
		// The trace's proc indices only make sense at the recorded
		// cluster size, so -replay pins n.
		if *n != sched.N {
			fmt.Printf("replay   : n=%d from %s overrides -n %d\n", sched.N, *replayFrom, *n)
			*n = sched.N
		}
		wl = replay.Replayer{Schedule: sched, Speed: *speed}
	}

	// Churn schedules parse after -replay may have pinned n, so the
	// proc indices are validated against the size that actually runs.
	joinAt := parseChurnSpec(*joinSpec, *n, "join")
	leaveAt := parseChurnSpec(*leaveSpec, *n, "leave")
	if (joinAt != nil || leaveAt != nil) && a != harness.AlgoHeartbeat {
		fmt.Fprintln(os.Stderr, "urbsim: -join/-leave need -algo heartbeat: the oracle detectors assume fixed membership (DESIGN.md §13)")
		os.Exit(2)
	}

	// The oracle algorithms stop when the wire goes quiet; the heartbeat
	// stack beats forever, so its runs stop on delivery convergence
	// instead (the engine credits a joiner's adopted history).
	stopQuiet := sim.Time(300)
	if a == harness.AlgoHeartbeat {
		stopQuiet = 0
	}

	scen := harness.Scenario{
		Name:          "urbsim",
		Observers:     observers,
		N:             *n,
		Algo:          a,
		Link:          channel.Bernoulli{P: *loss, D: channel.UniformDelay{Min: 1, Max: *delayMax}},
		FD:            fd.OracleConfig{Noise: nm, GST: *gst, NoisePeriod: 25},
		Workload:      wl,
		Crashes:       workload.CrashCount{Count: *crashes, From: *crashAt, To: *crashAt},
		JoinAt:        joinAt,
		LeaveAt:       leaveAt,
		Seed:          *seed,
		MaxTime:       sim.Time(*maxTime),
		StopWhenQuiet: stopQuiet,
	}
	if *nemesisSpec != "" {
		if a != harness.AlgoMajority && a != harness.AlgoHeartbeat {
			fmt.Fprintln(os.Stderr, "urbsim: -nemesis needs -algo majority or heartbeat: the oracle detectors are built before campaign faults merge and would contradict them (DESIGN.md §15)")
			os.Exit(2)
		}
		if *record != "" || *traceOut != "" || *chromeOut != "" || *timeline || *timelineWire {
			fmt.Fprintln(os.Stderr, "urbsim: -nemesis does not compose with -record/-trace/-trace-out/-timeline (campaign runs have their own auditor; record schedules without -nemesis, then replay them under it)")
			os.Exit(2)
		}
		os.Exit(runNemesisCampaign(scen, *nemesisSpec, *verbose))
	}

	out := harness.Run(scen)

	fmt.Printf("scenario : n=%d algo=%v link=%s crashes=%d seed=%d\n",
		*n, a, scen.Link, *crashes, *seed)
	fmt.Printf("run      : end=%d lastSend=%d quiescent=%v\n",
		out.Result.EndTime, out.Result.LastSend, out.Result.Quiescent)
	fmt.Printf("traffic  : %d copies offered, %d dropped (%.1f%%), %d bytes\n",
		out.Result.Net.Sent, out.Result.Net.Dropped,
		100*float64(out.Result.Net.Dropped)/max1(float64(out.Result.Net.Sent)),
		out.Result.Net.Bytes)
	fmt.Printf("delivery : issued=%d deliveredAll=%v latency mean/p50/p99/max = %s fast=%.1f%%\n",
		out.Issued, out.DeliveredAll, out.Latency.Summary(), 100*out.FastFraction)
	if joinAt != nil || leaveAt != nil {
		line := ""
		for p, at := range joinAt {
			if at <= 0 {
				continue
			}
			if out.Result.JoinedAt[p] == sim.Never {
				line += fmt.Sprintf(" p%d never finished joining;", p)
			} else {
				line += fmt.Sprintf(" p%d joined at %d (snapshot %d B, adopted %d);",
					p, out.Result.JoinedAt[p], out.Result.JoinBytes[p], len(out.Result.Adopted[p]))
			}
		}
		for p, at := range leaveAt {
			if at > 0 && out.Result.Left[p] {
				line += fmt.Sprintf(" p%d left at %d;", p, at)
			}
		}
		fmt.Printf("churn    :%s\n", line)
	}
	// The digest covers every process's ordered delivery sequence
	// (proc, time, message id): two runs print the same digest iff their
	// deliveries are identical. CI's replay smoke diffs this line.
	fmt.Printf("digest   : %016x\n", deliveryDigest(out.Result.Deliveries))

	if out.Report.OK() {
		fmt.Println("checks   : validity ok, uniform agreement ok, uniform integrity ok")
	} else {
		fmt.Printf("checks   : %d VIOLATION(S)\n", len(out.Report.Violations))
		for _, v := range out.Report.Violations {
			fmt.Printf("  - %s\n", v.Error())
		}
	}

	if *timeline || *timelineWire {
		fmt.Println()
		fmt.Print(trace.Timeline(*n, rec.Events(), trace.TimelineOptions{
			Wire:      *timelineWire,
			MaxEvents: 400,
		}))
	}

	if rec != nil && *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbsim: %v\n", err)
			os.Exit(2)
		}
		events := slices.Concat(rec.Events(), trace.AdoptEvents(out.Result))
		if err := trace.Write(f, *n, out.Result.Crashed, events); err != nil {
			fmt.Fprintf(os.Stderr, "urbsim: %v\n", err)
			os.Exit(2)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "urbsim: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("trace    : %d events written to %s\n", len(events), *traceOut)
	}

	if lifecycle != nil {
		f, err := os.Create(*chromeOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbsim: %v\n", err)
			os.Exit(2)
		}
		evs := lifecycle.Events()
		// Virtual time, not wall nanos: Chrome ts stays in raw units.
		if err := obs.WriteChromeTrace(f, evs, false); err != nil {
			fmt.Fprintf(os.Stderr, "urbsim: %v\n", err)
			os.Exit(2)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "urbsim: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("chrome   : %d lifecycle events written to %s (load in Perfetto)\n", len(evs), *chromeOut)
	}

	if schedRec != nil {
		if err := schedRec.Schedule(*n).WriteFile(*record); err != nil {
			fmt.Fprintf(os.Stderr, "urbsim: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("schedule : %d broadcasts written to %s\n", schedRec.Len(), *record)
	}

	if *verbose {
		for p, ds := range out.Result.Deliveries {
			status := "correct"
			if out.Result.Crashed[p] {
				status = "crashed"
			}
			fmt.Printf("p%-2d (%s): %d deliveries\n", p, status, len(ds))
			for _, d := range ds {
				kind := ""
				if d.Fast {
					kind = " (fast)"
				}
				fmt.Printf("    t=%-8d %s%s\n", d.At, d.ID, kind)
			}
		}
	}
	if !out.Report.OK() {
		os.Exit(1)
	}
}

// runNemesisCampaign resolves and runs one fault campaign over the
// assembled scenario and prints its audit. The digest line covers the
// full delivery history exactly like the plain path, so CI can diff a
// replayed schedule under a campaign (replay-under-nemesis).
func runNemesisCampaign(scen harness.Scenario, spec string, verbose bool) int {
	campaign, err := nemesis.Resolve(spec, scen.N)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urbsim: -nemesis %q: %v\n", spec, err)
		return 2
	}
	cfg, _ := scen.Build()
	res, err := nemesis.RunSim(cfg, campaign)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urbsim: %v\n", err)
		return 2
	}
	fmt.Printf("scenario : n=%d algo=%v link=%s seed=%d\n",
		scen.N, scen.Algo, scen.Link, scen.Seed)
	fmt.Printf("campaign : %s (%d stages, heal@%d, deadline %d)\n",
		campaign.Name, len(campaign.Stages), campaign.HealTime(), campaign.HealDeadline)
	for _, st := range campaign.Stages {
		fmt.Printf("  stage  : %s\n", st.Name)
	}
	fmt.Printf("run      : end=%d lastSend=%d\n", res.Result.EndTime, res.Result.LastSend)
	fmt.Printf("traffic  : %d copies offered, %d dropped, %d duplicated, %d mutated, %d bytes\n",
		res.Result.Net.Sent, res.Result.Net.Dropped,
		res.Result.Net.Duplicated, res.Result.Net.Mutated, res.Result.Net.Bytes)
	fmt.Printf("digest   : %016x\n", deliveryDigest(res.Result.Deliveries))
	fmt.Printf("audit    : %s\n", res.Audit.Report())
	if verbose {
		for p, ds := range res.Result.Deliveries {
			fmt.Printf("p%-2d: %d deliveries\n", p, len(ds))
			for _, d := range ds {
				fmt.Printf("    t=%-8d %s\n", d.At, d.ID)
			}
		}
	}
	if !res.Audit.OK() {
		return 1
	}
	return 0
}

// parseChurnSpec turns "proc@time,proc@time" into a per-process time
// slice of length n (the shape sim.Config.JoinAt/LeaveAt expect), or nil
// when the spec is empty.
func parseChurnSpec(spec string, n int, flagName string) []sim.Time {
	if spec == "" {
		return nil
	}
	out := make([]sim.Time, n)
	for _, part := range strings.Split(spec, ",") {
		var proc int
		var at int64
		if _, err := fmt.Sscanf(part, "%d@%d", &proc, &at); err != nil || proc < 0 || proc >= n || at <= 0 {
			fmt.Fprintf(os.Stderr, "urbsim: bad -%s entry %q: want proc@time with 0 <= proc < %d and time > 0\n",
				flagName, part, n)
			os.Exit(2)
		}
		out[proc] = sim.Time(at)
	}
	return out
}

// deliveryDigest folds every process's ordered delivery sequence into
// one 64-bit FNV-1a value, so identical runs can be compared by one
// printed line instead of full -v dumps.
func deliveryDigest(deliveries [][]sim.DeliveryAt) uint64 {
	h := fnv.New64a()
	for p, ds := range deliveries {
		for _, d := range ds {
			fmt.Fprintf(h, "p%d t%d %s %v\n", p, d.At, d.ID, d.Fast)
		}
	}
	return h.Sum64()
}

func max1(f float64) float64 {
	if f < 1 {
		return 1
	}
	return f
}
