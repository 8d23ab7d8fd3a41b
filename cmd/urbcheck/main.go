// Command urbcheck verifies a recorded run against the URB specification:
// validity, uniform agreement, uniform integrity, the crash model and
// channel integrity. The verdict is trace.Checker's, the same referee
// the harness, the nemesis auditors and the benches use; history a
// joiner adopted (adopt events) counts as delivered, and delivering it
// again is an integrity violation. With -snapshot it instead
// verifies a saved durable-state snapshot (DESIGN.md §9): the codec
// version, the structure, and the embedded fingerprint digest.
//
// Usage:
//
//	urbcheck trace.jsonl          # verify a trace file
//	urbcheck internal/trace/testdata/duplicate.jsonl  # a golden violating trace: exit 1
//	urbsim ... -trace out.jsonl && urbcheck out.jsonl
//	urbcheck -truncated t.jsonl   # a run prefix: skip validity and agreement
//	urbcheck -selftest            # record a fresh run and verify it
//	urbcheck -snapshot snapshot.bin   # verify a durable-state snapshot
//	urbcheck -explain             # stall-explainer demo on a partitioned cluster
//	urbcheck -chrometrace t.json  # validate a Chrome trace-event export
//
// -snapshot accepts both a store container file (a File store's
// snapshot.bin) and a raw snapshot payload (urb.Snapshotter output).
//
// -explain runs a built-in majority cluster whose broadcast stalls — a
// majority of the ackers is partitioned away — and prints the stall
// explainer's report (DESIGN.md §14): which delivery evidence is
// missing, named exactly. Exit 0 iff the explainer names the shortfall.
//
// -chrometrace re-parses a Chrome trace-event JSON file (as written by
// urbsim -trace-out or served at /trace.json) and validates it: valid
// JSON, required fields, per-process monotone timestamps.
//
// Exit status: 0 if all properties hold, 1 otherwise (2 on usage or
// unreadable input).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"anonurb/internal/channel"
	"anonurb/internal/obs"
	"anonurb/internal/sim"
	"anonurb/internal/store"
	"anonurb/internal/trace"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
)

func main() {
	selftest := flag.Bool("selftest", false, "record a run in-process and verify it")
	truncated := flag.Bool("truncated", false, "trace is a run prefix: skip the eventual properties")
	snapshot := flag.String("snapshot", "", "verify a durable-state snapshot file instead of a trace")
	explain := flag.Bool("explain", false, "run the stall-explainer demo: a partitioned cluster, the report names the missing evidence")
	chrometrace := flag.String("chrometrace", "", "validate a Chrome trace-event JSON file instead of a trace")
	flag.Parse()

	if *snapshot != "" {
		os.Exit(checkSnapshot(*snapshot))
	}
	if *explain {
		os.Exit(explainDemo())
	}
	if *chrometrace != "" {
		os.Exit(checkChromeTrace(*chrometrace))
	}

	var h trace.Header
	var events []trace.Event
	var err error

	switch {
	case *selftest:
		h, events = recordSelftest()
	case flag.NArg() == 1:
		f, ferr := os.Open(flag.Arg(0))
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "urbcheck: %v\n", ferr)
			os.Exit(2)
		}
		defer f.Close()
		h, events, err = trace.Read(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "urbcheck: %v\n", err)
			os.Exit(2)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: urbcheck [-truncated] trace.jsonl | urbcheck -selftest | urbcheck -snapshot snapshot.bin")
		os.Exit(2)
	}

	checker := trace.NewChecker(h.N, h.Crashed)
	checker.CheckConvergent = !*truncated
	rep := checker.Check(events)
	fmt.Printf("trace    : n=%d, %d events, %d broadcasts, %d deliveries (%d fast)\n",
		h.N, len(events), rep.Broadcast, rep.TotalDeliveries, rep.FastDeliveries)
	if rep.OK() {
		fmt.Println("verdict  : all URB properties hold")
		return
	}
	fmt.Printf("verdict  : %d violation(s)\n", len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Printf("  - %s\n", v.Error())
	}
	os.Exit(1)
}

// checkSnapshot decodes and verifies a durable-state snapshot and
// returns the process exit code: 0 for a healthy snapshot, 1 for
// corruption or a version/kind mismatch, 2 for unreadable input.
func checkSnapshot(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urbcheck: %v\n", err)
		return 2
	}
	// A store container (snapshot.bin) wraps the payload in framing and
	// a checksum of its own; unwrap it first so both layers get checked.
	if store.IsSnapshotFile(data) {
		payload, err := store.ParseSnapshotFile(data)
		if err != nil {
			fmt.Printf("snapshot : %s (%d bytes, store container)\n", path, len(data))
			fmt.Printf("verdict  : CORRUPT — %v\n", err)
			return 1
		}
		fmt.Printf("snapshot : %s (%d bytes, store container; payload %d bytes)\n", path, len(data), len(payload))
		data = payload
	} else {
		fmt.Printf("snapshot : %s (%d bytes, raw payload)\n", path, len(data))
	}
	info, err := urb.VerifySnapshot(data)
	if err != nil {
		switch {
		case errors.Is(err, urb.ErrSnapshotVersion):
			fmt.Printf("verdict  : VERSION MISMATCH — codec version %d is not supported\n", info.Version)
		case errors.Is(err, urb.ErrSnapshotCorrupt):
			fmt.Println("verdict  : CORRUPT — recomputed fingerprint digest does not match the stored one")
		default:
			fmt.Printf("verdict  : CORRUPT — %v\n", err)
		}
		return 1
	}
	fmt.Printf("kind     : %s (codec v%d)\n", info.Kind, info.Version)
	if info.Kind == "majority" {
		fmt.Printf("system   : n=%d, threshold=%d\n", info.N, info.Threshold)
	}
	fmt.Printf("config   : %+v\n", info.Config)
	fmt.Printf("state    : msgs=%d delivered=%d acked=%d ackEntries=%d retired=%d draws=%d\n",
		info.Stats.MsgSet, info.Stats.Delivered, info.Stats.MyAcks,
		info.Stats.AckEntries, info.Stats.Retired, info.Draws)
	fmt.Printf("digest   : %016x (recomputed fingerprint digest matches)\n", info.Digest)
	fmt.Println("verdict  : snapshot is healthy")
	return 0
}

// explainDemo runs the stall scenario and prints the explainer's
// report, returning the exit code.
func explainDemo() int {
	ex, ok := runExplainDemo()
	fmt.Printf("scenario : n=5 majority, 3 processes partitioned away before the broadcast\n")
	fmt.Println(ex)
	if !ok {
		fmt.Println("verdict  : explainer FAILED to name the missing evidence")
		return 1
	}
	fmt.Printf("verdict  : stall explained — %d/%d ackers, %d more needed for the majority guard\n",
		ex.Ackers, ex.Need, ex.Need-ex.Ackers)
	return 0
}

// runExplainDemo builds a 5-process majority cluster, partitions 3
// processes away (as crashes at t=1, before the broadcast at t=5), runs
// the simulator to its horizon and asks the broadcaster's process to
// explain the undelivered message. ok reports whether the explanation
// names the evidence shortfall: known, not delivered, ackers < need.
func runExplainDemo() (ex obs.Explanation, ok bool) {
	const n = 5
	var procs []*urb.Majority
	lifecycle := sim.NewTraceObserver(0)
	res := sim.NewEngine(sim.Config{
		N: n,
		Factory: func(env sim.Env) urb.Process {
			p := urb.NewMajority(n, env.Tags, urb.Config{})
			procs = append(procs, p)
			return p
		},
		Link:       channel.Bernoulli{P: 0, D: channel.UniformDelay{Min: 1, Max: 2}},
		Seed:       2015,
		MaxTime:    2_000,
		CrashAt:    []sim.Time{sim.Never, sim.Never, 1, 1, 1},
		Broadcasts: []sim.ScheduledBroadcast{{At: 5, Proc: 0, Body: []byte("stalled")}},
		Observers:  []sim.Observer{lifecycle},
	}).Run()
	var id wire.MsgID
	for _, e := range lifecycle.Events() {
		if e.Kind == obs.EvBroadcast {
			id = e.Msg
		}
	}
	for _, ds := range res.Deliveries {
		if len(ds) != 0 {
			return ex, false // a partitioned majority must not deliver
		}
	}
	ex = procs[0].Explain(id)
	return ex, ex.Known && ex.Stalled() && ex.Ackers > 0 && ex.Ackers < ex.Need
}

// checkChromeTrace validates a Chrome trace-event JSON export and
// returns the exit code.
func checkChromeTrace(path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urbcheck: %v\n", err)
		return 2
	}
	defer f.Close()
	tr, err := obs.ReadChromeTrace(f)
	if err != nil {
		fmt.Printf("verdict  : INVALID — %v\n", err)
		return 1
	}
	if err := obs.CheckChromeTrace(tr); err != nil {
		fmt.Printf("trace    : %d events\n", len(tr.TraceEvents))
		fmt.Printf("verdict  : INVALID — %v\n", err)
		return 1
	}
	fmt.Printf("trace    : %d events\n", len(tr.TraceEvents))
	fmt.Println("verdict  : valid Chrome trace-event JSON, per-process timestamps monotone")
	return 0
}

// recordSelftest runs a small lossy scenario with crashes and returns its
// trace.
func recordSelftest() (trace.Header, []trace.Event) {
	const n = 5
	rec := trace.NewRecorder(trace.Options{Wire: true})
	res := sim.NewEngine(sim.Config{
		N: n,
		Factory: func(env sim.Env) urb.Process {
			return urb.NewMajority(n, env.Tags, urb.Config{})
		},
		Link:    channel.Bernoulli{P: 0.25, D: channel.UniformDelay{Min: 1, Max: 5}},
		Seed:    2015,
		MaxTime: 100_000,
		CrashAt: []sim.Time{sim.Never, sim.Never, sim.Never, 60, 80},
		Broadcasts: []sim.ScheduledBroadcast{
			{At: 5, Proc: 0, Body: []byte("selftest-a")},
			{At: 9, Proc: 1, Body: []byte("selftest-b")},
		},
		Observers:        []sim.Observer{rec},
		ExpectDeliveries: 2,
	}).Run()
	return trace.Header{Version: 1, N: n, Crashed: res.Crashed}, rec.Events()
}
