// Package harness assembles scenarios, runs them on the simulator, checks
// the URB properties, and formats the results as the tables and figures of
// the evaluation suite (EXPERIMENTS.md / DESIGN.md §4).
//
// A Scenario is the unit of execution: system size, algorithm, channel
// model, failure detector configuration, workload, crash plan and seed.
// Run executes it deterministically and returns an Outcome with checked
// properties and derived metrics. The experiment functions in
// experiments.go sweep Scenario parameters and tabulate Outcomes.
package harness

import (
	"fmt"

	"anonurb/internal/channel"
	"anonurb/internal/fd"
	"anonurb/internal/metrics"
	"anonurb/internal/rb"
	"anonurb/internal/sim"
	"anonurb/internal/trace"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/workload"
	"anonurb/internal/xrand"
)

// Algo selects the algorithm under test.
type Algo int

const (
	// AlgoMajority is the paper's Algorithm 1.
	AlgoMajority Algo = iota
	// AlgoQuiescent is the paper's Algorithm 2 (needs FD).
	AlgoQuiescent
	// AlgoMajorityLowered is Algorithm 1 with an UNSAFE sub-majority
	// delivery threshold of ⌈n/2⌉ acks — the hypothetical algorithm of
	// the Theorem 2 impossibility proof.
	AlgoMajorityLowered
	// AlgoBestEffort is the best-effort broadcast baseline (send once).
	AlgoBestEffort
	// AlgoEagerRB is the eager (flooding) reliable broadcast baseline.
	AlgoEagerRB
	// AlgoIDed is the classic identifier-based majority URB baseline.
	AlgoIDed
	// AlgoHeartbeat is Algorithm 2 over the heartbeat-based detector
	// realisation instead of the oracle (urb.HeartbeatHost) — no ground
	// truth anywhere, the full stack on one lossy mesh.
	AlgoHeartbeat
	// AlgoAnonRB is the companion technical report's anonymous
	// (non-uniform) reliable broadcast: deliver on first reception,
	// retransmit forever (rb.AnonymousRB).
	AlgoAnonRB
)

// String implements fmt.Stringer.
func (a Algo) String() string {
	switch a {
	case AlgoMajority:
		return "alg1-majority"
	case AlgoQuiescent:
		return "alg2-quiescent"
	case AlgoMajorityLowered:
		return "alg1-lowered"
	case AlgoBestEffort:
		return "best-effort"
	case AlgoEagerRB:
		return "eager-rb"
	case AlgoIDed:
		return "ided-urb"
	case AlgoHeartbeat:
		return "alg2-heartbeat"
	case AlgoAnonRB:
		return "anon-rb"
	default:
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

// Scenario fully describes one run.
type Scenario struct {
	Name string
	N    int
	Algo Algo
	// URB carries the algorithm-level knobs (eager send etc.).
	URB urb.Config
	// Link is the channel model (required).
	Link channel.LinkModel
	// FD configures the oracle for AlgoQuiescent; N and Seed are filled
	// in automatically.
	FD fd.OracleConfig
	// Workload generates the broadcast schedule (required).
	Workload workload.Broadcasts
	// Crashes generates the crash schedule; nil means no crashes.
	Crashes workload.Crashes
	// CrashAfterDeliveries enables the deliver-then-crash adversary
	// (optional, per-process delivery counts).
	CrashAfterDeliveries []int
	// JoinAt[i] > 0 makes process i a late joiner that pulls a state
	// snapshot over the lossy links at that time (DESIGN.md §13); nil or
	// 0 means present from the start. Requires an algorithm implementing
	// urb.Joiner — in practice AlgoHeartbeat, whose detector views follow
	// the beat traffic instead of a fixed-membership oracle.
	JoinAt []sim.Time
	// LeaveAt[i] > 0 removes process i at that time; to the survivors a
	// leave is indistinguishable from a crash (DESIGN.md §13).
	LeaveAt []sim.Time
	// HeartbeatTimeout is the trust timeout for AlgoHeartbeat; defaults
	// to 10×TickEvery.
	HeartbeatTimeout sim.Time
	Seed             uint64
	TickEvery        sim.Time
	MaxTime          sim.Time
	// StopWhenQuiet > 0 enables quiescence detection.
	StopWhenQuiet sim.Time
	// SampleEvery > 0 collects the time series for F1/F5.
	SampleEvery sim.Time
	// FullHorizon disables the early stop on all-delivered, so the run
	// covers exactly MaxTime (time-series figures need aligned horizons).
	FullHorizon bool
	// Observers receive the run's events (trace recording).
	Observers []sim.Observer
}

// Outcome is a checked, measured run.
type Outcome struct {
	Scenario Scenario
	Result   sim.Result
	Report   *trace.Report
	// Oracle is the failure detector oracle, if one was built.
	Oracle *fd.Oracle
	// Latency collects (delivery time − broadcast time) over all
	// deliveries at correct processes.
	Latency *metrics.Histogram
	// Issued is the number of URB-broadcasts actually executed.
	Issued int
	// DeliveredAll reports that every correct process delivered (or
	// adopted) every obliged message: Report.Missing is empty.
	DeliveredAll bool
	// QuiesceTime is the time of the last wire send for quiescent runs,
	// or -1 if the run never went quiet.
	QuiesceTime sim.Time
	// WireMessages is the number of wire messages broadcast (each costs
	// N link copies).
	WireMessages uint64
	// FastFraction is the share of deliveries that were fast (from ACKs
	// only).
	FastFraction float64
}

// MsgsPerBroadcast returns wire messages per issued URB-broadcast.
func (o *Outcome) MsgsPerBroadcast() float64 {
	if o.Issued == 0 {
		return 0
	}
	return float64(o.WireMessages) / float64(o.Issued)
}

// Run executes the scenario.
func Run(s Scenario) Outcome {
	cfg, oracle := s.Build()
	res := sim.NewEngine(cfg).Run()
	return analyze(s, oracle, res)
}

// Build assembles the scenario into a runnable sim.Config without
// executing it, so callers that need to adjust the run — the nemesis
// campaign runner merges fault schedules and wraps the link model — can
// interpose between assembly and execution. The returned oracle is
// non-nil only for AlgoQuiescent (whose correctness vector reflects the
// scenario's own crash schedule; faults added afterwards are invisible
// to it — campaign runners must use AlgoMajority or AlgoHeartbeat,
// which consult no ground truth).
func (s Scenario) Build() (sim.Config, *fd.Oracle) {
	if s.N < 1 {
		panic("harness: scenario needs N >= 1")
	}
	if s.Link == nil || s.Workload == nil {
		panic("harness: scenario needs Link and Workload")
	}
	if s.Crashes == nil {
		s.Crashes = workload.NoCrashes{}
	}
	if s.MaxTime <= 0 {
		s.MaxTime = 200_000
	}
	if s.TickEvery <= 0 {
		s.TickEvery = 10
	}

	wlRng := xrand.SplitLabeled(s.Seed, "workload")
	broadcasts := s.Workload.Generate(s.N, wlRng)
	crashAt := s.Crashes.Generate(s.N, xrand.SplitLabeled(s.Seed, "crashes"))

	correct := sim.CorrectSet(s.N, crashAt, s.CrashAfterDeliveries)
	var oracle *fd.Oracle
	var factory sim.Factory
	switch s.Algo {
	case AlgoMajority:
		n, cfg := s.N, s.URB
		factory = func(env sim.Env) urb.Process {
			return urb.NewMajority(n, env.Tags, cfg)
		}
	case AlgoMajorityLowered:
		n, cfg := s.N, s.URB
		threshold := (n + 1) / 2 // ⌈n/2⌉: one short of a strict majority for even n
		factory = func(env sim.Env) urb.Process {
			return urb.NewMajorityThreshold(n, threshold, env.Tags, cfg)
		}
	case AlgoQuiescent:
		fdCfg := s.FD
		fdCfg.N = s.N
		if fdCfg.Seed == 0 {
			fdCfg.Seed = s.Seed
		}
		oracle = fd.NewOracle(fdCfg, correct)
		cfg := s.URB
		o := oracle
		factory = func(env sim.Env) urb.Process {
			return urb.NewQuiescent(o.Handle(env.Index, env.Now), env.Tags, cfg)
		}
	case AlgoHeartbeat:
		timeout := s.HeartbeatTimeout
		if timeout <= 0 {
			timeout = 10 * s.TickEvery
		}
		cfg := s.URB
		factory = func(env sim.Env) urb.Process {
			return urb.NewHeartbeatHost(env.Tags, timeout, 1, env.Now, cfg)
		}
	case AlgoAnonRB:
		factory = func(env sim.Env) urb.Process { return rb.NewAnonymousRB(env.Tags) }
	case AlgoBestEffort:
		factory = func(env sim.Env) urb.Process { return rb.NewBestEffort(env.Tags) }
	case AlgoEagerRB:
		factory = func(env sim.Env) urb.Process { return rb.NewEagerRB(env.Tags) }
	case AlgoIDed:
		n := s.N
		factory = func(env sim.Env) urb.Process { return rb.NewIDed(env.Index, n, env.Tags) }
	default:
		panic(fmt.Sprintf("harness: unknown algo %v", s.Algo))
	}

	expect := len(broadcasts)
	if s.FullHorizon {
		expect = 0
	}
	return sim.Config{
		N:                    s.N,
		Factory:              factory,
		Link:                 s.Link,
		Seed:                 s.Seed,
		TickEvery:            s.TickEvery,
		MaxTime:              s.MaxTime,
		CrashAt:              crashAt,
		CrashAfterDeliveries: s.CrashAfterDeliveries,
		JoinAt:               s.JoinAt,
		LeaveAt:              s.LeaveAt,
		Broadcasts:           broadcasts,
		StopWhenQuiet:        s.StopWhenQuiet,
		ExpectDeliveries:     expect,
		SampleEvery:          s.SampleEvery,
		Observers:            s.Observers,
	}, oracle
}

// analyze derives the Outcome from a finished run.
func analyze(s Scenario, oracle *fd.Oracle, res sim.Result) Outcome {
	o := Outcome{
		Scenario:    s,
		Result:      res,
		Oracle:      oracle,
		Latency:     metrics.NewHistogram(),
		Issued:      len(res.Broadcasts),
		QuiesceTime: -1,
	}
	o.Report = trace.CheckResult(res)
	if res.Quiescent {
		o.QuiesceTime = res.LastSend
	}
	if res.Net.Sent > 0 {
		o.WireMessages = res.Net.Sent / uint64(len(res.Deliveries))
	}

	born := make(map[wire.MsgID]sim.Time, len(res.Broadcasts))
	for _, b := range res.Broadcasts {
		born[b.ID] = b.At
	}
	fast, total := 0, 0
	for p, ds := range res.Deliveries {
		if res.Crashed[p] {
			continue
		}
		for _, d := range ds {
			total++
			if d.Fast {
				fast++
			}
			if bt, ok := born[d.ID]; ok {
				o.Latency.Observe(d.At - bt)
			}
		}
	}
	o.DeliveredAll = len(o.Report.Missing) == 0 && len(res.Broadcasts) > 0
	if total > 0 {
		o.FastFraction = float64(fast) / float64(total)
	}
	return o
}

// MustConverge panics (with scenario context) unless the outcome is a
// fully delivered, property-clean run. Experiments use it where anything
// else indicates a bug in this repository rather than a finding.
func (o *Outcome) MustConverge() *Outcome {
	if err := o.Report.Err(); err != nil {
		panic(fmt.Sprintf("harness: scenario %q violates URB: %v", o.Scenario.Name, err))
	}
	if !o.DeliveredAll {
		panic(fmt.Sprintf("harness: scenario %q did not converge (end=%d)",
			o.Scenario.Name, o.Result.EndTime))
	}
	return o
}
