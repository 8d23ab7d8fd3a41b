package nemesis

import (
	"fmt"

	"anonurb/internal/obs"
	"anonurb/internal/sim"
	"anonurb/internal/store"
	"anonurb/internal/trace"
	"anonurb/internal/wire"
)

// SimResult bundles the raw simulator outcome with the convergence
// auditor's verdict.
type SimResult struct {
	Result sim.Result
	Audit  Audit
}

// RunSim merges the campaign into a base simulator configuration,
// executes it, and audits the outcome. The base config supplies the
// cluster (N, Factory, Seed, TickEvery, base Link) and the workload
// (Broadcasts); the campaign supplies every fault: it wraps the link
// model in the staged overlays, merges the crash/recover/join/leave
// schedules (growing N for joiner slots beyond the founders), plants
// the store faults, and pins the horizon to heal + deadline with all
// early stops suppressed until heal — a run must not declare victory
// while faults are still ahead of it.
//
// The factory must build processes that tolerate the campaign: an
// algorithm consulting a ground-truth oracle (harness.AlgoQuiescent)
// would mis-see the merged crash schedule, so campaigns run on
// AlgoMajority or AlgoHeartbeat, which consult nothing but the wire.
// With heartbeat detection the trust timeout must exceed the longest
// partition window, or a side retires messages without the other
// side's acks and heals into permanent disagreement — that is a real
// finding about detector tuning, not a harness artifact (DESIGN.md
// §15).
func RunSim(base sim.Config, c Campaign) (*SimResult, error) {
	if err := c.Validate(base.N, false); err != nil {
		return nil, err
	}
	cfg := base
	n := base.N
	if mp := c.MaxProc(); mp+1 > n {
		n = mp + 1
	}
	cfg.N = n
	cfg.CrashAt = ensureTimes(base.CrashAt, n, sim.Never)
	cfg.RecoverAt = ensureTimes(base.RecoverAt, n, sim.Never)
	cfg.JoinAt = ensureTimes(base.JoinAt, n, 0)
	cfg.LeaveAt = ensureTimes(base.LeaveAt, n, 0)
	cfg.Stores = append(append([]store.Store(nil), base.Stores...), make([]store.Store, n-len(base.Stores))...)

	for _, s := range c.Stages {
		switch s.Kind {
		case StageCrash:
			for _, p := range s.Procs {
				cfg.CrashAt[p] = s.From
				if s.RecoverAfter > 0 {
					cfg.RecoverAt[p] = s.From + s.RecoverAfter
					if cfg.Stores[p] == nil {
						cfg.Stores[p] = store.NewMem()
					}
				}
			}
		case StageJoin:
			for _, p := range s.Procs {
				cfg.JoinAt[p] = s.From
			}
		case StageLeave:
			for _, p := range s.Procs {
				cfg.LeaveAt[p] = s.From
			}
		case StageTornWAL:
			for _, p := range s.Procs {
				mem, ok := cfg.Stores[p].(*store.Mem)
				if !ok {
					return nil, fmt.Errorf("nemesis: campaign %q: tornwal proc %d needs a *store.Mem store", c.Name, p)
				}
				// The tear arms now and manifests at the proc's next
				// recovery Load: the record in flight at the crash is
				// the one that goes missing.
				mem.TearTail()
			}
		}
	}
	for _, b := range cfg.Broadcasts {
		if at := cfg.JoinAt[b.Proc]; at > 0 && b.At < at {
			return nil, fmt.Errorf("nemesis: campaign %q: workload broadcasts on proc %d at %d, before its join at %d",
				c.Name, b.Proc, b.At, at)
		}
	}

	heal := c.HealTime()
	cfg.Link = c.BuildLink(base.Link)
	cfg.NoEarlyStopBefore = heal
	cfg.StopWhenQuiet = 0
	cfg.ExpectDeliveries = len(cfg.Broadcasts)
	cfg.MaxTime = heal + c.HealDeadline
	if last := lastBroadcast(cfg.Broadcasts); last > cfg.MaxTime {
		return nil, fmt.Errorf("nemesis: campaign %q: workload broadcasts until %d, beyond the campaign horizon %d",
			c.Name, last, cfg.MaxTime)
	}

	e := sim.NewEngine(cfg)
	res := e.Run()
	return &SimResult{Result: res, Audit: auditSim(c, cfg, e, res, heal)}, nil
}

func ensureTimes(base []sim.Time, n int, fill sim.Time) []sim.Time {
	out := make([]sim.Time, n)
	for i := range out {
		if i < len(base) {
			out[i] = base[i]
		} else {
			out[i] = fill
		}
	}
	return out
}

func lastBroadcast(bs []sim.ScheduledBroadcast) sim.Time {
	var last sim.Time
	for _, b := range bs {
		if b.At > last {
			last = b.At
		}
	}
	return last
}

// auditSim checks uniform agreement, join completion and re-delivery
// over a finished simulator run, attributing every stall to the stage
// in force when the message was born. The verdict comes from
// trace.Checker; processes that crashed for good or never completed a
// scheduled join are not held to agreement.
func auditSim(c Campaign, cfg sim.Config, e *sim.Engine, res sim.Result, heal int64) Audit {
	a := Audit{Campaign: c.Name, HealTime: heal, Deadline: c.HealDeadline,
		EndTime: res.EndTime, HealLatency: -1}

	notHeld := make([]bool, cfg.N)
	for p := range notHeld {
		switch {
		case res.Crashed[p]:
			notHeld[p] = true
		case cfg.JoinAt[p] > 0 && res.JoinedAt[p] == sim.Never:
			notHeld[p] = true
			a.PendingJoins = append(a.PendingJoins, p)
		default:
			a.Survivors++
		}
	}
	rep := trace.NewChecker(cfg.N, notHeld).Check(trace.ResultEvents(res))
	a.Redelivered = rep.Redelivered

	born := make(map[wire.MsgID]int64, len(res.Broadcasts))
	for _, b := range res.Broadcasts {
		born[b.ID] = b.At
	}
	for _, m := range rep.Missing {
		st := Stall{Proc: m.Proc, ID: m.ID, Born: born[m.ID], Stage: c.Blame(born[m.ID])}
		if ex, ok := e.Process(m.Proc).(obs.Explainer); ok {
			st.Explanation = ex.Explain(m.ID)
			st.HasExplanation = true
		}
		a.Stalls = append(a.Stalls, st)
	}
	a.Agreement = len(a.Stalls) == 0 && len(a.PendingJoins) == 0
	if a.Agreement {
		a.HealLatency = res.EndTime - heal
		if a.HealLatency < 0 {
			a.HealLatency = 0
		}
	}
	return a
}
