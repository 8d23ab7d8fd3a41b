package main

import (
	"fmt"
	"slices"
	"time"

	"anonurb/internal/xrand"
)

// netKind selects the transport a workload's cluster runs on.
type netKind int

const (
	// netMesh is the in-process transport.Mesh; loss and delay are
	// modelled independently on every directed link.
	netMesh netKind = iota
	// netUDP is transport.UDPGroup over loopback sockets; a
	// transport.Chaos per node supplies the same loss and delay.
	netUDP
)

func (k netKind) String() string {
	if k == netUDP {
		return "udp"
	}
	return "mesh"
}

// workload is one traffic mix. Every workload runs the Algorithm 2
// heartbeat stack (urb.NewHeartbeatHost with delta ACKs, delta beats and
// compaction, as internal/bench does) with a 10 ms tick, 64 B payloads
// and 10% Bernoulli loss with a uniform 0–2 ms delay per link; the
// fields are what varies. Why each workload exists is recorded beside
// its name in BENCHMARK.json.
//
// Rates sit at 0.5–0.8 of one core on a 2-core host, below the latency
// knee: at n=5, latency doubles near 800 broadcasts/s. Algorithm 1
// (urb.Majority) is left out: its MSG set never shrinks, so it has no
// steady state under sustained load.
type workload struct {
	name string
	n    int
	// rate is the offered load in broadcasts per second, cluster-wide.
	rate float64
	net  netKind
	// durable gives every node a fsyncing store.OpenFile with the
	// default 1 s checkpoint.
	durable bool
	// epoch is how long one cluster carries load. A run cuts its
	// window into epochs, each a fresh cluster, and reports the median
	// of each figure over them. Per-message state never shrinks, so the
	// epoch also fixes how much history a cluster accumulates, and with
	// it the cost of walking that history. Epochs are as short as keeps
	// at least 150 broadcasts in each, so uniform_p90_ms has at least 15
	// samples beyond it.
	epoch time.Duration
}

var workloads = []workload{
	{name: "lossy-n5", n: 5, rate: 400, net: netMesh, epoch: 2500 * time.Millisecond},
	{name: "fanout-n16", n: 16, rate: 30, net: netMesh, epoch: 5 * time.Second},
	{name: "durable-n5", n: 5, rate: 100, net: netMesh, durable: true, epoch: 2500 * time.Millisecond},
	{name: "udp-n5", n: 5, rate: 400, net: netUDP, epoch: 2500 * time.Millisecond},
}

const (
	tickEvery   = 10 * time.Millisecond
	payloadSize = 64
	linkLoss    = 0.1
	// linkDelayMaxMs bounds the uniform per-link delay, in milliseconds.
	linkDelayMaxMs = 2
	// heartbeatTimeoutMs is internal/bench's trust timeout for a 10 ms
	// tick (50 ticks): generous against 10% loss, so no correct node is
	// ever suspected.
	heartbeatTimeoutMs = 500
)

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// schedule is the generator's whole input, drawn from the seed before
// any cluster exists: the due time of each broadcast (an offset from the
// start of the load window), the node that issues it, and its payload.
type schedule struct {
	due     []time.Duration
	sender  []int
	payload [][]byte
}

// newSchedule draws the arrivals of an open-loop Poisson process over
// window, conditioned on carrying exactly w.rate broadcasts per second
// (so every seed offers the same load), assigns senders round-robin and
// draws random payloads. The same seed gives the same schedule.
func newSchedule(w workload, seed uint64, window time.Duration) *schedule {
	arrivals := xrand.SplitLabeled(seed, "loadbench-arrivals")
	bodies := xrand.SplitLabeled(seed, "loadbench-payloads")
	m := int(w.rate * window.Seconds())
	s := &schedule{
		due:     make([]time.Duration, m),
		sender:  make([]int, m),
		payload: make([][]byte, m),
	}
	for k := range s.due {
		// Given their count, the arrival times of a Poisson process are
		// independent and uniform over the window.
		s.due[k] = time.Duration(arrivals.Int63n(int64(window)))
	}
	slices.Sort(s.due)
	for k := range s.payload {
		s.sender[k] = k % w.n
		s.payload[k] = make([]byte, payloadSize)
		for i := range s.payload[k] {
			s.payload[k][i] = byte(bodies.Uint64())
		}
	}
	return s
}
