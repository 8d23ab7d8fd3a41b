package urb

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// updateGolden rewrites the golden fixtures from the current code:
//
//	go test ./internal/urb -run TestGoldenSnapshots -args -update-golden
//
// The fixtures pin the snapshot layout, the fingerprints and every Step
// of fixed seeded runs, so a refactor of the state representation can
// prove it changed none of them (and needs no snapshot codec bump).
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_*.txt from the current code")

// goldenFabric is a lossy, reordering broadcast fabric for a golden run:
// every broadcast is queued for every live process (self included),
// dropped with probability loss, and queues are drained in a seeded
// random order. The transcript hash covers every Step in order.
type goldenFabric struct {
	procs   []Process
	queues  [][]wire.Message
	crashed []bool
	rng     *xrand.Source
	loss    float64
	steps   []byte // concatenated Step encodings, hashed at the end
	// clock, when set, is advanced by one at the start of every round
	// (the heartbeat hosts' detector clock).
	clock *int64
}

func (f *goldenFabric) absorb(i int, s Step) {
	f.steps = append(f.steps, byte(i), 0xfe)
	for _, m := range s.Broadcasts {
		f.steps = m.Encode(f.steps)
		for j := range f.queues {
			if !f.crashed[j] && f.rng.Float64() >= f.loss {
				f.queues[j] = append(f.queues[j], m)
			}
		}
	}
	for _, d := range s.Deliveries {
		f.steps = append(f.steps, 0xfd)
		f.steps = appendTagBytes(f.steps, d.ID.Tag)
		f.steps = append(f.steps, d.ID.Body...)
		if d.Fast {
			f.steps = append(f.steps, 1)
		}
	}
	for _, e := range s.Durable {
		f.steps = append(f.steps, e.EncodeWAL()...)
	}
}

// round ticks every live process, then drains every queue, picking the
// next receiver at random.
func (f *goldenFabric) round() {
	if f.clock != nil {
		*f.clock++
	}
	for i, p := range f.procs {
		if !f.crashed[i] {
			f.absorb(i, p.Tick())
		}
	}
	for {
		var ready []int
		for i, q := range f.queues {
			if len(q) > 0 && !f.crashed[i] {
				ready = append(ready, i)
			}
		}
		if len(ready) == 0 {
			return
		}
		i := ready[f.rng.Intn(len(ready))]
		m := f.queues[i][0]
		f.queues[i] = f.queues[i][1:]
		f.absorb(i, f.procs[i].Receive(m))
	}
}

func (f *goldenFabric) crash(i int) {
	f.crashed[i] = true
	f.queues[i] = nil
}

// transcript renders the run's golden record: the Step hash, then each
// process's snapshot bytes and fingerprint.
func (f *goldenFabric) transcript() string {
	var b strings.Builder
	sum := sha256.Sum256(f.steps)
	fmt.Fprintf(&b, "steps %s\n", hex.EncodeToString(sum[:]))
	for i, p := range f.procs {
		d := p.(interface {
			Snapshotter
			Fingerprinter
		})
		fmt.Fprintf(&b, "proc %d\nsnapshot %s\nfingerprint %s\n", i, hex.EncodeToString(d.Snapshot()), d.Fingerprint())
	}
	return b.String()
}

// goldenSchedule drives the fabric through broadcasts, a crash of the
// last process (whose label the detectors then drop: a view change, a
// D4 purge of its stale label and retirements against the new view),
// and a final snapshot taken while the last broadcasts still circulate.
func goldenSchedule(f *goldenFabric, crashHook func()) {
	n := len(f.procs)
	for r := 0; r < 40; r++ {
		if r%2 == 0 {
			i := f.rng.Intn(n - 1)
			_, s := f.procs[i].Broadcast([]byte(fmt.Sprintf("m%02d", r)))
			f.absorb(i, s)
		}
		if r == 14 {
			f.crash(n - 1)
			crashHook()
		}
		f.round()
	}
}

func goldenQuiescent(cfg Config) string {
	const n = 4
	labels := make([]ident.Tag, n)
	for i := range labels {
		labels[i] = lbl(uint64(i + 1))
	}
	view := func(k int) fd.View {
		v := make(fd.View, k)
		for i := range v {
			v[i] = fd.Pair{Label: labels[i], Number: k}
		}
		return fd.Normalize(v)
	}
	cur := view(n)
	det := &fd.Func{
		ThetaFn: func() fd.View { return cur },
		StarFn:  func() fd.View { return cur },
	}
	f := &goldenFabric{queues: make([][]wire.Message, n), crashed: make([]bool, n), rng: xrand.New(77), loss: 0.2}
	for i := 0; i < n; i++ {
		f.procs = append(f.procs, NewQuiescent(det, ident.NewSource(xrand.New(uint64(500+i))), cfg))
	}
	goldenSchedule(f, func() { cur = view(n - 1) })
	return f.transcript()
}

func goldenHeartbeat(cfg Config) string {
	const n = 4
	var now int64
	f := &goldenFabric{queues: make([][]wire.Message, n), crashed: make([]bool, n), rng: xrand.New(78), loss: 0.2, clock: &now}
	for i := 0; i < n; i++ {
		f.procs = append(f.procs, NewHeartbeatHost(ident.NewSource(xrand.New(uint64(600+i))), 6, 1, func() int64 { return now }, cfg))
	}
	// Warm the detectors so every host trusts every label before the
	// first broadcast; the crashed host's label then expires on its own.
	for r := 0; r < 3; r++ {
		f.round()
	}
	goldenSchedule(f, func() {})
	return f.transcript()
}

func goldenMajority() string {
	const n = 4
	f := &goldenFabric{queues: make([][]wire.Message, n), crashed: make([]bool, n), rng: xrand.New(79), loss: 0.2}
	for i := 0; i < n; i++ {
		f.procs = append(f.procs, NewMajority(n, ident.NewSource(xrand.New(uint64(700+i))), Config{CheckOnTick: true}))
	}
	goldenSchedule(f, func() {})
	return f.transcript()
}

// TestGoldenSnapshots rebuilds the fixed seeded runs and requires
// byte-identical Steps, snapshots and fingerprints to the fixtures in
// testdata, which were generated before the per-message record table
// replaced the MsgID-keyed maps: the state representation may change,
// the algorithm's observable behaviour and its persisted form may not.
func TestGoldenSnapshots(t *testing.T) {
	runs := []struct {
		name string
		run  func() string
	}{
		{"quiescent-paper", func() string { return goldenQuiescent(Config{}) }},
		{"quiescent-delta", func() string {
			return goldenQuiescent(Config{DeltaAcks: true, CheckOnTick: true, RetireBeforeSend: true})
		}},
		{"heartbeat-host", func() string {
			return goldenHeartbeat(Config{DeltaAcks: true, DeltaBeats: true})
		}},
		{"majority", goldenMajority},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			got := r.run()
			if again := r.run(); again != got {
				t.Fatal("golden run is not deterministic")
			}
			path := filepath.Join("testdata", "golden_"+r.name+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("%s differs at line %d:\n got %.200s\nwant %.200s", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s differs in length: %d lines, want %d", path, len(gl), len(wl))
			}
		})
	}
}
