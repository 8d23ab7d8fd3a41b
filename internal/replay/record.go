package replay

import (
	"sync"

	"anonurb/internal/sim"
	"anonurb/internal/trace"
)

// Recorder captures a run's broadcast schedule. Its Record method is a
// simulator hook, so plugging it into a simulator scenario (or a
// harness Observers list) records every URB_broadcast the run
// executes; live drivers record through Observe instead, since the
// caller of node.Broadcast is the broadcaster and holds the body.
//
// A Recorder is safe for concurrent use: live clusters broadcast from
// many goroutines.
type Recorder struct {
	mu      sync.Mutex
	entries []Entry
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Observe records one broadcast: proc URB-broadcast body at virtual
// time at. Live drivers map wall-clock time to virtual time with
// whatever unit they replay at (Drive uses the same convention).
func (r *Recorder) Observe(at sim.Time, proc int, body []byte) {
	r.mu.Lock()
	r.entries = append(r.entries, Entry{
		At:     at,
		Proc:   proc,
		Size:   len(body),
		Digest: BodyDigest(body),
	})
	r.mu.Unlock()
}

// Record is the simulator hook (sim.Config.Observers): it records
// broadcast events and ignores the rest.
func (r *Recorder) Record(e trace.Event) {
	if e.Kind == trace.KindBroadcast {
		r.Observe(e.At, e.Proc, []byte(e.ID.Body))
	}
}

// Len reports how many broadcasts have been recorded.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Schedule snapshots the recording as a Schedule for a system of n
// processes. The entries are copied; recording may continue.
func (r *Recorder) Schedule(n int) *Schedule {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Schedule{N: n, Entries: append([]Entry(nil), r.entries...)}
}
