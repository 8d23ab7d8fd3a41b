package urb

import (
	"testing"

	"anonurb/internal/ident"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

func deltaHost(seed uint64, timeout int64, clock func() int64) *HeartbeatHost {
	return NewHeartbeatHost(ident.NewSource(xrand.New(seed)), timeout, 1, clock,
		Config{DeltaAcks: true, DeltaBeats: true})
}

func beatsOf(s Step) []wire.Message {
	var out []wire.Message
	for _, m := range s.Broadcasts {
		if m.Kind.IsBeat() {
			out = append(out, m)
		}
	}
	return out
}

func TestHeartbeatHostDeltaBeatsSnapshotThenRefresh(t *testing.T) {
	now := int64(0)
	h := deltaHost(1, 100, func() int64 { return now })
	ref := wire.BeatRef(h.Detector().Label())

	s := h.Tick()
	bs := beatsOf(s)
	if len(bs) != 1 || bs[0].Kind != wire.KindBeatDelta || bs[0].Flags&wire.BeatFlagSnapshot == 0 {
		t.Fatalf("first beat must be a snapshot BEATΔ, got %v", bs)
	}
	if bs[0].Ref != ref || bs[0].Epoch != 1 ||
		len(bs[0].Labels) != 1 || bs[0].Labels[0] != h.Detector().Label() {
		t.Fatalf("snapshot beat malformed: %v", bs[0])
	}
	// Steady state: refreshes only, and they are smaller than a legacy
	// beat.
	for i := 0; i < 3; i++ {
		bs = beatsOf(h.Tick())
		if len(bs) != 1 || bs[0].Kind != wire.KindBeatDelta || bs[0].Flags != 0 {
			t.Fatalf("tick %d: want refresh BEATΔ, got %v", i, bs)
		}
		if bs[0].EncodedSize() >= wire.NewBeat(h.Detector().Label()).EncodedSize() {
			t.Fatal("refresh beat not smaller than legacy beat")
		}
	}
	if h.BeatsSent() != 4 {
		t.Fatalf("BeatsSent = %d, want 4", h.BeatsSent())
	}
}

func TestHeartbeatHostDeltaBeatReception(t *testing.T) {
	now := int64(0)
	a := deltaHost(2, 100, func() int64 { return now })
	b := deltaHost(3, 100, func() int64 { return now })

	// a's snapshot teaches b the stream; a's refreshes then keep the
	// label alive without carrying it.
	snap := beatsOf(a.Tick())[0]
	if s := b.Receive(snap); len(s.Broadcasts) != 0 {
		t.Fatalf("snapshot reception caused traffic: %v", s.Broadcasts)
	}
	if !b.Detector().ATheta().Has(a.Detector().Label()) {
		t.Fatal("snapshot beat not heard")
	}
	now = 90 // almost timed out
	refresh := beatsOf(a.Tick())[0]
	if refresh.Flags != 0 {
		t.Fatalf("want refresh, got %v", refresh)
	}
	b.Receive(refresh)
	now = 150 // a's snapshot would be stale by now; the refresh renewed it
	if !b.Detector().ATheta().Has(a.Detector().Label()) {
		t.Fatal("refresh did not renew liveness")
	}
}

func TestHeartbeatHostUnknownRefTriggersBeatResync(t *testing.T) {
	now := int64(0)
	a := deltaHost(4, 100, func() int64 { return now })
	b := deltaHost(5, 100, func() int64 { return now })

	// b sees a refresh for a stream it never learned: it must ask.
	a.Tick() // a's snapshot, lost
	refresh := beatsOf(a.Tick())[0]
	s := b.Receive(refresh)
	if len(s.Broadcasts) != 1 || s.Broadcasts[0].Kind != wire.KindBeatReq {
		t.Fatalf("want BEATREQ, got %v", s.Broadcasts)
	}
	if s.Broadcasts[0].Ref != wire.BeatRef(a.Detector().Label()) {
		t.Fatal("BEATREQ misaddressed")
	}
	// Rate-limited per ref per tick.
	if s := b.Receive(refresh); len(s.Broadcasts) != 0 {
		t.Fatalf("second BEATREQ within one tick: %v", s.Broadcasts)
	}
	// The owner answers with a snapshot (once per tick); a foreign host
	// stays silent.
	req := wire.NewBeatResync(wire.BeatRef(a.Detector().Label()))
	if s := b.Receive(req); len(s.Broadcasts) != 0 {
		t.Fatalf("non-owner answered a BEATREQ: %v", s.Broadcasts)
	}
	ans := a.Receive(req)
	if len(ans.Broadcasts) != 1 || ans.Broadcasts[0].Flags&wire.BeatFlagSnapshot == 0 {
		t.Fatalf("owner did not answer with a snapshot: %v", ans.Broadcasts)
	}
	if s := a.Receive(req); len(s.Broadcasts) != 0 {
		t.Fatalf("second snapshot answer within one tick: %v", s.Broadcasts)
	}
	// The answer repairs the stream: the next refresh is attributable.
	b.Receive(ans.Broadcasts[0])
	if s := b.Receive(refresh); len(s.Broadcasts) != 0 {
		t.Fatalf("repaired stream still requests: %v", s.Broadcasts)
	}
	if !b.Detector().ATheta().Has(a.Detector().Label()) {
		t.Fatal("repaired stream did not hear the label")
	}
}

// TestHeartbeatHostRefCollisionStaysAccurate: two streams sharing one
// ref (hand-built — a 2^-64 event live) must never cause the receiver
// to refresh the wrong label. The mapping degrades to snapshot-only.
func TestHeartbeatHostRefCollisionStaysAccurate(t *testing.T) {
	now := int64(0)
	h := deltaHost(6, 100, func() int64 { return now })
	const ref = uint64(0xdeadbeef)
	lx, ly := lbl(71), lbl(72)
	h.Receive(wire.NewBeatSnapshot(ref, 1, []ident.Tag{lx}))
	h.Receive(wire.NewBeatSnapshot(ref, 1, []ident.Tag{ly})) // collision detected
	// Both labels were heard via their snapshots (explicit labels are
	// always attributable).
	if !h.Detector().ATheta().Has(lx) || !h.Detector().ATheta().Has(ly) {
		t.Fatal("snapshot labels not heard")
	}
	// x crashes; only y keeps beating refreshes. The ambiguous mapping
	// must NOT refresh either label — it asks for snapshots instead.
	now = 200
	s := h.Receive(wire.NewBeatRefresh(ref, 1))
	if len(s.Broadcasts) != 1 || s.Broadcasts[0].Kind != wire.KindBeatReq {
		t.Fatalf("ambiguous refresh must resync, got %v", s.Broadcasts)
	}
	if h.Detector().ATheta().Has(lx) || h.Detector().ATheta().Has(ly) {
		t.Fatal("ambiguous refresh kept a label alive")
	}
	// y's snapshot answer revives y alone: accuracy holds.
	h.Receive(wire.NewBeatSnapshot(ref, 1, []ident.Tag{ly}))
	if h.Detector().ATheta().Has(lx) {
		t.Fatal("collision revived the crashed label")
	}
	if !h.Detector().ATheta().Has(ly) {
		t.Fatal("surviving label not heard through ambiguity")
	}
}

// TestHeartbeatHostRefCollisionAcrossEpochsKeepsLiveness: two streams
// colliding on one ref at DIFFERENT epochs (one host rejoined, say)
// never mark the mapping ambiguous — the lower-epoch host's refreshes
// read as stale. They must still trigger a resync, not silent
// starvation: its snapshot answers keep it alive.
func TestHeartbeatHostRefCollisionAcrossEpochsKeepsLiveness(t *testing.T) {
	now := int64(0)
	h := deltaHost(8, 100, func() int64 { return now })
	const ref = uint64(0xfeedface)
	la, lb := lbl(81), lbl(82)
	h.Receive(wire.NewBeatSnapshot(ref, 1, []ident.Tag{la}))       // host A, epoch 1
	h.Receive(wire.NewBeatSnapshot(ref, 1<<16|1, []ident.Tag{lb})) // host B, rejoined incarnation
	// A's refreshes are behind the mapping now. Staying silent would
	// suspect the live A forever; the host must ask for a snapshot.
	now = 90
	s := h.Receive(wire.NewBeatRefresh(ref, 1))
	if len(s.Broadcasts) != 1 || s.Broadcasts[0].Kind != wire.KindBeatReq {
		t.Fatalf("behind-epoch refresh must resync, got %v", s.Broadcasts)
	}
	// A answers (both owners would): its labels are heard explicitly.
	h.Receive(wire.NewBeatSnapshot(ref, 1, []ident.Tag{la}))
	if !h.Detector().ATheta().Has(la) {
		t.Fatal("lower-epoch collided stream starved")
	}
}

// TestHeartbeatHostDeltaEndToEnd mirrors TestHeartbeatHostEndToEnd with
// the delta beat encoding on: detectors converge
// through snapshot+refresh streams, a broadcast delivers and retires
// everywhere, and beats keep flowing after algorithm quiescence.
func TestHeartbeatHostDeltaEndToEnd(t *testing.T) {
	now := int64(0)
	clock := func() int64 { return now }
	const n = 3
	root := xrand.New(99)
	hosts := make([]*HeartbeatHost, n)
	procs := make([]Process, n)
	for i := range hosts {
		hosts[i] = NewHeartbeatHost(ident.NewSource(root.Split()), 200, 1, clock,
			Config{DeltaAcks: true, DeltaBeats: true})
		procs[i] = hosts[i]
	}
	pm := newPump(t, procs...)

	for r := 0; r < 3; r++ {
		now += 10
		pm.round()
	}
	for i, h := range hosts {
		if got := len(h.Detector().ATheta()); got != n {
			t.Fatalf("host %d detector sees %d labels, want %d", i, got, n)
		}
	}

	pm.broadcast(0, "via-delta-beats")
	for r := 0; r < 6; r++ {
		now += 10
		pm.round()
	}
	for i := range hosts {
		if got := len(pm.deliveredIDs(i)); got != 1 {
			t.Fatalf("host %d delivered %d", i, got)
		}
		st := hosts[i].Inner().Stats()
		if st.MsgSet != 0 || st.Retired != 1 {
			t.Fatalf("host %d algorithm not quiescent: %+v", i, st)
		}
		if st.AckLabelStorage >= st.AckLabels {
			t.Fatalf("host %d acker views do not share their label set: %+v", i, st)
		}
	}
	before := hosts[0].BeatsSent()
	now += 10
	pm.round()
	if hosts[0].BeatsSent() != before+1 {
		t.Fatal("beats should continue after algorithm quiescence")
	}
}

// TestHeartbeatHostMixedBeatModes: a delta-beating host and a legacy
// host interoperate — reception of every beat form is always on.
func TestHeartbeatHostMixedBeatModes(t *testing.T) {
	now := int64(0)
	clock := func() int64 { return now }
	root := xrand.New(123)
	legacy := NewHeartbeatHost(ident.NewSource(root.Split()), 200, 1, clock, Config{DeltaAcks: true})
	delta := NewHeartbeatHost(ident.NewSource(root.Split()), 200, 1, clock,
		Config{DeltaAcks: true, DeltaBeats: true})
	pm := newPump(t, legacy, delta)

	for r := 0; r < 3; r++ {
		now += 10
		pm.round()
	}
	if !legacy.Detector().ATheta().Has(delta.Detector().Label()) {
		t.Fatal("legacy host does not hear delta beats")
	}
	if !delta.Detector().ATheta().Has(legacy.Detector().Label()) {
		t.Fatal("delta host does not hear legacy beats")
	}
	pm.broadcast(1, "mixed")
	for r := 0; r < 6; r++ {
		now += 10
		pm.round()
	}
	for i := 0; i < 2; i++ {
		if got := len(pm.deliveredIDs(i)); got != 1 {
			t.Fatalf("host %d delivered %d", i, got)
		}
	}
}

// TestHeartbeatHostRejoinRebasesBeatEpoch: recovery bumps the beat
// stream's incarnation and re-snapshots, so receivers synced at the
// lost window's epochs resynchronise instead of discarding refreshes.
func TestHeartbeatHostRejoinRebasesBeatEpoch(t *testing.T) {
	now := int64(0)
	h := deltaHost(7, 100, func() int64 { return now })
	h.Tick() // snapshot at epoch 1
	snap := h.Snapshot()

	now = 20
	succ := deltaHost(7, 100, func() int64 { return now })
	if err := succ.Restore(snap); err != nil {
		t.Fatal(err)
	}
	succ.Rejoin()
	bs := beatsOf(succ.Tick())
	if len(bs) != 1 || bs[0].Flags&wire.BeatFlagSnapshot == 0 {
		t.Fatalf("recovered host must re-snapshot, got %v", bs)
	}
	if bs[0].Epoch <= 1 {
		t.Fatalf("recovered beat epoch %d not rebased above the predecessor's", bs[0].Epoch)
	}
	if bs[0].Labels[0] != h.Detector().Label() {
		t.Fatal("recovered host lost its persistent detector label")
	}
}
