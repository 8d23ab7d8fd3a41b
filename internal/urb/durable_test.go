package urb

import (
	"bytes"
	"fmt"
	"testing"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// buildMajority drives a Majority instance into a non-trivial state:
// broadcasts, receptions, acks from several peers, a delivery.
func buildMajority(seed uint64) *Majority {
	p := NewMajorityThreshold(5, 3, ident.NewSource(xrand.New(seed)), Config{CheckOnTick: true})
	p.Broadcast([]byte("alpha"))
	p.Broadcast([]byte{0x00, 0xff, 0x80}) // non-UTF-8 body
	other := wire.MsgID{Tag: ident.Tag{Hi: 7, Lo: 7}, Body: "beta"}
	p.Receive(wire.NewMsg(other))
	for i := uint64(1); i <= 3; i++ {
		p.Receive(wire.NewAck(other, ident.Tag{Hi: 100 + i, Lo: 1}))
	}
	p.Tick()
	return p
}

// buildQuiescent drives a Quiescent instance with delta-ACK machinery
// engaged: ledger entries, epochs, synced and unsynced views, a pending
// resync limiter, a purge, a retirement.
func buildQuiescent(seed uint64, delta bool) *Quiescent {
	return buildQuiescentCfg(seed, Config{DeltaAcks: delta})
}

func buildQuiescentCfg(seed uint64, cfg Config) *Quiescent {
	view := fd.Normalize(fd.View{{Label: lbl(1), Number: 2}, {Label: lbl(2), Number: 2}})
	det := &fd.Func{
		ThetaFn: func() fd.View { return view },
		StarFn:  func() fd.View { return view },
	}
	p := NewQuiescent(det, ident.NewSource(xrand.New(seed)), cfg)
	p.Broadcast([]byte("alpha"))
	id := wire.MsgID{Tag: ident.Tag{Hi: 7, Lo: 7}, Body: "beta"}
	p.Receive(wire.NewMsg(id))
	p.Receive(wire.NewAckSnapshot(id, lbl(100), 1, []ident.Tag{lbl(1), lbl(2)}))
	p.Receive(wire.NewAckDelta(id, lbl(100), 2, []ident.Tag{lbl(3)}, nil))
	p.Receive(wire.NewLabeledAck(id, lbl(101), []ident.Tag{lbl(1)})) // unsynced legacy view
	// An epoch gap leaves a pending resync-request limiter behind.
	p.Receive(wire.NewAckDelta(id, lbl(102), 5, []ident.Tag{lbl(2)}, nil))
	p.Receive(wire.NewAckSnapshot(id, lbl(103), 1, []ident.Tag{lbl(1), lbl(2)}))
	p.Tick()
	p.Receive(wire.NewMsg(id)) // re-ACK after the tick (ledger re-arm path)
	return p
}

// buildHeartbeatHost drives the full heartbeat stack.
func buildHeartbeatHost(seed uint64) *HeartbeatHost {
	var now int64
	h := NewHeartbeatHost(ident.NewSource(xrand.New(seed)), 50, 2, func() int64 { return now }, Config{DeltaAcks: true})
	h.Broadcast([]byte("alpha"))
	h.Receive(wire.NewBeat(lbl(41)))
	now = 10
	h.Receive(wire.NewBeat(lbl(42)))
	id := wire.MsgID{Tag: ident.Tag{Hi: 7, Lo: 7}, Body: "beta"}
	h.Receive(wire.NewMsg(id))
	h.Tick()
	now = 20
	h.Tick()
	return h
}

func TestSnapshotRoundTripMajority(t *testing.T) {
	p := buildMajority(11)
	snap := p.Snapshot()
	if !bytes.Equal(snap, p.Snapshot()) {
		t.Fatal("snapshot encoding is not canonical (two calls differ)")
	}
	q := NewMajorityThreshold(5, 3, ident.NewSource(xrand.New(11)), Config{CheckOnTick: true})
	if err := q.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if p.Fingerprint() != q.Fingerprint() {
		t.Fatalf("fingerprint mismatch after round trip:\n got %s\nwant %s", q.Fingerprint(), p.Fingerprint())
	}
	// Behaviour equality: identical further inputs produce identical
	// outputs and states.
	other := wire.MsgID{Tag: ident.Tag{Hi: 7, Lo: 7}, Body: "beta"}
	s1 := p.Receive(wire.NewAck(other, ident.Tag{Hi: 200, Lo: 1}))
	s2 := q.Receive(wire.NewAck(other, ident.Tag{Hi: 200, Lo: 1}))
	if len(s1.Deliveries) != len(s2.Deliveries) {
		t.Fatalf("diverged after restore: %v vs %v", s1, s2)
	}
	t1, t2 := p.Tick(), q.Tick()
	if len(t1.Broadcasts) != len(t2.Broadcasts) {
		t.Fatalf("tick diverged after restore: %d vs %d broadcasts", len(t1.Broadcasts), len(t2.Broadcasts))
	}
	if p.Fingerprint() != q.Fingerprint() {
		t.Fatal("states diverged after identical post-restore inputs")
	}
}

func TestSnapshotRoundTripQuiescent(t *testing.T) {
	for _, delta := range []bool{false, true} {
		t.Run(fmt.Sprintf("delta=%v", delta), func(t *testing.T) {
			p := buildQuiescent(13, delta)
			snap := p.Snapshot()
			if !bytes.Equal(snap, p.Snapshot()) {
				t.Fatal("snapshot encoding is not canonical")
			}
			view := fd.Normalize(fd.View{{Label: lbl(1), Number: 2}, {Label: lbl(2), Number: 2}})
			det := fd.Static{Theta: view.Clone(), Star: view.Clone()}
			q := NewQuiescent(det, ident.NewSource(xrand.New(13)), Config{DeltaAcks: delta})
			if err := q.Restore(snap); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if p.Fingerprint() != q.Fingerprint() {
				t.Fatalf("fingerprint mismatch:\n got %s\nwant %s", q.Fingerprint(), p.Fingerprint())
			}
			// The restored tag stream continues where the original's does.
			id := wire.MsgID{Tag: ident.Tag{Hi: 8, Lo: 8}, Body: "gamma"}
			s1 := p.Receive(wire.NewMsg(id))
			s2 := q.Receive(wire.NewMsg(id))
			if len(s1.Broadcasts) != len(s2.Broadcasts) {
				t.Fatalf("post-restore ACK divergence: %v vs %v", s1.Broadcasts, s2.Broadcasts)
			}
			for i := range s1.Broadcasts {
				if !s1.Broadcasts[i].Equal(s2.Broadcasts[i]) {
					t.Fatalf("post-restore broadcast %d differs: %v vs %v", i, s1.Broadcasts[i], s2.Broadcasts[i])
				}
			}
			if p.Fingerprint() != q.Fingerprint() {
				t.Fatal("states diverged after identical post-restore inputs")
			}
		})
	}
}

func TestSnapshotRoundTripHeartbeatHost(t *testing.T) {
	h := buildHeartbeatHost(17)
	snap := h.Snapshot()
	if !bytes.Equal(snap, h.Snapshot()) {
		t.Fatal("snapshot encoding is not canonical")
	}
	var now int64 = 20
	g := NewHeartbeatHost(ident.NewSource(xrand.New(17)), 50, 2, func() int64 { return now }, Config{DeltaAcks: true})
	if err := g.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if h.Fingerprint() != g.Fingerprint() {
		t.Fatalf("fingerprint mismatch:\n got %s\nwant %s", g.Fingerprint(), h.Fingerprint())
	}
	if g.Detector().Label() != h.Detector().Label() {
		t.Fatal("restored host did not adopt the persistent detector label")
	}
	s1, s2 := h.Tick(), g.Tick()
	if len(s1.Broadcasts) != len(s2.Broadcasts) {
		t.Fatalf("tick diverged: %v vs %v", s1.Broadcasts, s2.Broadcasts)
	}
}

func TestSnapshotRestoreRejectsGarbage(t *testing.T) {
	p := buildQuiescent(19, true)
	snap := p.Snapshot()
	fresh := func() *Quiescent {
		view := fd.Normalize(fd.View{{Label: lbl(1), Number: 2}, {Label: lbl(2), Number: 2}})
		return NewQuiescent(fd.Static{Theta: view, Star: view}, ident.NewSource(xrand.New(19)), Config{DeltaAcks: true})
	}

	if err := fresh().Restore(nil); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	bad := append([]byte(nil), snap...)
	bad[0] = 99
	if err := fresh().Restore(bad); err != ErrSnapshotVersion {
		t.Fatalf("bad version: %v", err)
	}
	bad = append([]byte(nil), snap...)
	bad[1] = snapKindMajority
	if err := fresh().Restore(bad); err != ErrSnapshotKind {
		t.Fatalf("wrong kind: %v", err)
	}
	// Truncations at every length must error, never panic.
	for cut := 0; cut < len(snap); cut++ {
		if err := fresh().Restore(snap[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// A flipped payload byte must fail the fingerprint digest (or a
	// structural check) — find a byte whose flip survives structure.
	corrupted := 0
	for i := 2; i < len(snap); i++ {
		bad = append([]byte(nil), snap...)
		bad[i] ^= 0x01
		if err := fresh().Restore(bad); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("no corruption cases exercised")
	}
	// Config mismatch: same state, differently configured receiver.
	view := fd.Normalize(fd.View{{Label: lbl(1), Number: 2}})
	q := NewQuiescent(fd.Static{Theta: view, Star: view}, ident.NewSource(xrand.New(19)), Config{})
	if err := q.Restore(snap); err == nil {
		t.Fatal("config-flag mismatch accepted")
	}
	// System-size mismatch for Majority.
	m := buildMajority(23)
	msnap := m.Snapshot()
	wrongN := NewMajorityThreshold(7, 4, ident.NewSource(xrand.New(23)), Config{CheckOnTick: true})
	if err := wrongN.Restore(msnap); err == nil {
		t.Fatal("n/threshold mismatch accepted")
	}
	// A tag source already past the snapshot's position cannot rewind.
	used := NewMajorityThreshold(5, 3, ident.NewSource(xrand.New(23)), Config{CheckOnTick: true})
	for i := 0; i < 50; i++ {
		used.Broadcast([]byte{byte(i)})
	}
	if err := used.Restore(msnap); err == nil {
		t.Fatal("restore onto a used process with a rewound stream accepted")
	}
}

func TestVerifySnapshot(t *testing.T) {
	cases := []struct {
		name string
		snap []byte
		kind string
	}{
		{"majority", buildMajority(29).Snapshot(), "majority"},
		{"quiescent", buildQuiescent(31, true).Snapshot(), "quiescent"},
		{"heartbeat", buildHeartbeatHost(37).Snapshot(), "heartbeat-host"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			info, err := VerifySnapshot(tc.snap)
			if err != nil {
				t.Fatalf("verify: %v", err)
			}
			if info.Kind != tc.kind {
				t.Fatalf("kind = %q, want %q", info.Kind, tc.kind)
			}
			if info.Stats.MsgSet == 0 && info.Stats.Delivered == 0 && info.Stats.MyAcks == 0 {
				t.Fatal("verified snapshot reports an empty state")
			}
			// Corrupt one byte: Verify must reject.
			bad := append([]byte(nil), tc.snap...)
			bad[len(bad)/2] ^= 0x10
			if _, err := VerifySnapshot(bad); err == nil {
				t.Fatal("corrupted snapshot verified")
			}
			if _, err := VerifySnapshot(tc.snap[:len(tc.snap)-3]); err == nil {
				t.Fatal("truncated snapshot verified")
			}
		})
	}
	if _, err := VerifySnapshot(nil); err == nil {
		t.Fatal("empty input verified")
	}
	if _, err := VerifySnapshot([]byte{snapVersion, 42}); err != ErrSnapshotKind {
		t.Fatalf("unknown kind: %v", err)
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	id := wire.MsgID{Tag: ident.Tag{Hi: 3, Lo: 4}, Body: string([]byte{0, 1, 0xfe})}
	recs := []DurableEvent{
		{Kind: WALDeliver, ID: id, Fast: true},
		{Kind: WALDeliver, ID: id},
		{Kind: WALPin, ID: id, Ack: lbl(9), Draws: 17},
		{Kind: WALBroadcast, ID: id, Draws: 3},
	}
	for _, rec := range recs {
		got, err := DecodeWALRecord(rec.EncodeWAL())
		if err != nil {
			t.Fatalf("%v: %v", rec, err)
		}
		if got != rec {
			t.Fatalf("round trip: got %+v, want %+v", got, rec)
		}
	}
	// Corruption: truncations and bad kinds error, never panic.
	enc := recs[2].EncodeWAL()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeWALRecord(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeWALRecord(append(enc, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[1] = 77
	if _, err := DecodeWALRecord(bad); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestWALReplayPreservesUniformity is the core recovery property at the
// state-machine level: replaying DELIVER records prevents re-delivery,
// replaying PIN records re-acks under the original tag_ack, and replaying
// BROADCAST records resumes dissemination.
func TestWALReplayPreservesUniformity(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 1})
	p := newQui(t, det, Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	s := p.Receive(wire.NewMsg(id))
	pin := s.Durable[0]
	if pin.Kind != WALPin {
		t.Fatalf("first reception must emit a pin event, got %v", pin)
	}
	s = p.Receive(wire.NewLabeledAck(id, lbl(100), []ident.Tag{lbl(1)}))
	if len(s.Deliveries) != 1 {
		t.Fatal("setup: no delivery")
	}

	// "Recover" into a fresh process from an empty snapshot plus the WAL.
	q := newQui(t, det, Config{})
	for _, rec := range []DurableEvent{pin, DeliverEvent(s.Deliveries[0])} {
		enc := rec.EncodeWAL()
		dec, err := DecodeWALRecord(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if err := q.ApplyWAL(dec); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	if !q.HasDelivered(id) {
		t.Fatal("replayed delivery forgotten")
	}
	if !q.KnowsMsg(id) {
		t.Fatal("delivered message not retransmitting after replay")
	}
	// Re-receiving the message must re-deliver nothing and must re-ack
	// under the ORIGINAL tag_ack.
	s = q.Receive(wire.NewMsg(id))
	if len(s.Deliveries) != 0 {
		t.Fatal("recovered process re-delivered")
	}
	if len(s.Broadcasts) != 1 || s.Broadcasts[0].AckTag != pin.Ack {
		t.Fatalf("recovered process did not reuse the pinned tag_ack: %v", s.Broadcasts)
	}
	// And the delivery guard on fresh evidence stays quiet too.
	s = q.Receive(wire.NewLabeledAck(id, lbl(101), []ident.Tag{lbl(1)}))
	if len(s.Deliveries) != 0 {
		t.Fatal("recovered process re-delivered on ACK evidence")
	}
}

// TestWALBroadcastReplayResumesDissemination: a broadcast logged but not
// yet checkpointed must keep disseminating after recovery.
func TestWALBroadcastReplayResumesDissemination(t *testing.T) {
	p := newMaj(t, 3, Config{})
	_, s := p.Broadcast([]byte("survivor"))
	if len(s.Durable) != 1 || s.Durable[0].Kind != WALBroadcast {
		t.Fatalf("broadcast must emit a durable event, got %v", s.Durable)
	}
	q := newMaj(t, 3, Config{})
	if err := q.ApplyWAL(s.Durable[0]); err != nil {
		t.Fatalf("apply: %v", err)
	}
	tick := q.Tick()
	if len(tick.Broadcasts) != 1 || tick.Broadcasts[0].Kind != wire.KindMsg {
		t.Fatalf("recovered process does not retransmit the logged broadcast: %v", tick.Broadcasts)
	}
	if tick.Broadcasts[0].ID() != s.Durable[0].ID {
		t.Fatal("retransmits the wrong message")
	}
	// The replayed draw position prevents tag reuse: the next broadcast
	// draws a different tag than the logged one.
	id2, _ := q.Broadcast([]byte("survivor"))
	if id2 == s.Durable[0].ID {
		t.Fatal("post-recovery broadcast re-issued the logged tag")
	}
}

func FuzzSnapshotDecode(f *testing.F) {
	f.Add(buildMajority(41).Snapshot())
	f.Add(buildQuiescent(43, true).Snapshot())
	f.Add(buildQuiescent(43, false).Snapshot())
	f.Add(buildQuiescentCfg(44, Config{DeltaAcks: true}).Snapshot())
	f.Add(buildHeartbeatHost(47).Snapshot())
	hd := NewHeartbeatHost(ident.NewSource(xrand.New(48)), 50, 1, func() int64 { return 0 },
		Config{DeltaAcks: true, DeltaBeats: true})
	hd.Tick() // snapshot beat sent: beatSnapSent persists true
	f.Add(hd.Snapshot())
	f.Add([]byte{})
	f.Add([]byte{snapVersion, snapKindQuiescent})
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := VerifySnapshot(data)
		if err != nil {
			return
		}
		// Anything that verifies must re-encode to a verifiable snapshot
		// of the same kind (the decoder and encoder agree on the format).
		var snap []byte
		switch info.Kind {
		case "majority":
			p := NewMajorityThreshold(info.N, info.Threshold, verifyTagSource(), info.Config)
			if rerr := p.Restore(data); rerr != nil {
				t.Fatalf("verified but Restore failed: %v", rerr)
			}
			snap = p.Snapshot()
		case "quiescent":
			p := NewQuiescent(verifyDetector{}, verifyTagSource(), info.Config)
			if rerr := p.Restore(data); rerr != nil {
				t.Fatalf("verified but Restore failed: %v", rerr)
			}
			snap = p.Snapshot()
		case "heartbeat-host":
			p := NewHeartbeatHost(verifyTagSource(), info.Timeout, info.BeatEvery, func() int64 { return 0 }, info.Config)
			if rerr := p.Restore(data); rerr != nil {
				t.Fatalf("verified but Restore failed: %v", rerr)
			}
			snap = p.Snapshot()
		}
		info2, err := VerifySnapshot(snap)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not verify: %v", err)
		}
		if info2.Kind != info.Kind || info2.Digest != info.Digest {
			t.Fatalf("re-encode changed identity: %+v vs %+v", info2, info)
		}
	})
}

func FuzzWALRecordDecode(f *testing.F) {
	id := wire.MsgID{Tag: ident.Tag{Hi: 3, Lo: 4}, Body: "m"}
	f.Add(DurableEvent{Kind: WALDeliver, ID: id, Fast: true}.EncodeWAL())
	f.Add(DurableEvent{Kind: WALPin, ID: id, Ack: lbl(9), Draws: 17}.EncodeWAL())
	f.Add(DurableEvent{Kind: WALBroadcast, ID: id, Draws: 3}.EncodeWAL())
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeWALRecord(data)
		if err != nil {
			return
		}
		enc := rec.EncodeWAL()
		if !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode not canonical: %x vs %x", enc, data)
		}
	})
}
