package urb

import (
	"testing"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// TestQuiescentAdoptFreshAcker: a joiner adopting a donor snapshot keeps
// the delivered set and the received ACK evidence but acks under its own
// fresh tag_acks, with the delta streams rebased to a new incarnation.
func TestQuiescentAdoptFreshAcker(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 2})
	cfg := Config{DeltaAcks: true}
	donor := NewQuiescent(det, ident.NewSource(xrand.New(1)), cfg)

	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	donor.Receive(wire.NewMsg(id)) // pins a tag_ack, opens a delta stream
	donor.Receive(wire.NewAckSnapshot(id, lbl(100), 1, []ident.Tag{lbl(1)}))
	s := donor.Receive(wire.NewAckSnapshot(id, lbl(101), 1, []ident.Tag{lbl(1)}))
	if len(s.Deliveries) != 1 {
		t.Fatalf("donor did not deliver: %v", s.Deliveries)
	}
	donorPin, ok := donor.pinOf(id)
	if !ok {
		t.Fatal("donor did not pin a tag_ack")
	}

	joiner := NewQuiescent(det, ident.NewSource(xrand.New(2)), cfg)
	if err := joiner.Restore(donor.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if pin, _ := joiner.pinOf(id); pin != donorPin {
		t.Fatal("restore did not reproduce the donor's pin")
	}
	joiner.Adopt()

	// Kept: the delivered set and the claim evidence.
	if !joiner.HasDelivered(id) {
		t.Fatal("adopt lost the delivered set")
	}
	if joiner.Claims(id, lbl(1)) != 2 || joiner.Ackers(id) != 2 {
		t.Fatalf("adopt lost ACK evidence: claims=%d ackers=%d",
			joiner.Claims(id, lbl(1)), joiner.Ackers(id))
	}
	// Dropped: the donor's acker identity and send ledger.
	if joiner.pinned != 0 {
		t.Fatalf("adopt kept %d donor pins", joiner.pinned)
	}
	if joiner.ledgerLen() != 0 {
		t.Fatal("adopt kept the donor's delta-ACK ledger")
	}
	if want := uint64(1) << 32; joiner.epochFloor != want {
		t.Fatalf("epoch floor %#x, want %#x", joiner.epochFloor, want)
	}

	// The next MSG reception acks under a fresh tag — not the donor's.
	s = joiner.Receive(wire.NewMsg(id))
	if len(s.Deliveries) != 0 {
		t.Fatal("joiner re-delivered an adopted delivery")
	}
	pin, ok := joiner.pinOf(id)
	if !ok {
		t.Fatal("joiner did not pin a fresh tag_ack")
	}
	if pin == donorPin {
		t.Fatal("joiner acks under the donor's tag_ack")
	}
	var acked bool
	for _, m := range s.Broadcasts {
		if m.Kind == wire.KindAckDelta {
			acked = true
			if m.AckTag != pin {
				t.Fatalf("ACK under %v, want fresh pin %v", m.AckTag, pin)
			}
			if m.Flags&wire.AckFlagSnapshot == 0 {
				t.Fatal("fresh stream must open with a snapshot")
			}
			if m.Epoch <= joiner.epochFloor {
				t.Fatalf("stream epoch %#x not above floor %#x", m.Epoch, joiner.epochFloor)
			}
		}
	}
	if !acked {
		t.Fatal("joiner did not ack the message")
	}
}

// TestMajorityAdoptFreshAcker: Algorithm 1's adopt is the pin drop alone.
func TestMajorityAdoptFreshAcker(t *testing.T) {
	donor := NewMajority(3, ident.NewSource(xrand.New(1)), Config{})
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	donor.Receive(wire.NewMsg(id))
	donorPin, _ := donor.pinOf(id)

	joiner := NewMajority(3, ident.NewSource(xrand.New(2)), Config{})
	if err := joiner.Restore(donor.Snapshot()); err != nil {
		t.Fatal(err)
	}
	joiner.Adopt()
	if joiner.pinned != 0 {
		t.Fatal("adopt kept donor pins")
	}
	s := joiner.Receive(wire.NewMsg(id))
	if pin, _ := joiner.pinOf(id); pin.Zero() || pin == donorPin {
		t.Fatalf("fresh pin not drawn: %v (donor %v)", pin, donorPin)
	}
	if len(s.Broadcasts) == 0 {
		t.Fatal("joiner did not ack")
	}
}

// TestHeartbeatHostAdoptKeepsOwnLabel: a joining host announces its own
// factory-fresh label, never the donor's, and re-keys its beat stream.
func TestHeartbeatHostAdoptKeepsOwnLabel(t *testing.T) {
	cfg := Config{DeltaBeats: true}
	clock := func() int64 { return 10 }
	donor := NewHeartbeatHost(ident.NewSource(xrand.New(1)), 100, 1, clock, cfg)
	donor.Tick()
	peer := lbl(55)
	donor.Receive(wire.NewBeat(peer))

	joiner := NewHeartbeatHost(ident.NewSource(xrand.New(2)), 100, 1, clock, cfg)
	born := joiner.Detector().Label()
	if born == donor.Detector().Label() {
		t.Fatal("distinct seeds produced one label")
	}
	if err := joiner.Restore(donor.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if joiner.Detector().Label() != donor.Detector().Label() {
		t.Fatal("restore did not adopt the snapshot label (recovery semantics)")
	}
	joiner.Adopt()
	if joiner.Detector().Label() != born {
		t.Fatalf("adopt announces %v, want the host's own %v", joiner.Detector().Label(), born)
	}
	// The donor's heard map rides along as bootstrap liveness knowledge.
	var heardPeer bool
	for _, e := range joiner.Detector().Heard() {
		if e.Label == peer {
			heardPeer = true
		}
	}
	if !heardPeer {
		t.Fatal("adopt lost the donor's heard map")
	}
	// Beat stream: new incarnation, announced by snapshot under the
	// joiner's own ref on the first beat.
	if inc := joiner.beatEpoch >> 16; inc != 1 {
		t.Fatalf("beat incarnation %d, want 1", inc)
	}
	s := joiner.Tick()
	var snap *wire.Message
	for i, m := range s.Broadcasts {
		if m.Kind == wire.KindBeatDelta && m.Flags&wire.BeatFlagSnapshot != 0 {
			snap = &s.Broadcasts[i]
		}
	}
	if snap == nil {
		t.Fatal("first post-adopt beat is not a stream snapshot")
	}
	if snap.Ref != wire.BeatRef(born) {
		t.Fatal("beat stream not re-keyed to the joiner's own label")
	}
	if len(snap.Labels) != 1 || snap.Labels[0] != born {
		t.Fatalf("announced %v, want [%v]", snap.Labels, born)
	}
}

// TestVerifySnapshotIncarnation: the staleness gate's input — the
// snapshot's delta-stream incarnation — is exposed by VerifySnapshot.
func TestVerifySnapshotIncarnation(t *testing.T) {
	det := staticFD(fd.Pair{Label: lbl(1), Number: 1})
	p := NewQuiescent(det, ident.NewSource(xrand.New(1)), Config{})
	if info, err := VerifySnapshot(p.Snapshot()); err != nil || info.Incarnation != 0 {
		t.Fatalf("fresh process: inc=%d err=%v", info.Incarnation, err)
	}
	p.Rejoin()
	p.Rejoin()
	info, err := VerifySnapshot(p.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if info.Incarnation != 2 {
		t.Fatalf("incarnation %d, want 2", info.Incarnation)
	}

	h := NewHeartbeatHost(ident.NewSource(xrand.New(1)), 100, 1, func() int64 { return 0 }, Config{})
	h.Rejoin()
	info, err = VerifySnapshot(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if info.Incarnation != 1 {
		t.Fatalf("host incarnation %d, want 1", info.Incarnation)
	}
}
