package urb

// Self-stabilization harness (DESIGN.md §13). Restore is the door
// through which foreign state enters a process: a join adopts a donor
// snapshot, a recovery reloads a checkpoint. The digest trailer catches
// accidental corruption, so the adversary worth fuzzing is
// *digest-valid* arbitrary state — bytes mutated and then re-stamped so
// the checksum passes and only semantic validation stands between the
// mutation and a running process. The contract under test: Restore
// either fails loudly or yields a process that behaves — its snapshot
// round-trips, the join conversion (Adopt) succeeds, and state it
// claims as delivered is never delivered again.
//
// The re-stamp trick is white-box: both Restore implementations install
// the decoded state before the final digest compare, so after an
// ErrSnapshotCorrupt the receiver's Fingerprint() is the mutated
// state's fingerprint — exactly what a valid trailer would commit to.

import (
	"encoding/binary"
	"errors"
	"testing"

	"anonurb/internal/ident"
	"anonurb/internal/store"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// restamp replaces data's digest trailer with one committing to fp, the
// fingerprint the payload actually decodes to.
func restamp(data []byte, fp string) []byte {
	out := append([]byte(nil), data...)
	binary.BigEndian.PutUint64(out[len(out)-8:], snapDigest(out[:len(out)-8], fp))
	return out
}

// arbitraryRestore pushes one mutated payload through the Restore gate
// of the process kind its header claims; where only the digest
// disagrees it re-stamps and runs the gate again, and every acceptance
// is vetted for sane behaviour.
func arbitraryRestore(t *testing.T, data []byte) {
	t.Helper()
	if len(data) > 1 && data[1] == snapKindHeartbeat {
		arbitraryHeartbeat(t, data)
		return
	}
	arbitraryQuiescent(t, data)
}

func arbitraryQuiescent(t *testing.T, data []byte) {
	t.Helper()
	cfg := Config{}
	if len(data) > 2 {
		// The flags byte sits right after version and kind: building the
		// receiver from it maximises how much of the payload survives
		// the config-compatibility check and reaches deeper validation.
		cfg = cfgFromFlags(data[2])
	}
	fresh := func() *Quiescent {
		return NewQuiescent(verifyDetector{}, ident.NewSource(xrand.New(1)), cfg)
	}
	p := fresh()
	err := p.Restore(data)
	if err == nil {
		vetRestoredQuiescent(t, p, fresh())
		return
	}
	if !errors.Is(err, ErrSnapshotCorrupt) || len(data) < 8 {
		return // loud structural or semantic rejection
	}
	stamped := restamp(data, p.Fingerprint())
	p2 := fresh()
	if err := p2.Restore(stamped); err != nil {
		t.Fatalf("restamped state flip-flopped: first pass reached the digest, second rejected: %v", err)
	}
	vetRestoredQuiescent(t, p2, fresh())
}

func arbitraryHeartbeat(t *testing.T, data []byte) {
	t.Helper()
	beatEvery, timeout, cfg, ok := hostHeader(data)
	if !ok {
		beatEvery, timeout, cfg = 1, 50, Config{}
	}
	fresh := func() *HeartbeatHost {
		return NewHeartbeatHost(ident.NewSource(xrand.New(1)), timeout, beatEvery,
			func() int64 { return 0 }, cfg)
	}
	// A host snapshot carries two digests: the wrapped algorithm's inner
	// trailer and the host's outer one. A mutation in the inner region
	// fails the inner digest before the outer state installs, so
	// converging on a fully digest-valid mutation can take restamping
	// both trailers across passes: inner first (its state is installed
	// when its digest fails), then outer once the whole decode reaches
	// the final compare.
	cur := data
	for attempt := 0; attempt < 3; attempt++ {
		h := fresh()
		err := h.Restore(cur)
		if err == nil {
			vetRestoredHost(t, h, fresh())
			return
		}
		if !errors.Is(err, ErrSnapshotCorrupt) || len(cur) < 8 {
			return
		}
		next := append([]byte(nil), cur...)
		if from, to, ok := hostInnerRegion(next); ok {
			copy(next[from:to], restamp(next[from:to], h.inner.Fingerprint()))
		}
		cur = restamp(next, h.Fingerprint())
	}
	t.Fatal("digest restamping did not converge for host snapshot")
}

// hostInnerRegion locates the wrapped algorithm's length-prefixed
// snapshot inside a host snapshot (the layout hostHeader documents).
func hostInnerRegion(data []byte) (from, to int, ok bool) {
	if len(data) < 67 {
		return 0, 0, false
	}
	heard := int(binary.BigEndian.Uint32(data[59:63]))
	lenOff := 63 + 24*heard
	if lenOff < 0 || lenOff+4 > len(data) {
		return 0, 0, false
	}
	innerLen := int(binary.BigEndian.Uint32(data[lenOff : lenOff+4]))
	from, to = lenOff+4, lenOff+4+innerLen
	if innerLen < 8 || to+8 > len(data) {
		return 0, 0, false
	}
	return from, to, true
}

// hostHeader reads the host-construction parameters a heartbeat
// snapshot embeds at fixed offsets (label 2..18, beatEvery 18..22,
// timeout 22..30, heard count 59..63, wrapped flags two bytes into the
// length-prefixed inner snapshot), so the fuzz receiver matches
// whatever the mutation claims and the payload reaches the deep checks.
func hostHeader(data []byte) (beatEvery int, timeout int64, cfg Config, ok bool) {
	if len(data) < 63 {
		return 0, 0, Config{}, false
	}
	be := binary.BigEndian.Uint32(data[18:22])
	to := binary.BigEndian.Uint64(data[22:30])
	heard := binary.BigEndian.Uint32(data[59:63])
	if be < 1 || be > 1<<20 || to < 1 || to > 1<<40 || heard > 1<<16 {
		return 0, 0, Config{}, false
	}
	flagsOff := 63 + 24*int(heard) + 4 + 2
	if flagsOff >= len(data) {
		return 0, 0, Config{}, false
	}
	return int(be), int64(to), cfgFromFlags(data[flagsOff]), true
}

// vetRestoredQuiescent checks the behavioural contract on a state
// Restore accepted: re-encode verifies and round-trips, Adopt runs, and
// nothing the state claims as delivered is ever delivered again.
func vetRestoredQuiescent(t *testing.T, p, scratch *Quiescent) {
	t.Helper()
	snap := p.Snapshot()
	if _, err := VerifySnapshot(snap); err != nil {
		t.Fatalf("accepted state re-encodes to an invalid snapshot: %v", err)
	}
	if err := scratch.Restore(snap); err != nil {
		t.Fatalf("accepted state does not round-trip: %v", err)
	}
	driveNoRedelivery(t, p, p.deliveredIDs())
}

func vetRestoredHost(t *testing.T, h, scratch *HeartbeatHost) {
	t.Helper()
	snap := h.Snapshot()
	if _, err := VerifySnapshot(snap); err != nil {
		t.Fatalf("accepted host state re-encodes to an invalid snapshot: %v", err)
	}
	if err := scratch.Restore(snap); err != nil {
		t.Fatalf("accepted host state does not round-trip: %v", err)
	}
	driveNoRedelivery(t, h, h.inner.deliveredIDs())
}

// driveNoRedelivery converts p to joiner state and drives it: replaying
// MSG copies of claimed-delivered history and running retransmission
// rounds must never deliver an adopted id (uniform integrity from
// arbitrary state), and anything else delivered must arrive only once.
func driveNoRedelivery(t *testing.T, p Process, delivered map[wire.MsgID]bool) {
	t.Helper()
	adopted := make(map[wire.MsgID]bool, len(delivered))
	for id := range delivered {
		adopted[id] = true
	}
	p.(Joiner).Adopt()
	seen := make(map[wire.MsgID]bool)
	check := func(st Step) {
		for _, d := range st.Deliveries {
			if adopted[d.ID] {
				t.Fatalf("re-delivered adopted history %v", d.ID)
			}
			if seen[d.ID] {
				t.Fatalf("delivered %v twice while draining", d.ID)
			}
			seen[d.ID] = true
		}
	}
	probes := sortedKeys(delivered)
	if len(probes) > 32 {
		probes = probes[:32]
	}
	for _, id := range probes {
		check(p.Receive(wire.NewMsg(id)))
	}
	for i := 0; i < 3; i++ {
		check(p.Tick())
	}
}

// FuzzRestoreArbitraryState is the fuzz entry: seeds are canonical
// snapshots of every durable kind; the mutator's corruptions are
// re-stamped digest-valid where possible so the semantic gate — not the
// checksum — carries the load.
func FuzzRestoreArbitraryState(f *testing.F) {
	f.Add(buildQuiescent(61, false).Snapshot())
	f.Add(buildQuiescent(62, true).Snapshot())
	f.Add(buildQuiescentCfg(63, Config{DeltaAcks: true}).Snapshot())
	f.Add(buildHeartbeatHost(64).Snapshot())
	f.Fuzz(func(t *testing.T, data []byte) {
		arbitraryRestore(t, data)
	})
}

// TestRestoreByteFlipSweep is the deterministic core of the harness:
// every single-byte corruption of canonical snapshots, re-stamped
// digest-valid where it decodes, goes through the full gate. It runs on
// every plain `go test`, so the self-stabilization contract does not
// depend on fuzzing infrastructure being exercised.
func TestRestoreByteFlipSweep(t *testing.T) {
	for _, snap := range [][]byte{
		buildQuiescent(71, false).Snapshot(),
		buildQuiescentCfg(72, Config{DeltaAcks: true}).Snapshot(),
		buildHeartbeatHost(73).Snapshot(),
	} {
		for off := range snap {
			for _, bit := range []byte{0x01, 0x80} {
				data := append([]byte(nil), snap...)
				data[off] ^= bit
				arbitraryRestore(t, data)
			}
		}
	}
}

// flipRestamp is the deterministic corruption injector for store.Mem:
// it flips one byte of the stored snapshot and re-stamps the digest
// trailer so the corruption is checksum-clean — store.SnapshotMutator's
// intended role in the self-stabilization harness.
type flipRestamp struct{ off int }

func (f flipRestamp) MutateSnapshot(snap []byte) []byte {
	if len(snap) < 9 {
		return snap
	}
	snap[f.off%(len(snap)-8)] ^= 0x04
	// Two-pass restamp: decode to learn the mutated fingerprint, then
	// commit the trailer to it (a mutation the decoder rejects outright
	// is returned as-is corrupt — loud failure is a legal outcome).
	p := NewQuiescent(verifyDetector{}, ident.NewSource(xrand.New(1)), cfgFromFlags(snap[2]))
	if err := p.Restore(snap); errors.Is(err, ErrSnapshotCorrupt) {
		return restamp(snap, p.Fingerprint())
	}
	return snap
}

// TestMemMutatorFeedsRestore wires the injector through the store:
// state loaded from a Mem with a corruption mutator installed — the
// recovery path's source of truth — must either fail Restore loudly or
// restore to a vetted, non-re-delivering process.
func TestMemMutatorFeedsRestore(t *testing.T) {
	donor := buildQuiescentCfg(81, Config{DeltaAcks: true})
	st := store.NewMem()
	if err := st.SaveSnapshot(donor.Snapshot()); err != nil {
		t.Fatal(err)
	}
	cfg := Config{DeltaAcks: true}
	loud, accepted := 0, 0
	for off := 0; off < 256; off++ {
		st.SetSnapshotMutator(flipRestamp{off: off})
		snap, _, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		p := NewQuiescent(verifyDetector{}, ident.NewSource(xrand.New(2)), cfg)
		if rerr := p.Restore(snap); rerr != nil {
			loud++
			continue
		}
		accepted++
		vetRestoredQuiescent(t, p,
			NewQuiescent(verifyDetector{}, ident.NewSource(xrand.New(2)), cfg))
	}
	if loud == 0 {
		t.Fatal("no mutation was rejected: the injector is not reaching Restore")
	}
	if accepted == 0 {
		t.Fatal("every digest-valid mutation was rejected: the restamp path is dead")
	}
}
