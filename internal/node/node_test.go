package node_test

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/node"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// startMajorityCluster launches n majority-URB nodes on a lossy mesh and
// returns them with their delivery channels (subscribed before Start).
func startMajorityCluster(t *testing.T, ctx context.Context, n int, opts ...node.Option) ([]*node.Node, []<-chan node.Delivery, *transport.Mesh) {
	t.Helper()
	mesh := transport.NewMesh(transport.MeshConfig{
		N:    n,
		Link: channel.Bernoulli{P: 0.2, D: channel.UniformDelay{Min: 0, Max: 3}},
		Unit: 100 * time.Microsecond,
		Seed: 21,
	})
	tagRoot := xrand.SplitLabeled(33, "node-test-tags")
	nodes := make([]*node.Node, n)
	inboxes := make([]<-chan node.Delivery, n)
	for i := range nodes {
		proc := urb.NewMajority(n, ident.NewSource(tagRoot.Split()), urb.Config{})
		all := append([]node.Option{
			node.WithTickEvery(time.Millisecond),
			node.WithSeed(uint64(i)),
		}, opts...)
		nodes[i] = node.New(proc, mesh.Endpoint(i), all...)
		inboxes[i] = nodes[i].Deliveries()
	}
	for _, nd := range nodes {
		if err := nd.Start(ctx); err != nil {
			t.Fatalf("start: %v", err)
		}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
		mesh.Close()
	})
	return nodes, inboxes, mesh
}

func TestNodeURBDeliversEverywhere(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const n = 4
	nodes, inboxes, _ := startMajorityCluster(t, ctx, n)

	// Binary payload: the node path must carry arbitrary bytes.
	body := []byte{0x00, 0xff, 0x80, 'u', 'r', 'b'}
	id, err := nodes[1].Broadcast(body)
	if err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	for i, inbox := range inboxes {
		select {
		case d := <-inbox:
			if d.ID != id {
				t.Fatalf("node %d delivered %s, want %s", i, d.ID, id)
			}
			if !bytes.Equal(d.Body(), body) {
				t.Fatalf("node %d payload mangled: %x", i, d.Body())
			}
		case <-ctx.Done():
			t.Fatalf("node %d never delivered", i)
		}
	}
}

func TestNodeLifecycle(t *testing.T) {
	mesh := transport.NewMesh(transport.MeshConfig{
		N: 1, Link: channel.Reliable{D: channel.FixedDelay(0)}, Unit: time.Millisecond,
	})
	defer mesh.Close()
	nd := node.New(urb.NewMajority(1, ident.NewSource(xrand.New(1)), urb.Config{}),
		mesh.Endpoint(0), node.WithTickEvery(time.Millisecond))

	// Not started yet: operations refuse.
	if _, err := nd.Broadcast([]byte("x")); err != node.ErrNotRunning {
		t.Fatalf("broadcast before start: %v", err)
	}
	if _, err := nd.Stats(); err != node.ErrNotRunning {
		t.Fatalf("stats before start: %v", err)
	}

	ctx := context.Background()
	if err := nd.Start(ctx); err != nil {
		t.Fatalf("start: %v", err)
	}
	if err := nd.Start(ctx); err != node.ErrAlreadyStarted {
		t.Fatalf("second start: %v", err)
	}
	if _, err := nd.Broadcast([]byte("y")); err != nil {
		t.Fatalf("broadcast while running: %v", err)
	}
	if _, err := nd.Broadcast(make([]byte, wire.MaxBody+1)); err != node.ErrBodyTooLarge {
		t.Fatalf("oversized broadcast: %v", err)
	}
	if st, err := nd.Stats(); err != nil || st.MsgSet != 1 {
		t.Fatalf("stats while running: %+v %v", st, err)
	}

	if err := nd.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if err := nd.Stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
	if _, err := nd.Broadcast([]byte("z")); err != node.ErrNotRunning {
		t.Fatalf("broadcast after stop: %v", err)
	}
	if err := nd.Start(ctx); err == nil {
		t.Fatal("restart after stop must fail")
	}
}

func TestNodeStopBeforeStart(t *testing.T) {
	mesh := transport.NewMesh(transport.MeshConfig{
		N: 1, Link: channel.Reliable{D: channel.FixedDelay(0)},
	})
	defer mesh.Close()
	nd := node.New(urb.NewMajority(1, ident.NewSource(xrand.New(1)), urb.Config{}),
		mesh.Endpoint(0))
	ch := nd.Deliveries()
	if err := nd.Stop(); err != nil {
		t.Fatalf("stop before start: %v", err)
	}
	if _, ok := <-ch; ok {
		t.Fatal("deliveries channel must be closed")
	}
}

func TestNodeContextCancelStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	nodes, inboxes, _ := startMajorityCluster(t, ctx, 2)
	cancel()
	// The delivery channels close once the loops exit.
	for i, inbox := range inboxes {
		deadline := time.After(5 * time.Second)
		for {
			select {
			case _, ok := <-inbox:
				if !ok {
					goto next
				}
			case <-deadline:
				t.Fatalf("node %d delivery channel did not close on ctx cancel", i)
			}
		}
	next:
		_ = i
	}
	if _, err := nodes[0].Broadcast([]byte("late")); err != node.ErrNotRunning {
		t.Fatalf("broadcast after cancel: %v", err)
	}
}

// recorder is a test Observer counting events.
type recorder struct {
	mu          sync.Mutex
	sends       int
	receives    int
	delivers    int
	quiescences int
}

func (r *recorder) OnSend(wire.Message, []byte) { r.mu.Lock(); r.sends++; r.mu.Unlock() }
func (r *recorder) OnReceive(wire.Message)      { r.mu.Lock(); r.receives++; r.mu.Unlock() }
func (r *recorder) OnDeliver(node.Delivery)     { r.mu.Lock(); r.delivers++; r.mu.Unlock() }
func (r *recorder) OnQuiescence(time.Duration)  { r.mu.Lock(); r.quiescences++; r.mu.Unlock() }

func (r *recorder) snapshot() (int, int, int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sends, r.receives, r.delivers, r.quiescences
}

// TestNodeObserverAndQuiescence runs the quiescent algorithm (with an
// exact oracle) on nodes and checks that the observer sees sends,
// receives, delivers, and finally the quiescence transition.
func TestNodeObserverAndQuiescence(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 3
	correct := []bool{true, true, true}
	oracle := fd.NewOracle(fd.OracleConfig{N: n, Noise: fd.NoiseExact, Seed: 3}, correct)

	mesh := transport.NewMesh(transport.MeshConfig{
		N:    n,
		Link: channel.Bernoulli{P: 0.1, D: channel.UniformDelay{Min: 0, Max: 2}},
		Unit: 100 * time.Microsecond,
		Seed: 5,
	})
	defer mesh.Close()

	recs := make([]*recorder, n)
	metrics := node.NewMetrics()
	nodes := make([]*node.Node, n)
	tagRoot := xrand.SplitLabeled(44, "obs-tags")
	for i := range nodes {
		recs[i] = &recorder{}
		proc := urb.NewQuiescent(oracle.Handle(i, mesh.ElapsedUnits),
			ident.NewSource(tagRoot.Split()), urb.Config{})
		nodes[i] = node.New(proc, mesh.Endpoint(i),
			node.WithTickEvery(time.Millisecond),
			node.WithSeed(uint64(i)),
			node.WithObserver(multiObserver{recs[i], metrics}),
		)
		if err := nodes[i].Start(ctx); err != nil {
			t.Fatalf("start: %v", err)
		}
		defer nodes[i].Stop()
	}

	if _, err := nodes[0].Broadcast([]byte("quiet")); err != nil {
		t.Fatalf("broadcast: %v", err)
	}

	// Eventually: everyone delivered and every node fired quiescence.
	deadline := time.Now().Add(25 * time.Second)
	for {
		done := 0
		for _, r := range recs {
			_, _, delivers, quiescences := r.snapshot()
			if delivers >= 1 && quiescences >= 1 {
				done++
			}
		}
		if done == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("nodes never went quiescent: %d/%d", done, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, r := range recs {
		sends, receives, _, _ := r.snapshot()
		if sends == 0 || receives == 0 {
			t.Fatalf("node %d observer missed traffic: sends=%d receives=%d", i, sends, receives)
		}
	}
	snap := metrics.Snapshot()
	if snap.SentMsgs == 0 || snap.RecvMsgs == 0 || snap.Deliveries != uint64(n) ||
		snap.Quiescences == 0 || snap.SentBytes == 0 {
		t.Fatalf("metrics snapshot incomplete: %s", snap)
	}
	if snap.SentByKind[wire.KindMsg] == 0 || snap.SentByKind[wire.KindAck] == 0 {
		t.Fatalf("metrics missed a wire kind: %v", snap.SentByKind)
	}
}

// multiObserver fans events out to several observers.
type multiObserver []node.Observer

func (m multiObserver) OnSend(msg wire.Message, frame []byte) {
	for _, o := range m {
		o.OnSend(msg, frame)
	}
}
func (m multiObserver) OnReceive(msg wire.Message) {
	for _, o := range m {
		o.OnReceive(msg)
	}
}
func (m multiObserver) OnDeliver(d node.Delivery) {
	for _, o := range m {
		o.OnDeliver(d)
	}
}
func (m multiObserver) OnQuiescence(idle time.Duration) {
	for _, o := range m {
		o.OnQuiescence(idle)
	}
}

// TestNodeGarbledFramesDropped: a transport that corrupts frames cannot
// crash a node — undecodable frames count as channel loss.
func TestNodeGarbledFramesDropped(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	mesh := transport.NewMesh(transport.MeshConfig{
		N: 1, Link: channel.Reliable{D: channel.FixedDelay(0)}, Unit: 100 * time.Microsecond,
	})
	defer mesh.Close()
	garbler := &garblingTransport{Transport: mesh.Endpoint(0)}
	nd := node.New(urb.NewMajority(1, ident.NewSource(xrand.New(9)), urb.Config{}),
		garbler, node.WithTickEvery(time.Millisecond))
	if err := nd.Start(ctx); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer nd.Stop()

	if _, err := nd.Broadcast([]byte("garble-me")); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	deadline := time.Now().Add(8 * time.Second)
	for {
		_, _, bad := nd.FrameStats()
		if bad > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("garbled frames never reached the node")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// garblingTransport flips a byte in every outbound frame.
type garblingTransport struct {
	transport.Transport
}

func (g *garblingTransport) Send(frame []byte) {
	bad := append([]byte(nil), frame...)
	if len(bad) > 0 {
		bad[0] ^= 0xff
	}
	g.Transport.Send(bad)
}

// TestNodeURBDeliversEverywhereUnbatched: the full delivery path also
// holds with batching disabled (one frame per wire message).
func TestNodeURBDeliversEverywhereUnbatched(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const n = 4
	nodes, inboxes, _ := startMajorityCluster(t, ctx, n, node.WithBatching(false))

	body := []byte("unbatched")
	id, err := nodes[0].Broadcast(body)
	if err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	for i, inbox := range inboxes {
		select {
		case d := <-inbox:
			if d.ID != id || !bytes.Equal(d.Body(), body) {
				t.Fatalf("node %d delivered wrong message", i)
			}
		case <-ctx.Done():
			t.Fatalf("node %d never delivered", i)
		}
	}
	// Majority never quiesces: stop every node first, so no
	// retransmission is between its two counter updates when they are
	// read.
	for _, nd := range nodes {
		nd.Stop()
	}
	for i, nd := range nodes {
		sentFrames, _, _ := nd.FrameStats()
		sentMsgs, _ := nd.MessageStats()
		if sentFrames != sentMsgs {
			t.Fatalf("node %d unbatched: %d frames for %d messages, want equal", i, sentFrames, sentMsgs)
		}
	}
}

// TestNodeBatchingCoalescesFrames: with several messages in MSG_i, a
// batching node's Task-1 tick sends fewer frames than messages, every
// frame stays within the transport budget, and an unbatched twin sends
// exactly one frame per message. The receiving side splits batches back
// into individual messages.
func TestNodeBatchingCoalescesFrames(t *testing.T) {
	for _, batched := range []bool{true, false} {
		name := "batched"
		if !batched {
			name = "unbatched"
		}
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			mesh := transport.NewMesh(transport.MeshConfig{
				N: 1, Link: channel.Reliable{D: channel.FixedDelay(0)},
				Unit: 100 * time.Microsecond, Seed: 3,
			})
			nd := node.New(urb.NewMajority(1, ident.NewSource(xrand.New(4)), urb.Config{}),
				mesh.Endpoint(0),
				node.WithTickEvery(time.Millisecond),
				node.WithBatching(batched),
			)
			inbox := nd.Deliveries()
			if err := nd.Start(ctx); err != nil {
				t.Fatalf("start: %v", err)
			}
			defer func() { nd.Stop(); mesh.Close() }()

			const k = 8
			for i := 0; i < k; i++ {
				if _, err := nd.Broadcast([]byte{byte(i), 0xff, 0x00}); err != nil {
					t.Fatalf("broadcast %d: %v", i, err)
				}
			}
			for i := 0; i < k; i++ {
				select {
				case <-inbox:
				case <-ctx.Done():
					t.Fatalf("only %d/%d self-deliveries", i, k)
				}
			}
			// Let several full ticks of steady-state retransmission run.
			time.Sleep(30 * time.Millisecond)
			nd.Stop()

			sentFrames, recvFrames, _ := nd.FrameStats()
			sentMsgs, recvMsgs := nd.MessageStats()
			if sentMsgs == 0 || recvMsgs == 0 {
				t.Fatal("no traffic recorded")
			}
			if batched {
				// Steady-state ticks carry k MSGs plus ACK replies per
				// inbound batch; frames must be well below messages.
				if sentFrames*2 > sentMsgs {
					t.Fatalf("batching ineffective: %d frames for %d messages", sentFrames, sentMsgs)
				}
				if recvMsgs <= recvFrames {
					t.Fatalf("receive side never split a batch: %d msgs from %d frames", recvMsgs, recvFrames)
				}
				hits, _ := nd.EncodeCacheStats()
				if hits == 0 {
					t.Fatal("encode cache never hit across steady-state ticks")
				}
			} else if sentFrames != sentMsgs {
				t.Fatalf("unbatched node coalesced: %d frames for %d messages", sentFrames, sentMsgs)
			}
		})
	}
}

// TestNodeBatchRespectsFrameBudget: batch frames never exceed the
// transport's budget, verified against a mesh with a tiny budget via an
// inspecting transport wrapper.
func TestNodeBatchRespectsFrameBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const budget = 96
	mesh := transport.NewMesh(transport.MeshConfig{
		N: 1, Link: channel.Reliable{D: channel.FixedDelay(0)},
		Unit: 100 * time.Microsecond, FrameBudget: budget,
	})
	insp := &inspectingTransport{Transport: mesh.Endpoint(0)}
	nd := node.New(urb.NewMajority(1, ident.NewSource(xrand.New(11)), urb.Config{}),
		insp, node.WithTickEvery(time.Millisecond))
	if err := nd.Start(ctx); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer func() { nd.Stop(); mesh.Close() }()

	for i := 0; i < 10; i++ {
		if _, err := nd.Broadcast([]byte("budget-test-payload")); err != nil {
			t.Fatalf("broadcast: %v", err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	nd.Stop()

	frames, maxLen, batchedFrames := insp.snapshot()
	if frames == 0 {
		t.Fatal("no frames sent")
	}
	if maxLen > budget {
		t.Fatalf("a frame of %dB exceeded the %dB budget", maxLen, budget)
	}
	if batchedFrames == 0 {
		t.Fatal("no multi-message frames under a budget that fits several messages")
	}
}

// inspectingTransport records the size of every sent frame.
type inspectingTransport struct {
	transport.Transport
	mu      sync.Mutex
	frames  int
	maxLen  int
	batched int // frames carrying more than one message
}

func (it *inspectingTransport) Send(frame []byte) {
	it.mu.Lock()
	it.frames++
	if len(frame) > it.maxLen {
		it.maxLen = len(frame)
	}
	if ms, err := wire.DecodeBatch(frame); err == nil && len(ms) > 1 {
		it.batched++
	}
	it.mu.Unlock()
	it.Transport.Send(frame)
}

func (it *inspectingTransport) snapshot() (frames, maxLen, batched int) {
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.frames, it.maxLen, it.batched
}

// TestNodeStatsAfterStop: Stats keeps answering after Stop with the
// final algorithm snapshot (post-run accounting), and still refuses
// before Start.
func TestNodeStatsAfterStop(t *testing.T) {
	mesh := transport.NewMesh(transport.MeshConfig{
		N: 1, Link: channel.Reliable{D: channel.FixedDelay(0)}, Unit: time.Millisecond,
	})
	defer mesh.Close()
	nd := node.New(urb.NewMajority(1, ident.NewSource(xrand.New(2)), urb.Config{}),
		mesh.Endpoint(0), node.WithTickEvery(time.Millisecond))

	if _, err := nd.Stats(); err != node.ErrNotRunning {
		t.Fatalf("stats before start: %v, want ErrNotRunning", err)
	}
	if err := nd.Start(context.Background()); err != nil {
		t.Fatalf("start: %v", err)
	}
	if _, err := nd.Broadcast([]byte("final")); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if err := nd.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	st, err := nd.Stats()
	if err != nil {
		t.Fatalf("stats after stop: %v", err)
	}
	if st.MsgSet != 1 {
		t.Fatalf("final stats lost the broadcast: %+v", st)
	}
}

// TestNodeStatsAfterStopNeverStarted: a stopped-but-never-started node
// reports its (empty) initial stats rather than erroring forever.
func TestNodeStatsAfterStopNeverStarted(t *testing.T) {
	mesh := transport.NewMesh(transport.MeshConfig{
		N: 1, Link: channel.Reliable{D: channel.FixedDelay(0)},
	})
	defer mesh.Close()
	nd := node.New(urb.NewMajority(1, ident.NewSource(xrand.New(2)), urb.Config{}),
		mesh.Endpoint(0))
	if err := nd.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	st, err := nd.Stats()
	if err != nil {
		t.Fatalf("stats after stop-before-start: %v", err)
	}
	if st.MsgSet != 0 || st.Delivered != 0 {
		t.Fatalf("unexpected non-zero stats: %+v", st)
	}
}

// TestNodeQuietForBothTransports: Node.QuietFor is false until the
// node's first send, then eventually true once sends stop — over both
// the mesh and real UDP sockets (Mesh.QuietFor shares the semantics;
// see the transport package's TestMeshQuietForSemantics).
func TestNodeQuietForBothTransports(t *testing.T) {
	cases := []struct {
		name string
		make func(t *testing.T) (transport.Transport, func())
	}{
		{"mesh", func(t *testing.T) (transport.Transport, func()) {
			m := transport.NewMesh(transport.MeshConfig{
				N: 1, Link: channel.Reliable{D: channel.FixedDelay(0)}, Unit: time.Millisecond,
			})
			return m.Endpoint(0), func() { m.Close() }
		}},
		{"udp", func(t *testing.T) (transport.Transport, func()) {
			group, err := transport.UDPGroup(1, 0)
			if err != nil {
				t.Fatalf("udp group: %v", err)
			}
			return group[0], func() { group[0].Close() }
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			tr, cleanup := tc.make(t)
			defer cleanup()
			// An empty Majority process never sends on its own: ticks
			// retransmit an empty MSG set.
			nd := node.New(urb.NewMajority(1, ident.NewSource(xrand.New(5)), urb.Config{}),
				tr, node.WithTickEvery(time.Millisecond))
			if err := nd.Start(ctx); err != nil {
				t.Fatalf("start: %v", err)
			}
			defer nd.Stop()

			time.Sleep(10 * time.Millisecond) // several empty ticks
			if nd.QuietFor(time.Millisecond) {
				t.Fatal("QuietFor true before the first send")
			}
			if _, err := nd.Broadcast([]byte("wake")); err != nil {
				t.Fatalf("broadcast: %v", err)
			}
			// Majority retransmits forever, so silence only follows Stop;
			// lastSend keeps answering on a stopped node.
			time.Sleep(5 * time.Millisecond)
			nd.Stop()
			if nd.QuietFor(time.Hour) {
				t.Fatal("QuietFor(1h) true right after sends")
			}
			deadline := time.Now().Add(10 * time.Second)
			for !nd.QuietFor(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("QuietFor never became true after the node stopped sending")
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
