package main

import (
	"testing"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/ident"
	"anonurb/internal/node"
	"anonurb/internal/obs"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
	"anonurb/internal/xrand"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(deadline time.Duration, cond func() bool) bool {
	for end := time.Now().Add(deadline); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// TestDecoratedDurableNodePersists builds the traced durable cluster the
// benchmark runs (decorated process, transport and store over a real
// store.OpenFile) and checks that node.New accepts it, that the nodes
// deliver, append to their WAL and checkpoint through the decorators,
// and that Explain still reaches the process.
func TestDecoratedDurableNodePersists(t *testing.T) {
	w := workload{name: "test", n: 3, net: netMesh, durable: true}
	c, err := buildCluster(w, 1, t.TempDir(), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	id, err := c.nodes[0].Broadcast([]byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	checkpointed := waitFor(10*time.Second, func() bool {
		for _, nd := range c.nodes {
			if st := nd.StoreStats(); st.Checkpoints == 0 || st.WALAppends == 0 {
				return false
			}
		}
		return true
	})
	if !checkpointed {
		for i, nd := range c.nodes {
			t.Logf("node %d: %+v", i, nd.StoreStats())
		}
		t.Fatal("decorated durable nodes did not both append to the WAL and checkpoint")
	}
	for i, nd := range c.nodes {
		if err := nd.StoreStats().Err; err != nil {
			t.Errorf("node %d store error: %v", i, err)
		}
		if c.timedS[i].append.calls.Load() == 0 || c.timedS[i].save.calls.Load() == 0 {
			t.Errorf("node %d: store decorator saw %d appends, %d saves", i,
				c.timedS[i].append.calls.Load(), c.timedS[i].save.calls.Load())
		}
		if c.procs[i].snapshot.calls.Load() == 0 || c.procs[i].snapshotBytes.Load() == 0 {
			t.Errorf("node %d: process decorator saw no Snapshot", i)
		}
		if c.procs[i].receive.calls.Load() == 0 || c.procs[i].tick.calls.Load() == 0 {
			t.Errorf("node %d: process decorator saw no Receive or Tick", i)
		}
		if c.trs[i].send.calls.Load() == 0 {
			t.Errorf("node %d: transport decorator saw no Send", i)
		}
	}
	if _, err := c.nodes[0].Explain(id); err != nil {
		t.Errorf("Explain through the decorator: %v", err)
	}
}

// TestDecoratedProcessTakesTracer checks that node.WithTracer reaches
// the process behind the decorator (obs.Traceable is forwarded).
func TestDecoratedProcessTakesTracer(t *testing.T) {
	mesh := transport.NewMesh(transport.MeshConfig{N: 1, Link: channel.Reliable{D: channel.FixedDelay(0)}})
	defer mesh.Close()
	start := time.Now()
	clock := func() int64 { return int64(time.Since(start)) }
	host := urb.NewHeartbeatHost(ident.NewSource(xrand.New(1)), heartbeatTimeoutMs, 1,
		func() int64 { return clock() / int64(time.Millisecond) }, urb.Config{})
	tracer := obs.New(0, 1024, clock)
	nd := node.New(&timedProcess{hostedProcess: host}, mesh.Endpoint(0),
		node.WithTickEvery(time.Millisecond), node.WithTracer(tracer))
	inbox := nd.Deliveries()
	if err := nd.Start(t.Context()); err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()
	if _, err := nd.Broadcast([]byte("traced")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-inbox:
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery")
	}
	if tracer.Total() == 0 {
		t.Error("tracer installed through the decorator recorded nothing")
	}
}

// TestDecoratedUDPReportsOverflows floods a decorated UDP endpoint whose
// inbox holds one frame, and checks that transport.Overflows and
// Node.InboxOverflows still unwrap to the socket's counter, through the
// Chaos wrapper too.
func TestDecoratedUDPReportsOverflows(t *testing.T) {
	u, err := transport.ListenUDP("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	u.SetPeers(u.LocalAddr())
	tt := &timedTransport{Transport: u}
	defer tt.Close()
	if _, ok := transport.Overflows(tt); !ok {
		t.Fatal("transport.Overflows cannot see through the decorator")
	}
	overflowed := waitFor(5*time.Second, func() bool {
		for k := 0; k < 64; k++ {
			tt.Send([]byte{1, 2, 3})
		}
		n, _ := transport.Overflows(tt)
		return n > 0
	})
	if !overflowed {
		t.Fatal("no overflow reported through the decorator")
	}

	chaos := transport.NewChaos(u, transport.ChaosConfig{Model: channel.Reliable{D: channel.FixedDelay(0)}})
	host := urb.NewHeartbeatHost(ident.NewSource(xrand.New(1)), heartbeatTimeoutMs, 1, func() int64 { return 0 }, urb.Config{})
	nd := node.New(&timedProcess{hostedProcess: host}, &timedTransport{Transport: chaos})
	defer nd.Stop()
	n, ok := nd.InboxOverflows()
	if !ok || n == 0 {
		t.Errorf("Node.InboxOverflows through decorator and Chaos = %d, %t; want > 0, true", n, ok)
	}
}
