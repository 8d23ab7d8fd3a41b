package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/ident"
	"anonurb/internal/node"
	"anonurb/internal/store"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
	"anonurb/internal/xrand"
)

// cluster is one live cluster: real node.Node goroutines over a real
// transport, optionally with the traced run's decorators.
type cluster struct {
	nodes  []*node.Node
	mesh   *transport.Mesh
	chaos  []*transport.Chaos
	udps   []*transport.UDP
	stores []store.Store
	// storeDir holds the durable stores; stop removes it.
	storeDir string
	cancel   context.CancelFunc

	// The traced run's decorators, one per node (nil when untraced; no
	// timedStore without stores).
	procs  []*timedProcess
	trs    []*timedTransport
	timedS []*timedStore
}

// buildCluster builds and starts a cluster for w: transports, stores,
// processes and nodes. Its duration is the benchmark's setup time.
// deliveries, when non-nil, receives each node's delivery channel,
// subscribed before Start so no delivery is missed.
func buildCluster(w workload, seed uint64, storeRoot string, traced bool, deliveries func(i int, ch <-chan node.Delivery)) (c *cluster, err error) {
	c = &cluster{}
	defer func() {
		if err != nil {
			c.stop()
			c = nil
		}
	}()
	link := channel.Bernoulli{P: linkLoss, D: channel.UniformDelay{Min: 0, Max: linkDelayMaxMs}}
	trs := make([]transport.Transport, w.n)
	switch w.net {
	case netMesh:
		c.mesh = transport.NewMesh(transport.MeshConfig{
			N: w.n, Link: link, Unit: time.Millisecond, Seed: xrand.HashStream(seed, 1),
		})
		for i := range trs {
			trs[i] = c.mesh.Endpoint(i)
		}
	case netUDP:
		if c.udps, err = transport.UDPGroup(w.n, 0); err != nil {
			return nil, err
		}
		for i, u := range c.udps {
			ch := transport.NewChaos(u, transport.ChaosConfig{
				Model: link, Unit: time.Millisecond, Seed: xrand.HashStream(seed, 2, uint64(i)),
			})
			c.chaos = append(c.chaos, ch)
			trs[i] = ch
		}
	}
	if w.durable {
		if err = os.MkdirAll(storeRoot, 0o755); err != nil {
			return nil, fmt.Errorf("store root: %w", err)
		}
		if c.storeDir, err = os.MkdirTemp(storeRoot, w.name+"-"); err != nil {
			return nil, fmt.Errorf("store dir: %w", err)
		}
		for i := 0; i < w.n; i++ {
			st, err := store.OpenFile(filepath.Join(c.storeDir, fmt.Sprintf("node-%d", i)))
			if err != nil {
				return nil, err
			}
			c.stores = append(c.stores, st)
		}
	}

	start := time.Now()
	clock := func() int64 { return int64(time.Since(start) / time.Millisecond) }
	tags := xrand.SplitLabeled(seed, "loadbench-tags")
	c.nodes = make([]*node.Node, w.n)
	for i := range c.nodes {
		var proc urb.Process = urb.NewHeartbeatHost(ident.NewSource(tags.Split()), heartbeatTimeoutMs, 1, clock,
			urb.Config{DeltaAcks: true, CompactDelivered: true, DeltaBeats: true})
		tr := trs[i]
		opts := []node.Option{
			node.WithTickEvery(tickEvery),
			node.WithSeed(xrand.HashStream(seed, 3, uint64(i))),
		}
		var st store.Store
		if w.durable {
			st = c.stores[i]
		}
		if traced {
			tp := &timedProcess{hostedProcess: proc.(hostedProcess)}
			tt := &timedTransport{Transport: tr}
			c.procs = append(c.procs, tp)
			c.trs = append(c.trs, tt)
			proc, tr = tp, tt
			if st != nil {
				ts := &timedStore{Store: st}
				c.timedS = append(c.timedS, ts)
				st = ts
			}
		}
		if st != nil {
			opts = append(opts, node.WithStore(st))
		}
		c.nodes[i] = node.New(proc, tr, opts...)
		if deliveries != nil {
			deliveries(i, c.nodes[i].Deliveries())
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	for _, nd := range c.nodes {
		if err = nd.Start(ctx); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// stop stops every node (which closes its transport and its delivery
// channel), then closes the mesh and the stores and removes the store
// directory. It is safe on a partly built cluster.
func (c *cluster) stop() {
	for _, nd := range c.nodes {
		if nd != nil {
			nd.Stop()
		}
	}
	if c.cancel != nil {
		c.cancel()
	}
	if c.mesh != nil {
		c.mesh.Close()
	}
	// Nodes close only the transports they were handed; close the UDP
	// sockets of a partly built cluster too (Close is idempotent).
	for _, u := range c.udps {
		u.Close()
	}
	for _, st := range c.stores {
		st.Close()
	}
	if c.storeDir != "" {
		os.RemoveAll(c.storeDir)
	}
}

// ports lists the cluster's bound UDP ports (none on the mesh).
func (c *cluster) ports() map[int]bool {
	ps := make(map[int]bool, len(c.udps))
	for _, u := range c.udps {
		ps[u.LocalAddr().Port] = true
	}
	return ps
}

// linkStats sums the modelled link judgements and drops: the mesh's, or
// every Chaos wrapper's.
func (c *cluster) linkStats() (sends, drops uint64) {
	if c.mesh != nil {
		return c.mesh.Stats()
	}
	for _, ch := range c.chaos {
		s, d := ch.Stats()
		sends += s
		drops += d
	}
	return sends, drops
}
