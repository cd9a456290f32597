package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"sonet/internal/itmsg"
	"sonet/internal/node"
	"sonet/internal/routing"
	"sonet/internal/sim"
	"sonet/internal/topology"
	"sonet/internal/wire"
	"sonet/perfbench/bench"
)

// timedIters is how many calls one timed layer measurement makes.
const timedIters = 20000

// nullUnderlay swallows transmissions and counts them, isolating a
// node's own per-hop cost.
type nullUnderlay struct{ sent atomic.Int64 }

func (u *nullUnderlay) Send(wire.NodeID, uint8, []byte)        { u.sent.Add(1) }
func (u *nullUnderlay) SendOn(int, wire.NodeID, uint8, []byte) { u.sent.Add(1) }
func (u *nullUnderlay) PathCount(wire.NodeID) int              { return 1 }

// transitFrame is a marshaled best-effort data frame from node 1 to node
// 3 with a payload of the given size.
func transitFrame(payload int) (*wire.Frame, []byte, error) {
	f := &wire.Frame{
		Proto: wire.LPBestEffort, Kind: wire.FData, Seq: 1,
		Packet: &wire.Packet{
			Type: wire.PTData, Route: wire.RouteLinkState, LinkProto: wire.LPBestEffort, TTL: 32,
			Src: 1, Dst: 3, FlowSeq: 1, Payload: make([]byte, payload),
		},
	}
	buf, err := f.Marshal()
	return f, buf, err
}

func chainGraph() (*topology.Graph, error) {
	g := topology.NewGraph()
	for _, l := range [][2]wire.NodeID{{1, 2}, {2, 3}} {
		if _, err := g.AddLink(l[0], l[1], 10*time.Millisecond); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// perCall runs fn iters times and returns ns per call.
func perCall(iters int, fn func()) float64 {
	t := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return float64(time.Since(t).Nanoseconds()) / float64(iters)
}

// wireNs times a pooled frame encode and a zero-copy decode.
func wireNs(payload int) (enc, dec float64, err error) {
	f, raw, err := transitFrame(payload)
	if err != nil {
		return 0, 0, err
	}
	enc = perCall(timedIters, func() {
		b := wire.DefaultBufPool.Get(f.MarshaledSize())
		out, merr := f.AppendMarshal(b.B)
		if merr != nil {
			err = merr
		}
		b.B = out
		b.Release()
	})
	var rxf wire.Frame
	var rxp wire.Packet
	dec = perCall(timedIters, func() {
		if _, uerr := wire.UnmarshalFrameInto(&rxf, &rxp, raw); uerr != nil {
			err = uerr
		}
	})
	return enc, dec, err
}

// hopSimNs times Node.HandleUnderlay transit at the middle of a 1-2-3
// chain: the emulator's forwarding path.
func hopSimNs(payload int) (float64, error) {
	g, err := chainGraph()
	if err != nil {
		return 0, err
	}
	under := &nullUnderlay{}
	n, err := node.New(node.Config{ID: 2, Clock: sim.NewScheduler(1), Underlay: under, Graph: g})
	if err != nil {
		return 0, err
	}
	_, buf, err := transitFrame(payload)
	if err != nil {
		return 0, err
	}
	ns := perCall(timedIters, func() { n.HandleUnderlay(1, buf) })
	if got := under.sent.Load(); got != timedIters {
		return 0, fmt.Errorf("node path forwarded %d of %d", got, timedIters)
	}
	return ns, nil
}

// hopShardNs times DataPlane.HandleUnderlay transit on the data shard
// that homes node 1, at the middle of a 1-2-3 chain: the daemon's
// forwarding path. The calls run on that shard's own event loop.
func hopShardNs(payload int) (float64, error) {
	g, err := chainGraph()
	if err != nil {
		return 0, err
	}
	shards := 2
	for wire.HomeShard(1, shards) == 0 {
		shards++
	}
	loops := sim.NewShardedLoop(shards)
	defer loops.Close()
	under := &nullUnderlay{}
	epoch := time.Now()
	n, err := node.New(node.Config{ID: 2, Clock: sim.NewRealtimeClockAt(loops.Shard(0), epoch), Underlay: under, Graph: g})
	if err != nil {
		return 0, err
	}
	clocks := make([]sim.Clock, shards)
	for i := 1; i < shards; i++ {
		clocks[i] = sim.NewRealtimeClockAt(loops.Shard(i), epoch)
	}
	pl := node.NewDataPlane(n, loops, under, clocks)
	started := make(chan struct{})
	loops.PostTo(0, func() {
		n.AttachDataPlane(pl)
		n.Start()
		close(started)
	})
	<-started
	defer func() {
		stopped := make(chan struct{})
		loops.PostTo(0, func() { n.Stop(); close(stopped) })
		<-stopped
		pl.Close()
	}()
	_, buf, err := transitFrame(payload)
	if err != nil {
		return 0, err
	}
	home := pl.HomeOf(1)
	base := under.sent.Load()
	res := make(chan float64)
	loops.PostTo(home, func() { res <- perCall(timedIters, func() { pl.HandleUnderlay(home, 1, buf) }) })
	ns := <-res
	if got := under.sent.Load() - base; got < timedIters {
		return 0, fmt.Errorf("data shard forwarded %d of %d", got, timedIters)
	}
	return ns, nil
}

// decideNs times routing.Engine.Decide for unicast packets from node 1
// to every other node of the sim-mixed graph.
func decideNs() (float64, error) {
	g := topology.NewGraph()
	for _, l := range bench.SimLinks() {
		if _, err := g.AddLink(l.A, l.B, l.Latency); err != nil {
			return 0, err
		}
	}
	n, err := node.New(node.Config{ID: 1, Clock: sim.NewScheduler(1), Underlay: &nullUnderlay{}, Graph: g})
	if err != nil {
		return 0, err
	}
	e := n.Engine()
	nodes := g.Nodes()
	p := &wire.Packet{Type: wire.PTData, Route: wire.RouteLinkState, Src: 1, TTL: 32}
	i := 0
	return perCall(timedIters, func() {
		p.Dst = nodes[i%len(nodes)]
		i++
		e.Decide(p, routing.NoLink, true)
	}), nil
}

// sptNs times a full SPT recompute from node 1 and a single-link repair
// (a chord flipping down and back up) on the sim-mixed graph.
func sptNs() (full, repair float64, err error) {
	g := topology.NewGraph()
	for _, l := range bench.SimLinks() {
		if _, err := g.AddLink(l.A, l.B, l.Latency); err != nil {
			return 0, 0, err
		}
	}
	v := topology.NewView(g)
	var spt topology.SPT
	full = perCall(timedIters, func() { topology.SPTInto(&spt, v, 1, topology.LatencyMetric) })
	lid := wire.LinkID(g.NumLinks() - 1)
	i := 0
	repair = perCall(timedIters, func() {
		v.SetUp(lid, i%2 == 1)
		i++
		if !topology.SPTRepair(&spt, v, lid, topology.LatencyMetric) {
			err = fmt.Errorf("SPT repair refused")
		}
	})
	return full, repair, err
}

// decisionNs times one DRR decision (dequeue the next fair packet,
// re-enqueue it) with flows backlogged flows.
func decisionNs(flows int) (float64, error) {
	c := itmsg.NewCore(itmsg.CoreConfig{FlowBuffer: 4})
	defer c.Close()
	var p wire.Packet
	p.Type, p.Route = wire.PTData, wire.RouteLinkState
	for i := 0; i < flows; i++ {
		p.Src, p.Dst = wire.NodeID(i+1), 1
		k := itmsg.FlowKey{Src: p.Src, Dst: p.Dst}
		c.Enqueue(k, &p)
		c.Enqueue(k, &p)
	}
	var err error
	ns := perCall(timedIters, func() {
		q, _, ok := c.Dequeue(0)
		if !ok {
			err = fmt.Errorf("scheduler idle with backlog")
			return
		}
		c.Enqueue(itmsg.FlowKey{Src: q.Src, Dst: q.Dst}, q)
	})
	return ns, err
}
