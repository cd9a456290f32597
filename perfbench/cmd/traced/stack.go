package main

import (
	"time"

	"sonet"
	"sonet/internal/core"
	"sonet/internal/itmsg"
	"sonet/internal/membership"
	"sonet/internal/metrics"
	"sonet/internal/netemu"
	"sonet/internal/node"
	"sonet/internal/session"
	"sonet/internal/transport"
	"sonet/internal/wire"
	"sonet/perfbench/bench"
)

// internalStack builds the relay fleet from internal/transport, the
// layer under sonet.StartDaemon, so per-layer counters are reachable. It
// keeps the daemons of the last fleet it started.
type internalStack struct {
	daemons    []*transport.Daemon
	fleetStart time.Time // when the last fleet's first daemon started
}

func (s *internalStack) StartDaemon(cfg sonet.DaemonConfig) (bench.Daemon, error) {
	if cfg.ID == 1 {
		s.fleetStart = time.Now()
		s.daemons = nil // a new fleet; the last one is closed
	}
	links := make([]transport.LinkDef, 0, len(cfg.Links))
	for _, l := range cfg.Links {
		links = append(links, transport.LinkDef{A: l.A, B: l.B, LatencyMs: int(l.Latency / time.Millisecond)})
	}
	d, err := transport.NewDaemon(transport.DaemonConfig{
		ID: cfg.ID, BindUDP: cfg.BindUDP, BindTCP: cfg.BindTCP, Links: links,
		HelloIntervalMs: int(cfg.HelloInterval / time.Millisecond),
	})
	if err != nil {
		return nil, err
	}
	s.daemons = append(s.daemons, d)
	return tracedDaemon{d}, nil
}

func (s *internalStack) DialDaemon(addr string, port sonet.Port, deliver func(sonet.Delivery)) (bench.Client, error) {
	var sink func(session.Delivery)
	if deliver != nil {
		sink = func(d session.Delivery) {
			deliver(sonet.Delivery{From: d.From, FromPort: d.SrcPort, Seq: d.Seq, Group: d.Group,
				Latency: d.Latency, Recovered: d.Retransmitted, Payload: d.Payload})
		}
	}
	c, err := transport.Dial(addr, port, sink)
	if err != nil {
		return nil, err
	}
	return tracedClient{c}, nil
}

// fleet returns the daemons of the last fleet the stack built.
func (s *internalStack) fleet(n int) []*transport.Daemon {
	if len(s.daemons) < n {
		return s.daemons
	}
	return s.daemons[len(s.daemons)-n:]
}

type tracedDaemon struct{ *transport.Daemon }

func (d tracedDaemon) Stats() sonet.NodeStats {
	st := d.NodeStats()
	return sonet.NodeStats{Originated: st.Originated, Forwarded: st.Forwarded,
		DeliveredLocal: st.DeliveredLocal, Duplicates: st.Duplicates, Blackholed: st.Blackholed}
}

func (d tracedDaemon) SchedStats() sonet.SchedStats {
	return schedStats(d.Daemon.SchedStats())
}

func schedStats(s metrics.SchedSnapshot) sonet.SchedStats {
	return sonet.SchedStats{Enqueued: s.Enqueued, Transmitted: s.Transmitted, DropEvicted: s.DropEvicted,
		DropRefusedLow: s.DropRefusedLow, DropFIFOOverflow: s.DropFIFOOverflow, DropClosed: s.DropClosed,
		Backpressure: s.Backpressure, FlowsRetired: s.FlowsRetired, Queued: s.Queued,
		ActiveFlows: s.ActiveFlows, FlowsPeak: s.FlowsPeak}
}

type tracedClient struct{ *transport.Client }

func (c tracedClient) OpenFlow(spec sonet.FlowSpec) (bench.Flow, error) {
	f, err := c.Client.OpenFlow(sessionSpec(spec))
	if err != nil {
		return nil, err
	}
	return f, nil
}

func sessionSpec(spec sonet.FlowSpec) session.FlowSpec {
	return session.FlowSpec{DstNode: spec.To, DstPort: spec.ToPort, Group: spec.Group, Anycast: spec.Anycast,
		LinkProto: spec.Service, DisjointK: spec.DisjointPaths, Dissem: spec.DissemGraph, Flood: spec.Flood,
		Ordered: spec.Ordered, Deadline: spec.Deadline, Priority: spec.Priority}
}

// coreWorld builds the emulated world through internal/core with the
// same seed, links and node configuration sonet.New uses, so per-node
// counters are reachable. Its delivery counts must equal the public
// world's.
type coreWorld struct {
	*core.Simple
	built   time.Time
	clients []*session.Client
}

func buildCoreWorld(last **coreWorld) bench.WorldMaker {
	return func(spec bench.WorldSpec) (bench.World, error) {
		sls := make([]core.SimpleLink, 0, len(spec.Links))
		for _, l := range spec.Links {
			sl := core.SimpleLink{A: l.A, B: l.B, Latency: l.Latency, Jitter: l.Jitter}
			switch {
			case l.BurstLoss != nil:
				b := l.BurstLoss
				sl.Loss = netemu.NewGilbertElliott(b.PGoodBad, b.PBadGood, b.LossGood, b.LossBad)
			case l.LossRate > 0:
				sl.Loss = netemu.Bernoulli{P: l.LossRate}
			}
			sls = append(sls, sl)
		}
		s, err := core.BuildSimple(spec.Seed, sls)
		if err != nil {
			return nil, err
		}
		all := s.Graph.Nodes()
		s.SetNodeTemplate(func(cfg *node.Config) {
			cfg.ITSched = itmsg.SchedConfig{Rate: bench.SimITRate, BufferPerSource: bench.SimITBuffer}
			mc := membership.DefaultConfig()
			mc.Seed = all
			cfg.Membership = &mc
		})
		if err := s.Start(); err != nil {
			return nil, err
		}
		t := time.Now()
		s.Settle()
		w := &coreWorld{Simple: s, built: t}
		*last = w
		return w, nil
	}
}

func (w *coreWorld) Connect(at sonet.NodeID, port sonet.Port) (bench.SimClient, error) {
	c, err := w.Session(at).Connect(port)
	if err != nil {
		return nil, err
	}
	w.clients = append(w.clients, c)
	return coreClient{c}, nil
}

func (w *coreWorld) RunAt(d time.Duration, fn func()) { w.Sched.After(d, fn) }
func (w *coreWorld) Run(d time.Duration)              { w.RunFor(d) }
func (w *coreWorld) LeaveNode(id sonet.NodeID) error  { return w.Leave(id) }
func (w *coreWorld) Close()                           { w.Stop() }

func (w *coreWorld) RejoinNode(id, contact sonet.NodeID) error {
	if err := w.RestartNode(id); err != nil {
		return err
	}
	if m := w.Node(id).Membership(); m != nil && contact != 0 {
		m.Join(contact)
	}
	return nil
}

func (w *coreWorld) PathBetween(a, b sonet.NodeID) []wire.NodeID {
	if nd := w.Node(a); nd != nil {
		return nd.Engine().PathTo(b)
	}
	return nil
}

type coreClient struct{ *session.Client }

func (c coreClient) OnDeliver(fn func(sonet.Delivery)) {
	c.Client.OnDeliver(func(d session.Delivery) {
		fn(sonet.Delivery{From: d.From, FromPort: d.SrcPort, Seq: d.Seq, Group: d.Group,
			Latency: d.Latency, Recovered: d.Retransmitted, Payload: d.Payload})
	})
}

func (c coreClient) OpenFlow(spec sonet.FlowSpec) (bench.Flow, error) {
	f, err := c.Client.OpenFlow(sessionSpec(spec))
	if err != nil {
		return nil, err
	}
	return f, nil
}
