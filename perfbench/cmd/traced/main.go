// Command traced is the benchmark's traced runner. It runs one workload
// twice — untraced through the public API, then traced through the
// internal layer beneath it — and reports per-layer metrics: spans
// around the benchmark's own calls into each layer, counters read from
// each layer's accessors, and timed calls into each layer on the
// workload's own inputs. Spans are written to .bench_build/perfbench/.
//
//	go run ./cmd/traced --workload relay-bulk --seed 1 --seconds 10 --trace 1
package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"sonet/internal/metrics"
	"sonet/internal/node"
	"sonet/internal/topology"
	"sonet/internal/transport"
	"sonet/internal/wire"
	"sonet/perfbench/bench"
)

// perLayer names the per-layer metrics every traced run reports, with
// their units; a layer a workload does not exercise reports 0.
var perLayer = [][2]string{
	{"transport.client_send_us_p50", "us"}, {"transport.client_send_us_p99", "us"},
	{"transport.rx_batch_avg", "dgrams/batch"}, {"transport.tx_batch_avg", "dgrams/batch"},
	{"transport.datagrams_per_msg", "dgrams/msg"}, {"transport.handoffs_per_msg", "handoffs/msg"},
	{"transport.drops", "count"},
	{"wire.bufpool_miss_ratio", "ratio"}, {"wire.slab_miss_ratio", "ratio"},
	{"wire.encode_ns", "ns"}, {"wire.decode_ns", "ns"},
	{"node.forwarded_per_msg", "fwd/msg"}, {"node.dropped", "count"}, {"node.duplicates_per_msg", "dups/msg"},
	{"node.hop_ns_shard", "ns"}, {"node.hop_ns_sim", "ns"},
	{"routing.decide_ns", "ns"},
	{"link.acks_per_msg", "acks/msg"}, {"link.retransmissions_per_msg", "rtx/msg"},
	{"link.requests_per_msg", "reqs/msg"}, {"link.send_dropped", "count"},
	{"itmsg.decision_ns", "ns"},
	{"linkstate.hellos_per_vs", "hellos/s"}, {"linkstate.lsa_floods", "count"}, {"linkstate.delta_share", "ratio"},
	{"linkstate.reconvergences", "count"}, {"linkstate.miss_ratio", "ratio"},
	{"topology.spf_runs", "count"}, {"topology.incremental_ratio", "ratio"}, {"topology.repair_size_mean", "nodes"},
	{"topology.spt_full_ns", "ns"}, {"topology.spt_repair_ns", "ns"},
	{"proc.allocs_per_msg", "allocs/msg"}, {"proc.gc_cpu_fraction", "fraction"},
	{"bench.gen_lag_ms_p50", "ms"}, {"bench.gen_lag_ms_p99", "ms"}, {"bench.trace_overhead", "ratio"},
	{"bench.lat_p99_ms", "ms"}, {"bench.lat_p999_ms", "ms"},
	{"loss_ratio", "fraction"}, {"capacity_mps", "msgs/s"},
}

// simLayer names the metrics of layers that only the emulated workload
// exercises; sim-mixed runs report them after perLayer.
var simLayer = [][2]string{
	{"routing.tree_cache_hit_ratio", "ratio"},
	{"session.send_us_p50", "us"}, {"session.late", "count"}, {"session.duplicates", "count"},
	{"itmsg.backpressure", "count"}, {"itmsg.drop_evicted", "count"}, {"itmsg.flows_peak", "flows"},
	{"netemu.route_cache_hit_ratio", "ratio"}, {"netemu.dropped_loss", "count"}, {"netemu.dropped_down", "count"},
	{"sim.events_per_vs", "events/vs"}, {"sim.ns_per_event", "ns"},
	{"membership.sweeps", "count"}, {"membership.corrections", "count"}, {"membership.sync_rounds", "count"},
	{"sim_speed", "vs/s"}, {"vlat_p99_ms", "ms"}, {"reroute_ms", "ms"},
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	o, err := bench.ParseOptions(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traced:", err)
		return 2
	}
	metrics := perLayer
	if o.Workload == bench.SimMixed {
		metrics = append(metrics[:len(metrics):len(metrics)], simLayer...)
	}
	names := make([]string, len(metrics))
	for i, m := range metrics {
		names[i] = m[0]
	}
	rep := bench.NewReport()
	var phase atomic.Value
	phase.Store("start")
	stop := bench.Guard(rep, &phase, names)
	rep.Infof("%s workload=%s seed=%d seconds=%g traced", bench.Environment(), o.Workload, o.Seed, o.Seconds)

	// The untraced reference: the gated run's code path, timed for
	// the tracing overhead and counted for allocations.
	ref := bench.NewReport()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	refRun, refErr := bench.RunWorkload(ref, o, bench.PublicStack{}, bench.PublicWorld, bench.NoTrace{}, &phase, bench.Hooks{})
	runtime.ReadMemStats(&ms1)
	if refErr != nil {
		rep.Fail("untraced-run-error", 1)
		rep.Infof("untraced error: %v", refErr)
	}
	rep.Fail("untraced-failures", ref.Failed())

	rec := newRecorder()
	st := &internalStack{}
	var world *coreWorld
	c := &counters{rep: rep}
	spf0 := topology.SPFStatsSnapshot()
	pool0, slab0 := wire.PoolSnapshot(), wire.SlabSnapshot()
	hooks := bench.Hooks{
		Relay: func(r *bench.RelayRun) { c.relayLive(st.fleet(4), st.fleetStart, r) },
		Sim:   func(bench.World) { c.sim(world) },
	}
	trRun, trErr := bench.RunWorkload(rep, o, st, buildCoreWorld(&world), rec, &phase, hooks)
	if trErr != nil {
		rep.Fail("run-error", 1)
		rep.Infof("error: %v", trErr)
	}
	spf1 := topology.SPFStatsSnapshot()
	c.pools(pool0, wire.PoolSnapshot(), slab0, wire.SlabSnapshot())
	c.spf(spf0, spf1)

	phase.Store("timed layer calls")
	c.timed(rec, o.Workload)

	switch r := trRun.(type) {
	case *bench.RelayRun:
		if r != nil {
			c.relayClosed(st.fleet(4))
		}
		c.overhead(ref, "capacity_mps")
	case *bench.SimRun:
		if r != nil {
			sort.Float64s(r.SendNs)
			rep.Put("session.send_us_p50", "us", bench.Quantile(r.SendNs, 0.5)/1e3)
			if rr, ok := refRun.(*bench.SimRun); ok && rr != nil && !reflect.DeepEqual(rr.Counts, r.Counts) {
				rep.Fail("traced-untraced-counts-differ", 1)
				rep.Infof("ledger: traced counts %v, untraced %v", r.Counts, rr.Counts)
			}
		}
		c.overhead(ref, "sim_speed")
	}
	rep.Put("proc.allocs_per_msg", "allocs/msg", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(ref.Attempted())))
	rep.Put("proc.gc_cpu_fraction", "fraction", ms1.GCCPUFraction)
	if m, ok := rep.Metric("setup_s"); ok {
		rep.Infof("traced setup_s = %.4f s", m.Value)
	}
	rep.Put("loss_ratio", "fraction", ref.LossRatio())

	path, err := rec.write(".bench_build/perfbench", o.Workload)
	if err != nil {
		rep.Fail("span-file", 1)
		rep.Infof("error: %v", err)
	} else {
		rep.Infof("spans: %s (self times in %s)", path, path[:len(path)-len(".jsonl")]+".self.txt")
	}
	stop()
	for _, m := range metrics { // a layer this workload does not use did no work
		if _, ok := rep.Metric(m[0]); !ok {
			rep.Put(m[0], m[1], 0)
		}
	}
	bench.Summarize(rep)
	if err := rep.Write(os.Stdout, names); err != nil {
		fmt.Fprintln(os.Stderr, "traced:", err)
		return 1
	}
	if refErr != nil || trErr != nil {
		return 1
	}
	return 0
}

// counters turns layer counters into per-layer metrics.
type counters struct {
	rep  *bench.Report
	msgs float64 // delivered messages the per-message ratios divide by
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (c *counters) put(name, unit string, v float64) { c.rep.Put(name, unit, v) }

// nodeTotals sums one kind of per-node counters over a fleet or world.
type nodeTotals struct {
	fwd, dups, dropped                     float64
	hellos, missed, floods, deltas, reconv float64
	acks, rtx, reqs, sendDropped           float64
	sched                                  metrics.SchedSnapshot
	tree                                   metrics.TreeCacheSnapshot
	mem                                    metrics.MembershipSnapshot
}

// add accumulates one node: st and sched as its owner reports them,
// the rest from the node's link-state, routing and membership accessors.
func (t *nodeTotals) add(nd *node.Node, st node.Stats, sched metrics.SchedSnapshot) {
	t.fwd += float64(st.Forwarded)
	t.dups += float64(st.Duplicates)
	t.dropped += float64(st.DroppedTTL + st.DroppedNoRoute + st.DroppedAuth + st.Blackholed)
	t.sched = t.sched.Merge(sched)
	h := nd.LinkStateManager().Health()
	t.hellos += float64(h.HellosSent)
	t.missed += float64(h.HellosMissed)
	t.floods += float64(h.LSAFloods)
	t.deltas += float64(h.DeltaLSAFloods)
	t.reconv += float64(h.Reconvergences)
	tc := nd.Engine().TreeCacheStats()
	t.tree.Hits += tc.Hits
	t.tree.Misses += tc.Misses
	if m := nd.Membership(); m != nil {
		t.mem = t.mem.Merge(m.Stats())
	}
}

// addLinks accumulates the link-protocol counters of nd's links to the
// given neighbors. It reads node state, so the node's loop must not run.
func (t *nodeTotals) addLinks(nd *node.Node, neighbors []wire.NodeID) {
	for _, nb := range neighbors {
		for _, s := range nd.LinkStats(nb) {
			t.acks += float64(s.Acks)
			t.rtx += float64(s.Retransmissions)
			t.reqs += float64(s.Requests)
			t.sendDropped += float64(s.SendDropped)
		}
	}
}

// putNodes records the node, routing, itmsg and linkstate metrics;
// span is the time the counters cover: virtual time in the emulator,
// wall time for daemons.
func (c *counters) putNodes(t *nodeTotals, span time.Duration) {
	c.put("node.forwarded_per_msg", "fwd/msg", ratio(t.fwd, c.msgs))
	c.put("node.duplicates_per_msg", "dups/msg", ratio(t.dups, c.msgs))
	c.put("node.dropped", "count", t.dropped)
	c.put("routing.tree_cache_hit_ratio", "ratio", t.tree.HitRatio())
	c.put("itmsg.backpressure", "count", float64(t.sched.Backpressure))
	c.put("itmsg.drop_evicted", "count", float64(t.sched.DropEvicted))
	c.put("itmsg.flows_peak", "flows", float64(t.sched.FlowsPeak))
	c.put("linkstate.hellos_per_vs", "hellos/s", ratio(t.hellos, span.Seconds()))
	c.put("linkstate.lsa_floods", "count", t.floods)
	c.put("linkstate.delta_share", "ratio", ratio(t.deltas, t.floods))
	c.put("linkstate.reconvergences", "count", t.reconv)
	c.put("linkstate.miss_ratio", "ratio", ratio(t.missed, t.hellos))
}

func (c *counters) putLinks(t *nodeTotals) {
	c.put("link.acks_per_msg", "acks/msg", ratio(t.acks, c.msgs))
	c.put("link.retransmissions_per_msg", "rtx/msg", ratio(t.rtx, c.msgs))
	c.put("link.requests_per_msg", "reqs/msg", ratio(t.reqs, c.msgs))
	c.put("link.send_dropped", "count", t.sendDropped)
}

// relayLive reads the live fleet after the measured phases.
func (c *counters) relayLive(fleet []*transport.Daemon, since time.Time, r *bench.RelayRun) {
	c.msgs = float64(r.Total)
	var w metrics.WireSnapshot
	var t nodeTotals
	for _, d := range fleet {
		w = w.Merge(d.WireStats())
		t.add(d.Node(), d.NodeStats(), d.SchedStats())
		c.rep.Infof("daemon %v: shards=%d steered_rx=%v", d.Node().ID(), d.Shards(), d.SteeredRx())
	}
	c.put("transport.rx_batch_avg", "dgrams/batch", ratio(float64(w.RecvPackets), float64(w.RecvBatches)))
	c.put("transport.tx_batch_avg", "dgrams/batch", ratio(float64(w.SendPackets), float64(w.SendBatches)))
	c.put("transport.datagrams_per_msg", "dgrams/msg", ratio(float64(w.SendPackets), c.msgs))
	c.put("transport.handoffs_per_msg", "handoffs/msg", ratio(float64(w.Handoffs), c.msgs))
	c.put("transport.drops", "count", float64(w.SendDropped+w.HandoffDrops+w.RecvUnknown))
	sort.Float64s(r.SendNs)
	c.put("transport.client_send_us_p50", "us", bench.Quantile(r.SendNs, 0.5)/1e3)
	c.put("transport.client_send_us_p99", "us", bench.Quantile(r.SendNs, 0.99)/1e3)
	c.putNodes(&t, time.Since(since))
}

// relayClosed reads the link-protocol counters once the fleet has shut
// down and its loops no longer touch them. Only peers homed on a
// daemon's control shard keep their link sessions on the node.
func (c *counters) relayClosed(fleet []*transport.Daemon) {
	var t nodeTotals
	for _, d := range fleet {
		id := d.Node().ID()
		t.addLinks(d.Node(), []wire.NodeID{id - 1, id + 1})
	}
	c.putLinks(&t)
}

func (c *counters) pools(p0, p1, s0, s1 metrics.PoolSnapshot) {
	miss := func(a, b metrics.PoolSnapshot) float64 {
		return ratio(float64(b.Misses-a.Misses), float64(b.Hits-a.Hits+b.Misses-a.Misses))
	}
	c.put("wire.bufpool_miss_ratio", "ratio", miss(p0, p1))
	c.put("wire.slab_miss_ratio", "ratio", miss(s0, s1))
}

func (c *counters) spf(a, b metrics.SPFSnapshot) {
	runs, inc, rep := float64(b.Runs-a.Runs), float64(b.Incrementals-a.Incrementals), float64(b.RepairedNodes-a.RepairedNodes)
	c.put("topology.spf_runs", "count", runs)
	c.put("topology.incremental_ratio", "ratio", ratio(inc, runs+inc))
	c.put("topology.repair_size_mean", "nodes", ratio(rep, inc))
}

// sim reads the emulated world's counters after its first repetition.
func (c *counters) sim(w *coreWorld) {
	c.msgs = 0
	var late, dups float64
	for _, cl := range w.clients {
		s := cl.Stats()
		c.msgs += float64(s.Received)
		late += float64(s.Late)
		dups += float64(s.Duplicates)
	}
	var t nodeTotals
	for _, id := range w.Graph.Nodes() {
		nd := w.Node(id)
		if nd == nil {
			continue
		}
		t.add(nd, nd.Stats(), nd.SchedStats())
		var nbs []wire.NodeID
		for _, lid := range w.Graph.Incident(id) {
			if l, ok := w.Graph.Link(lid); ok && l.A == id {
				nbs = append(nbs, l.B)
			} else if ok {
				nbs = append(nbs, l.A)
			}
		}
		t.addLinks(nd, nbs)
	}
	c.putNodes(&t, w.Now())
	c.putLinks(&t)
	c.put("session.late", "count", late)
	c.put("session.duplicates", "count", dups)
	rc := w.Net.RouteCacheStats()
	ns := w.Net.Stats()
	c.put("netemu.route_cache_hit_ratio", "ratio", rc.HitRatio())
	c.put("netemu.dropped_loss", "count", float64(ns.DroppedLoss))
	c.put("netemu.dropped_down", "count", float64(ns.DroppedDown))
	ev := float64(w.Sched.EventsRun())
	c.put("sim.events_per_vs", "events/vs", ev/w.Now().Seconds())
	c.put("sim.ns_per_event", "ns", float64(time.Since(w.built).Nanoseconds())/ev)
	c.put("membership.sweeps", "count", float64(t.mem.DetectorSweeps))
	c.put("membership.corrections", "count", float64(t.mem.Corrections))
	c.put("membership.sync_rounds", "count", float64(t.mem.SyncsSent))
}

// timed makes the timed calls into each layer at the workload's frame
// size and flow count, each inside its own span.
func (c *counters) timed(rec *recorder, workload string) {
	payload, flows := bench.RelaySmall.Payload, bench.RelaySmall.Flows
	switch workload {
	case bench.RelayBulk.Name:
		payload, flows = bench.RelayBulk.Payload, bench.RelayBulk.Flows
	case bench.SimMixed:
		payload, flows = 1200, 2
	}
	fail := func(what string, err error) {
		if err != nil {
			c.rep.Fail("timed-"+what, 1)
			c.rep.Infof("timed %s: %v", what, err)
		}
	}
	var enc, dec, shard, simHop, decide, full, repair, decision float64
	var err error
	rec.timed("wire", func() { enc, dec, err = wireNs(payload) })
	fail("wire", err)
	rec.timed("node.shard", func() { shard, err = hopShardNs(payload) })
	fail("node-shard", err)
	rec.timed("node.sim", func() { simHop, err = hopSimNs(payload) })
	fail("node-sim", err)
	rec.timed("routing", func() { decide, err = decideNs() })
	fail("routing", err)
	rec.timed("topology", func() { full, repair, err = sptNs() })
	fail("topology", err)
	rec.timed("itmsg", func() { decision, err = decisionNs(flows) })
	fail("itmsg", err)
	c.put("wire.encode_ns", "ns", enc)
	c.put("wire.decode_ns", "ns", dec)
	c.put("node.hop_ns_shard", "ns", shard)
	c.put("node.hop_ns_sim", "ns", simHop)
	c.put("routing.decide_ns", "ns", decide)
	c.put("topology.spt_full_ns", "ns", full)
	c.put("topology.spt_repair_ns", "ns", repair)
	c.put("itmsg.decision_ns", "ns", decision)
}

// overhead reports the untraced value of metric over the traced one.
func (c *counters) overhead(ref *bench.Report, metric string) {
	u, ok1 := ref.Metric(metric)
	t, ok2 := c.rep.Metric(metric)
	if ok1 && ok2 && t.Value > 0 {
		c.put("bench.trace_overhead", "ratio", u.Value/t.Value)
		c.rep.Infof("trace overhead on %s: untraced %.4g, traced %.4g", metric, u.Value, t.Value)
	}
}
