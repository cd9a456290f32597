package bench

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"sonet"
)

// The sim-mixed world: 32 emulated nodes on a ring with eight chords,
// half of the chords on Gilbert–Elliott bursty loss, running five
// services at once while links are cut and a node leaves and rejoins.
const (
	simNodes    = 32
	simTraffic  = 8 * time.Second        // virtual time of offered traffic
	simDrain    = 2 * time.Second        // virtual time to let recovery finish
	simSlice    = 250 * time.Millisecond // one timed Run call
	simJoin     = 100 * time.Millisecond // virtual time for group joins to flood
	simMinReps  = 3
	SimITRate   = 300 // paced IT link rate, packets/s
	SimITBuffer = 32
	simGroup    = sonet.GroupID(77)
)

// SimLinks returns the sim-mixed topology.
func SimLinks() []sonet.Link {
	var links []sonet.Link
	for i := 1; i <= simNodes; i++ {
		links = append(links, sonet.Link{
			A: sonet.NodeID(i), B: sonet.NodeID(i%simNodes + 1),
			Latency: time.Duration(10+(i*5)%6) * time.Millisecond,
		})
	}
	for k, i := 0, 1; i <= simNodes; k, i = k+1, i+4 {
		l := sonet.Link{A: sonet.NodeID(i), B: sonet.NodeID((i+11)%simNodes + 1), Latency: 15 * time.Millisecond}
		if k%2 == 1 {
			l.BurstLoss = &sonet.BurstLoss{PGoodBad: 0.002, PBadGood: 0.2, LossGood: 0.001, LossBad: 0.3}
		}
		links = append(links, l)
	}
	return links
}

// simFlow is one traffic source of the mixed world.
type simFlow struct {
	name     string
	from     sonet.NodeID
	spec     sonet.FlowSpec
	rate     float64 // messages per virtual second
	size     int
	receive  []sonet.NodeID // nodes with a receiving client on the flow's port
	promised bool           // the service promises delivery: losses count
	latency  bool           // deliveries feed the latency metrics
}

func simFlows() []simFlow {
	var fs []simFlow
	fs = append(fs, simFlow{name: "reliable", from: 1, rate: 1000, size: 1200,
		spec: sonet.FlowSpec{To: 17, ToPort: 10, Service: sonet.Reliable, Ordered: true}, receive: []sonet.NodeID{17},
		promised: true, latency: true})
	fs = append(fs, simFlow{name: "realtime", from: 5, rate: 200, size: 500,
		spec:    sonet.FlowSpec{To: 23, ToPort: 20, Service: sonet.RealTime, Ordered: true, Deadline: 200 * time.Millisecond},
		receive: []sonet.NodeID{23}, latency: true})
	for i, src := range []sonet.NodeID{8, 16, 24, 32} {
		fs = append(fs, simFlow{name: fmt.Sprintf("monitor-%d", src), from: src, rate: 50, size: 200,
			spec: sonet.FlowSpec{To: 1, ToPort: sonet.Port(30 + i)}, receive: []sonet.NodeID{1}})
	}
	fs = append(fs, simFlow{name: "multicast", from: 3, rate: 100, size: 300,
		spec: sonet.FlowSpec{Group: simGroup, ToPort: 40, Service: sonet.Reliable}, receive: []sonet.NodeID{10, 20, 30}})
	fs = append(fs, simFlow{name: "it-victim", from: 26, rate: 50, size: 100,
		spec: sonet.FlowSpec{To: 28, ToPort: 50, Service: sonet.ITPriority}, receive: []sonet.NodeID{28}})
	fs = append(fs, simFlow{name: "it-attacker", from: 27, rate: 500, size: 100,
		spec: sonet.FlowSpec{To: 28, ToPort: 51, Service: sonet.ITPriority}, receive: []sonet.NodeID{28}})
	return fs
}

// The fault script, in virtual time from the start of traffic: a link
// on the reliable flow's current path is cut every two seconds and
// restored one second later, and one node leaves during the second cut
// and rejoins during the third.
var (
	simCuts             = []time.Duration{1 * time.Second, 3 * time.Second, 5 * time.Second, 7 * time.Second}
	simCutFor           = time.Second
	simLeaveNode        = sonet.NodeID(12)
	simLeaveAt, simBack = 3500 * time.Millisecond, 5500 * time.Millisecond
)

// SimRun is what one pass over the mixed world observed.
type SimRun struct {
	SetupS    float64
	RunWallS  float64
	VirtualS  float64
	Counts    []int64   // deliveries per (flow, receiver), the determinism ledger
	LatMs     []float64 // virtual one-way latency of reliable + real-time deliveries, sorted
	RerouteMs float64
	SliceMs   []float64 // wall time of each simSlice of virtual time
	Sent      []int64
	SendNs    []float64
	Failures  map[string]int64
}

// simReceiver checks deliveries to one receiving client.
type simReceiver struct {
	flow, slot int
	check      flowCheck
}

// runSimOnce builds the mixed world from seed and runs its script once.
// inspect, when set, sees the world after the script and before close.
func runSimOnce(build WorldMaker, tr Tracer, seed uint64, inspect func(World)) (*SimRun, error) {
	flows := simFlows()
	run := &SimRun{Failures: make(map[string]int64), Sent: make([]int64, len(flows))}
	_, untraced := tr.(NoTrace)

	t0 := time.Now()
	sp := tr.Begin("New", 0, 0)
	w, err := build(WorldSpec{Seed: seed, Links: SimLinks()})
	tr.End(sp)
	if err != nil {
		return nil, fmt.Errorf("build world: %w", err)
	}
	defer w.Close()

	var slots []*simReceiver
	var relTimes []time.Duration
	senders := make([]Flow, len(flows))
	for fi, f := range flows {
		for _, at := range f.receive {
			r := &simReceiver{flow: fi, slot: len(slots)}
			r.check.ordered = f.spec.Ordered && f.spec.Deadline == 0
			slots = append(slots, r)
			sp := tr.Begin("Connect", 0, 0)
			c, err := w.Connect(at, f.spec.ToPort)
			tr.End(sp)
			if err != nil {
				return nil, fmt.Errorf("connect %s receiver at %v: %w", f.name, at, err)
			}
			if f.spec.Group != 0 {
				c.Join(f.spec.Group)
			}
			c.OnDeliver(func(d sonet.Delivery) {
				h, ok := decode(d.Payload)
				if !ok || int(h.flow) != r.flow {
					run.Failures["corrupt"]++
					return
				}
				msg := MsgID(h.flow, h.seq)
				dsp := tr.Begin("deliver", tr.SendOf(msg), msg)
				defer tr.End(dsp)
				dup, ooo := r.check.observe(h.seq)
				switch {
				case dup:
					run.Failures["duplicate"]++
					return
				case ooo:
					run.Failures["out-of-order"]++
				}
				now := w.Now()
				if f.latency {
					run.LatMs = append(run.LatMs, float64(now-time.Duration(h.due))/1e6)
				}
				if r.flow == 0 {
					relTimes = append(relTimes, now)
				}
				run.Counts[r.slot]++
			})
		}
		sp := tr.Begin("Connect", 0, 0)
		c, err := w.Connect(f.from, 0)
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("connect %s sender at %v: %w", f.name, f.from, err)
		}
		sp = tr.Begin("OpenFlow", 0, 0)
		senders[fi], err = c.OpenFlow(f.spec)
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", f.name, err)
		}
	}
	run.Counts = make([]int64, len(slots))
	w.Run(simJoin) // let the group join flood before traffic starts
	run.SetupS = time.Since(t0).Seconds()

	// Traffic: every flow sends on its own virtual-time schedule.
	var slice SpanID
	start := w.Now()
	for fi, f := range flows {
		filler := newFiller(seed+uint64(fi), f.size)
		interval := time.Duration(float64(time.Second) / f.rate)
		n := int(f.rate * simTraffic.Seconds())
		var k int
		var tick func()
		tick = func() {
			k++
			due := w.Now()
			// A fresh buffer per message: end-to-end recovery keeps
			// the sent payload for retransmission.
			buf := append([]byte(nil), filler...)
			encode(buf, msgHdr{due: int64(due), phase: phaseSim, flow: uint16(fi), seq: uint32(k)})
			msg := MsgID(uint16(fi), uint32(k))
			ssp := tr.Begin("Flow.Send", slice, msg)
			t := time.Now()
			err := senders[fi].Send(buf)
			if !untraced {
				run.SendNs = append(run.SendNs, float64(time.Since(t)))
			}
			tr.End(ssp)
			if err != nil {
				run.Failures["send-error"]++
			} else {
				run.Sent[fi]++
			}
			if k < n {
				w.RunAt(interval, tick)
			}
		}
		// Stagger flow starts by the seed so inputs differ per seed.
		w.RunAt(time.Duration(splitmix(seed^uint64(fi))%uint64(interval)), tick)
	}
	fault := func(name string, fn func() error) func() {
		return func() {
			fsp := tr.Begin(name, slice, 0)
			defer tr.End(fsp)
			if err := fn(); err != nil {
				run.Failures["fault-"+name]++
			}
		}
	}
	var cuts []time.Duration
	for _, at := range simCuts {
		var a, b sonet.NodeID
		w.RunAt(at, fault("CutLink", func() error {
			path := w.PathBetween(flows[0].from, flows[0].spec.To)
			if len(path) < 3 {
				return fmt.Errorf("no path to cut")
			}
			a, b = path[1], path[2]
			cuts = append(cuts, w.Now())
			return w.CutLink(a, b)
		}))
		w.RunAt(at+simCutFor, fault("RestoreLink", func() error { return w.RestoreLink(a, b) }))
	}
	w.RunAt(simLeaveAt, fault("LeaveNode", func() error { return w.LeaveNode(simLeaveNode) }))
	w.RunAt(simBack, fault("RejoinNode", func() error { return w.RejoinNode(simLeaveNode, simLeaveNode+1) }))

	t1 := time.Now()
	for w.Now()-start < simTraffic+simDrain {
		slice = tr.Begin("Run", 0, 0)
		ts := time.Now()
		w.Run(simSlice)
		run.SliceMs = append(run.SliceMs, float64(time.Since(ts))/1e6)
		tr.End(slice)
		slice = 0
	}
	run.RunWallS = time.Since(t1).Seconds()
	run.VirtualS = (w.Now() - start).Seconds()

	for fi, f := range flows {
		if !f.promised {
			continue
		}
		for _, r := range slots {
			if r.flow == fi {
				run.Failures["undelivered-"+f.name] += run.Sent[fi] - run.Counts[r.slot]
			}
		}
	}
	sort.Float64s(run.LatMs)
	run.RerouteMs = largestGapMs(relTimes, cuts)
	if inspect != nil {
		inspect(w)
	}
	return run, nil
}

// largestGapMs is the largest interval between consecutive deliveries
// from any cut instant until the cut is repaired.
func largestGapMs(times, cuts []time.Duration) float64 {
	var worst time.Duration
	for _, c := range cuts {
		i := sort.Search(len(times), func(i int) bool { return times[i] > c })
		for ; i > 0 && i < len(times) && times[i-1] < c+simCutFor; i++ {
			if g := times[i] - times[i-1]; g > worst {
				worst = g
			}
		}
	}
	return float64(worst) / 1e6
}

// RunSim repeats the mixed world until seconds have passed (at least
// simMinReps times), checks that every repetition delivered exactly the
// same counts, and reports medians. Attempted messages and failures
// are summed over every repetition. inspect sees the first repetition's
// world. It returns the last repetition.
func RunSim(rep *Report, build WorldMaker, tr Tracer, seed uint64, seconds float64,
	phase *atomic.Value, inspect func(World)) (*SimRun, error) {
	var runs []*SimRun
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(runs) < simMinReps || time.Now().Before(deadline) {
		phase.Store(fmt.Sprintf("sim repetition %d", len(runs)+1))
		runtime.GC() // each repetition starts from the same heap
		r, err := runSimOnce(build, tr, seed, inspect)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
		inspect = nil
	}
	last := runs[len(runs)-1]
	for _, r := range runs[1:] {
		if !reflect.DeepEqual(r.Counts, runs[0].Counts) {
			rep.Fail("sim-nondeterministic", 1)
			rep.Infof("ledger: sim delivery counts differ between repetitions: %v vs %v", runs[0].Counts, r.Counts)
			break
		}
	}
	var setup, speed, capacity, slices []float64
	for _, r := range runs {
		slices = append(slices, r.SliceMs...)
		var delivered int64
		for _, c := range r.Counts {
			delivered += c
		}
		setup = append(setup, r.SetupS)
		speed = append(speed, r.VirtualS/r.RunWallS)
		capacity = append(capacity, float64(delivered)/r.RunWallS)
	}
	account(rep, runs)
	rep.Put("setup_s", "s", Median(setup))
	rep.Put("capacity_mps", "msgs/s", Median(capacity))
	sort.Float64s(slices)
	rep.Put("lat_p50_ms", "ms", Quantile(slices, 0.50))
	rep.Put("lat_p90_ms", "ms", Quantile(slices, 0.90))
	rep.Put("peak_rss_mb", "MiB", PeakRSSMiB())
	putTails(rep, slices)
	rep.Put("sim_speed", "vs/s", Median(speed))
	rep.Put("vlat_p50_ms", "ms", Quantile(last.LatMs, 0.50))
	rep.Put("vlat_p90_ms", "ms", Quantile(last.LatMs, 0.90))
	rep.Put("vlat_p99_ms", "ms", Quantile(last.LatMs, 0.99))
	rep.Put("reroute_ms", "ms", last.RerouteMs)
	rep.Infof("sim-mixed: %d repetitions, %d messages attempted, delivery counts per repetition %v", len(runs), rep.Attempted(), last.Counts)
	return last, nil
}

// account adds the messages and failures of every repetition to rep, so
// that per-message ratios divide by all the work the run did.
func account(rep *Report, runs []*SimRun) {
	for _, r := range runs {
		n := r.Failures["send-error"]
		for _, s := range r.Sent {
			n += s
		}
		rep.Attempt(n)
		for k, v := range r.Failures {
			rep.Fail(k, v)
		}
	}
}
