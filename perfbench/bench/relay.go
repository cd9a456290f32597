package bench

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sonet"
)

// RelayConfig is one relay workload: a 4-daemon chain 1–2–3–4 over
// loopback UDP, a sender client on node 1 and a receiver client on node
// 4, open-loop segments at a fixed rate alternating with closed-loop
// segments that hold a fixed window in flight.
type RelayConfig struct {
	Name    string
	Payload int // bytes per message
	Flows   int // flows on the one sender connection, used round-robin
	Service sonet.LinkService
	Ordered bool
	Rate    float64 // open-loop messages per second
	Window  int     // closed-loop messages in flight
}

// The relay workloads.
var (
	RelaySmall = RelayConfig{Name: "relay-small", Payload: 64, Flows: 1,
		Service: sonet.BestEffort, Rate: 10000, Window: 128}
	RelayBulk = RelayConfig{Name: "relay-bulk", Payload: 1200, Flows: 16,
		Service: sonet.Reliable, Ordered: true, Rate: 5000, Window: 128}
)

const (
	relayNodes   = 4
	relayHops    = relayNodes - 1 // overlay transmissions per message
	relayPort    = sonet.Port(700)
	probeFlow    = uint16(0xffff)
	setupRounds  = 101 // fleets built per run; set-up time is their median
	warmMessages = 4000
	segmentLen   = time.Second           // one open-loop or closed-loop segment
	rampLen      = 50 * time.Millisecond // closed-loop fill before counting
	// openWindow caps the messages in flight in the open loop below the
	// receiving daemon's 256-deep client queue, which drops when full: a
	// host stall of 26 ms at 10 000 msgs/s would overflow it. A message
	// held back is still timed from its due time.
	openWindow = 192
	// drainQuiet ends a drain that sees no delivery for this long, so a
	// lost message fails the run instead of stalling every later drain.
	drainQuiet = 2 * time.Second
	// Ports step in blocks of 840 = lcm(1..8): every candidate block gives
	// each daemon the same port residue modulo any shard count up to 8,
	// so the arrival shard of every peer is the same on every run.
	portBlock   = 840
	portBase    = 20000
	portBlocks  = 48
	portRetries = 16
)

// relayReceiver checks every delivery and keeps the run's ledgers. It
// runs on the receiving client's network goroutine; the delivered
// counter the sender polls is atomic, the rest is guarded by mu.
type relayReceiver struct {
	epoch time.Time
	tr    Tracer

	delivered atomic.Int64 // distinct, intact data messages
	progress  chan struct{}
	probeOnce sync.Once
	probed    chan struct{} // closed when the first probe arrives
	probeAt   time.Duration // its arrival, from epoch; read after probed

	mu       sync.Mutex
	flows    []flowCheck
	latMs    []float64
	corrupt  int64
	dups     int64
	reorders int64
	unknown  int64
}

func newRelayReceiver(epoch time.Time, cfg RelayConfig, tr Tracer) *relayReceiver {
	rx := &relayReceiver{
		epoch:    epoch,
		tr:       tr,
		progress: make(chan struct{}, 1),
		probed:   make(chan struct{}),
		flows:    make([]flowCheck, cfg.Flows),
	}
	for i := range rx.flows {
		rx.flows[i].ordered = cfg.Ordered
	}
	return rx
}

func (rx *relayReceiver) deliver(d sonet.Delivery) {
	now := time.Since(rx.epoch)
	h, ok := decode(d.Payload)
	rx.mu.Lock()
	defer rx.mu.Unlock()
	if !ok {
		rx.corrupt++
		return
	}
	if h.flow == probeFlow {
		rx.probeOnce.Do(func() {
			rx.probeAt = now
			close(rx.probed)
		})
		return
	}
	if int(h.flow) >= len(rx.flows) {
		rx.unknown++
		return
	}
	msg := MsgID(h.flow, h.seq)
	sp := rx.tr.Begin("deliver", rx.tr.SendOf(msg), msg)
	dup, ooo := rx.flows[h.flow].observe(h.seq)
	switch {
	case dup:
		rx.dups++
	case ooo:
		rx.reorders++
	}
	if !dup {
		if h.phase == phaseOpen {
			rx.latMs = append(rx.latMs, float64(now-time.Duration(h.due))/1e6)
		}
		rx.delivered.Add(1)
		select {
		case rx.progress <- struct{}{}:
		default:
		}
	}
	rx.tr.End(sp)
}

// relayFleet is one running chain with its two clients.
type relayFleet struct {
	daemons   []Daemon
	send      Client
	recv      Client
	flows     []Flow
	probe     Flow
	daemonErr atomic.Int64
}

func (f *relayFleet) close() {
	for _, c := range []Client{f.send, f.recv} {
		if c != nil {
			_ = c.Close() // teardown: the session is discarded either way
		}
	}
	for _, d := range f.daemons {
		d.Close()
	}
}

// forwarded sums Forwarded over the fleet.
func (f *relayFleet) forwarded() uint64 {
	var n uint64
	for _, d := range f.daemons {
		n += d.Stats().Forwarded
	}
	return n
}

// portFor returns daemon id's UDP port in the given candidate block.
func portFor(seed uint64, attempt, id int) int {
	blk := (int(splitmix(seed)%portBlocks) + attempt) % portBlocks
	return portBase + blk*portBlock + id
}

// startFleet builds the chain and its clients. A busy port moves the
// whole fleet to the next port block.
func startFleet(st Stack, seed uint64, cfg RelayConfig, rx *relayReceiver, tr Tracer) (*relayFleet, error) {
	links := make([]sonet.DaemonLink, 0, relayHops)
	for i := 1; i < relayNodes; i++ {
		links = append(links, sonet.DaemonLink{A: sonet.NodeID(i), B: sonet.NodeID(i + 1), Latency: time.Millisecond})
	}
	var lastErr error
	for attempt := 0; attempt < portRetries; attempt++ {
		f := &relayFleet{}
		for id := 1; id <= relayNodes; id++ {
			dc := sonet.DaemonConfig{
				ID:      sonet.NodeID(id),
				BindUDP: fmt.Sprintf("127.0.0.1:%d", portFor(seed, attempt, id)),
				Links:   links,
			}
			if id == 1 || id == relayNodes {
				dc.BindTCP = "127.0.0.1:0"
			}
			sp := tr.Begin("StartDaemon", 0, 0)
			d, err := st.StartDaemon(dc)
			tr.End(sp)
			if err != nil {
				lastErr = err
				break
			}
			f.daemons = append(f.daemons, d)
		}
		if len(f.daemons) < relayNodes {
			f.close()
			continue
		}
		if err := f.wire(st, cfg, rx, tr); err != nil {
			f.close()
			return nil, err
		}
		return f, nil
	}
	return nil, fmt.Errorf("start fleet: no free port block: %w", lastErr)
}

// wire registers neighbors, dials both clients, and opens the flows.
func (f *relayFleet) wire(st Stack, cfg RelayConfig, rx *relayReceiver, tr Tracer) error {
	for i, d := range f.daemons {
		for _, j := range []int{i - 1, i + 1} {
			if j < 0 || j >= len(f.daemons) {
				continue
			}
			sp := tr.Begin("AddPeer", 0, 0)
			err := d.AddPeer(sonet.NodeID(j+1), f.daemons[j].UDPAddr())
			tr.End(sp)
			if err != nil {
				return fmt.Errorf("add peer: %w", err)
			}
		}
	}
	onErr := func(error) { f.daemonErr.Add(1) }
	var err error
	sp := tr.Begin("DialDaemon", 0, 0)
	f.recv, err = st.DialDaemon(f.daemons[relayNodes-1].TCPAddr(), relayPort, rx.deliver)
	tr.End(sp)
	if err != nil {
		return fmt.Errorf("dial receiver: %w", err)
	}
	f.recv.OnError(onErr)
	sp = tr.Begin("DialDaemon", 0, 0)
	f.send, err = st.DialDaemon(f.daemons[0].TCPAddr(), 0, nil)
	tr.End(sp)
	if err != nil {
		return fmt.Errorf("dial sender: %w", err)
	}
	f.send.OnError(onErr)
	spec := sonet.FlowSpec{To: relayNodes, ToPort: relayPort, Service: cfg.Service, Ordered: cfg.Ordered}
	for i := 0; i < cfg.Flows; i++ {
		sp = tr.Begin("OpenFlow", 0, 0)
		fl, err := f.send.OpenFlow(spec)
		tr.End(sp)
		if err != nil {
			return fmt.Errorf("open flow: %w", err)
		}
		f.flows = append(f.flows, fl)
	}
	sp = tr.Begin("OpenFlow", 0, 0)
	f.probe, err = f.send.OpenFlow(sonet.FlowSpec{To: relayNodes, ToPort: relayPort})
	tr.End(sp)
	if err != nil {
		return fmt.Errorf("open probe flow: %w", err)
	}
	return nil
}

// probeEvery is the cadence of set-up probes. Set-up time ends at the
// first probe's arrival, so it is late by at most this much plus the
// pacer's wake-up.
const probeEvery = 100 * time.Microsecond

// awaitFirstDelivery probes until one message crosses the chain and
// returns that message's arrival, measured from rx's epoch.
func (f *relayFleet) awaitFirstDelivery(rx *relayReceiver, filler []byte, tr Tracer, limit time.Duration) (time.Duration, error) {
	sp := tr.Begin("FirstDelivery", 0, 0)
	defer tr.End(sp)
	p, err := newPacer()
	if err != nil {
		return 0, err
	}
	defer p.close()
	buf := append([]byte(nil), filler...)
	end := time.Now().Add(limit)
	for seq := uint32(1); time.Now().Before(end); seq++ {
		encode(buf, msgHdr{phase: phaseProbe, flow: probeFlow, seq: seq})
		_ = f.probe.Send(buf) // probes race route set-up; only arrival counts
		select {
		case <-rx.probed:
			return rx.probeAt, nil
		default:
		}
		if err := p.sleep(probeEvery); err != nil {
			return 0, err
		}
	}
	return 0, errors.New("set-up: no end-to-end delivery")
}

// RelayRun is what a relay run measured, for the traced runner to
// extend.
type RelayRun struct {
	Delivered int64 // data messages delivered after warm-up
	Total     int64 // data messages delivered, warm-up included
	SetupS    []float64
	SendNs    []float64 // time inside Flow.Send per call (traced runs)
	OpenLate  []float64
}

// RunRelay runs one relay workload for about seconds of measurement,
// fills rep, and returns what it measured. The measurement alternates
// open-loop and closed-loop segments of segmentLen each; latency
// percentiles and capacity are taken per segment and reported as
// medians across segments, so a disturbance that spans one segment does
// not move the result. inspect, when set, is called after the measured
// phases, while the fleet still runs.
func RunRelay(rep *Report, st Stack, tr Tracer, cfg RelayConfig, seed uint64, seconds float64,
	phase *atomic.Value, inspect func(*RelayRun)) (*RelayRun, error) {
	filler := newFiller(seed, cfg.Payload)
	segments := int(seconds / 2 / segmentLen.Seconds())
	if segments < 1 {
		segments = 1
	}
	segDur := time.Duration(seconds / 2 / float64(segments) * float64(time.Second))
	run := &RelayRun{}

	var f *relayFleet
	var rx *relayReceiver
	for round := 0; round < setupRounds; round++ {
		phase.Store(fmt.Sprintf("set-up round %d", round+1))
		if f != nil {
			f.close()
		}
		// Return the last fleet's memory to the OS before timing the
		// next, so each set-up starts as cold as a fresh process and the
		// set-up rounds do not raise the peak resident memory.
		debug.FreeOSMemory()
		epoch := time.Now()
		rx = newRelayReceiver(epoch, cfg, tr)
		var err error
		f, err = startFleet(st, seed, cfg, rx, tr)
		if err != nil {
			return nil, err
		}
		at, err := f.awaitFirstDelivery(rx, filler, tr, 20*time.Second)
		if err != nil {
			f.close()
			return nil, err
		}
		run.SetupS = append(run.SetupS, at.Seconds())
	}
	defer f.close()

	seqs := make([]uint32, cfg.Flows)
	buf := append([]byte(nil), filler...)
	var sentOK, sendErrs int64
	_, untraced := tr.(NoTrace)
	k := 0
	sendOne := func(due time.Duration, ph byte, parent SpanID) {
		fl := uint16(k % cfg.Flows)
		k++
		seqs[fl]++
		msg := MsgID(fl, seqs[fl])
		encode(buf, msgHdr{due: int64(due), phase: ph, flow: fl, seq: seqs[fl]})
		sp := tr.Begin("Send", parent, msg)
		t0 := time.Now()
		err := f.flows[fl].Send(buf)
		if !untraced {
			run.SendNs = append(run.SendNs, float64(time.Since(t0)))
		}
		tr.End(sp)
		if err != nil {
			sendErrs++
			return
		}
		sentOK++
	}
	outstanding := func() int64 { return sentOK - rx.delivered.Load() }
	drain := func() { HoldBelow(1, drainQuiet, outstanding, rx.progress) }
	closed := func(until time.Time, limit int, ph byte) {
		ClosedLoop(until, cfg.Window, limit, outstanding, rx.progress,
			func(int) { sendOne(time.Since(rx.epoch), ph, 0) })
	}

	// Warm pools, routes and flow state before timing anything.
	phase.Store("warm-up")
	closed(time.Now().Add(10*time.Second), warmMessages, phaseWarm)
	drain()
	warmSent, warmDelivered := sentOK, rx.delivered.Load()
	fwd0 := f.forwarded()

	var p50s, p90s, rates []float64
	var holds int
	perSeg := int(cfg.Rate * segDur.Seconds())
	// The latency samples are allocated up front, so the heap does not
	// grow with the run and move its peak resident memory.
	rx.mu.Lock()
	rx.latMs = make([]float64, 0, segments*perSeg)
	rx.mu.Unlock()
	run.OpenLate = make([]float64, 0, segments*perSeg)
	for i := 0; i < segments; i++ {
		phase.Store(fmt.Sprintf("open loop, segment %d", i+1))
		rx.mu.Lock()
		from := len(rx.latMs)
		rx.mu.Unlock()
		start := time.Since(rx.epoch) + time.Millisecond
		late, err := OpenLoop(rx.epoch, start, cfg.Rate, perSeg, tr, func(_ int, due time.Duration, parent SpanID) {
			if HoldBelow(openWindow, drainQuiet, outstanding, rx.progress) {
				holds++
			}
			sendOne(due, phaseOpen, parent)
		})
		if err != nil {
			return nil, fmt.Errorf("open loop: %w", err)
		}
		run.OpenLate = append(run.OpenLate, late...)
		drain()
		rx.mu.Lock()
		seg := append([]float64(nil), rx.latMs[from:]...)
		rx.mu.Unlock()
		sort.Float64s(seg)
		p50s = append(p50s, Quantile(seg, 0.50))
		p90s = append(p90s, Quantile(seg, 0.90))

		phase.Store(fmt.Sprintf("closed loop, segment %d", i+1))
		end := time.Now().Add(segDur)
		closed(time.Now().Add(rampLen), 0, phaseClosed) // fill the window
		d0, t0 := rx.delivered.Load(), time.Now()
		closed(end, 0, phaseClosed)
		rates = append(rates, float64(rx.delivered.Load()-d0)/time.Since(t0).Seconds())
		drain()
	}
	phase.Store("drain")
	drain()
	fwd1 := f.forwarded()

	rx.mu.Lock()
	delivered := rx.delivered.Load()
	rep.Attempt(sentOK + sendErrs)
	rep.Fail("send-error", sendErrs)
	rep.Fail("undelivered", sentOK-delivered)
	rep.Fail("corrupt", rx.corrupt)
	rep.Fail("duplicate", rx.dups)
	rep.Fail("out-of-order", rx.reorders)
	rep.Fail("unknown-flow", rx.unknown)
	rep.Fail("daemon-error", f.daemonErr.Load())
	lat := append([]float64(nil), rx.latMs...)
	rx.mu.Unlock()

	// Ledger: every data message after warm-up crossed exactly relayHops
	// overlay links, and every scheduler balances.
	run.Delivered = delivered - warmDelivered
	run.Total = delivered
	if want := uint64(relayHops) * uint64(run.Delivered); fwd1-fwd0 != want {
		rep.Fail("forward-ledger", 1)
		rep.Infof("ledger: fleet forwarded %d after warm-up, want %d hops x %d delivered", fwd1-fwd0, relayHops, run.Delivered)
	}
	for i, d := range f.daemons {
		s := d.SchedStats()
		if s.Enqueued != s.Transmitted+s.DropEvicted+s.DropClosed+uint64(s.Queued) {
			rep.Fail("sched-ledger", 1)
			rep.Infof("ledger: daemon %d scheduler unbalanced: %+v", i+1, s)
		}
	}
	if inspect != nil {
		inspect(run)
	}

	sort.Float64s(lat)
	late := append([]float64(nil), run.OpenLate...)
	sort.Float64s(late)
	rep.Put("setup_s", "s", Median(run.SetupS))
	rep.Put("capacity_mps", "msgs/s", Median(rates))
	rep.Put("lat_p50_ms", "ms", Median(p50s))
	rep.Put("lat_p90_ms", "ms", Median(p90s))
	rep.Put("peak_rss_mb", "MiB", PeakRSSMiB())
	rep.Put("bench.gen_lag_ms_p50", "ms", Quantile(late, 0.50))
	rep.Put("bench.gen_lag_ms_p99", "ms", Quantile(late, 0.99))
	rep.Infof("%s: warm-up %d sent / %d delivered; measured %d attempted, %d delivered; %d segments of %v open loop at %.0f msgs/s and %v closed loop with %d in flight",
		cfg.Name, warmSent, warmDelivered, sentOK+sendErrs-warmSent, run.Delivered, segments, segDur, cfg.Rate, segDur, cfg.Window)
	rep.Infof("open loop held back %d times at %d in flight", holds, openWindow)
	rep.Infof("per-segment capacity msgs/s %s", fmtList(rates))
	rep.Infof("per-segment lat_p90_ms %s", fmtList(p90s))
	putTails(rep, lat)
	return run, nil
}

func fmtList(xs []float64) string {
	out := make([]byte, 0, 8*len(xs))
	for i, x := range xs {
		if i > 0 {
			out = append(out, ' ')
		}
		out = fmt.Appendf(out, "%.4g", x)
	}
	return string(out)
}

// splitmix is a fixed 64-bit mixer deriving values from the seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
