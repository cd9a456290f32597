package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0.0, 1}, {1, 10}} {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of no samples is not NaN")
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := Median(xs); got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
	if xs[0] != 3 {
		t.Error("Median reordered its input")
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even Median = %v, want 2.5", got)
	}
}

func TestSupportedNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{999, 0.99, false}, {1000, 0.99, true}, {9999, 0.999, false}, {10000, 0.999, true}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := Supported(c.n, c.q); got != c.want {
			t.Errorf("Supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestPayloadRoundTripAndCorruption(t *testing.T) {
	buf := newFiller(7, 64)
	h := msgHdr{due: 123456789, phase: phaseOpen, flow: 3, seq: 42}
	encode(buf, h)
	got, ok := decode(buf)
	if !ok || got != h {
		t.Fatalf("decode = %+v, %v; want %+v", got, ok, h)
	}
	for _, i := range []int{0, 9, 13, 30, 63} {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x40
		if _, ok := decode(bad); ok {
			t.Errorf("flipping byte %d went undetected", i)
		}
	}
	if _, ok := decode(buf[:hdrLen-1]); ok {
		t.Error("short payload decoded")
	}
	if !bytes.Equal(newFiller(7, 64)[hdrLen:], newFiller(7, 64)[hdrLen:]) {
		t.Error("filler is not a function of the seed")
	}
}

func TestFlowCheckDuplicatesAndOrder(t *testing.T) {
	f := flowCheck{ordered: true}
	steps := []struct {
		seq      uint32
		dup, ooo bool
	}{{1, false, false}, {2, false, false}, {2, true, false}, {4, false, true}, {5, false, false}, {3, false, true}}
	for _, s := range steps {
		dup, ooo := f.observe(s.seq)
		if dup != s.dup || ooo != s.ooo {
			t.Errorf("observe(%d) = dup %v, ooo %v; want %v, %v", s.seq, dup, ooo, s.dup, s.ooo)
		}
	}
	u := flowCheck{}
	if _, ooo := u.observe(9); ooo {
		t.Error("unordered flow reported reordering")
	}
	if dup, _ := u.observe(9); !dup {
		t.Error("unordered flow missed a duplicate")
	}
}

// TestOpenLoopChargesStallToLatency drives the open loop into a fake
// sink that stalls on one message. Every message that fell due during
// the stall must show the wait in its latency, measured from its due
// time, and the generator must report itself late.
func TestOpenLoopChargesStallToLatency(t *testing.T) {
	const (
		rate  = 1000.0 // one message per ms
		n     = 60
		stall = 30 * time.Millisecond
		at    = 10
	)
	epoch := time.Now()
	lat := make([]time.Duration, n)
	late, err := OpenLoop(epoch, 5*time.Millisecond, rate, n, NoTrace{}, func(k int, due time.Duration, _ SpanID) {
		if k == at {
			time.Sleep(stall)
		}
		lat[k] = time.Since(epoch) - due
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(late) != n {
		t.Fatalf("lateness samples = %d, want %d", len(late), n)
	}
	// Message at+j fell due j ms into the stall, so it waited at least
	// stall - j ms.
	for j := 1; j < 20; j++ {
		want := stall - time.Duration(j)*time.Millisecond
		if got := lat[at+j]; got < want {
			t.Errorf("message %d latency %v, want at least %v", at+j, got, want)
		}
		if got := late[at+j]; got < float64(want)/1e6 {
			t.Errorf("message %d lateness %.2f ms, want at least %v", at+j, got, want)
		}
	}
	sort.Float64s(late)
	if p99 := Quantile(late, 0.99); p99 < 20 {
		t.Errorf("generator lateness p99 = %.2f ms, want the stall to show", p99)
	}
}

func TestClosedLoopHoldsWindow(t *testing.T) {
	var sent, done atomic.Int64
	progress := make(chan struct{}, 1)
	stop := make(chan struct{})
	finished := make(chan struct{})
	go func() { // a sink that completes one message every 100 µs
		defer close(finished)
		for {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
			if done.Load() < sent.Load() {
				done.Add(1)
				select {
				case progress <- struct{}{}:
				default:
				}
			}
		}
	}()
	peak := int64(0)
	k := ClosedLoop(time.Now().Add(100*time.Millisecond), 8, 0, func() int64 { return sent.Load() - done.Load() }, progress,
		func(int) {
			if o := sent.Add(1) - done.Load(); o > peak {
				peak = o
			}
		})
	close(stop)
	<-finished
	if peak > 8 {
		t.Errorf("in flight reached %d, window is 8", peak)
	}
	if k == 0 || int64(k) != sent.Load() {
		t.Errorf("ClosedLoop returned %d, sent %d", k, sent.Load())
	}
	if n := ClosedLoop(time.Now().Add(time.Second), 4, 5, func() int64 { return 0 }, progress, func(int) {}); n != 5 {
		t.Errorf("limited ClosedLoop sent %d, want 5", n)
	}
}

func TestHoldBelowWaitsForProgress(t *testing.T) {
	var inFlight atomic.Int64
	inFlight.Store(5)
	progress := make(chan struct{}, 1)
	if HoldBelow(6, time.Second, inFlight.Load, progress) {
		t.Error("held below the limit")
	}
	go func() {
		for inFlight.Load() > 3 {
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			select {
			case progress <- struct{}{}:
			default:
			}
		}
	}()
	if !HoldBelow(4, 10*time.Second, inFlight.Load, progress) || inFlight.Load() >= 4 {
		t.Errorf("returned with %d in flight, want below 4", inFlight.Load())
	}
	// Without progress it gives up after quiet: a lost message must not
	// hang the run.
	start := time.Now()
	if !HoldBelow(1, 20*time.Millisecond, inFlight.Load, progress) {
		t.Error("did not wait")
	}
	if waited := time.Since(start); waited < 20*time.Millisecond || waited > 2*time.Second {
		t.Errorf("waited %v without progress, want about 20ms", waited)
	}
}

func TestReportCountsFailures(t *testing.T) {
	r := NewReport()
	r.Attempt(100)
	r.Fail("undelivered", 3)
	r.Fail("duplicate", 2)
	r.Fail("ignored", 0)
	r.Put("x", "ms", 1.5)
	r.Put("nan", "ms", math.NaN())
	if got := r.Failed(); got != 6 { // 3 + 2 + the non-finite metric
		t.Errorf("Failed = %d, want 6", got)
	}
	if got := r.LossRatio(); got != 0.06 {
		t.Errorf("LossRatio = %v, want 0.06", got)
	}
	var out bytes.Buffer
	if err := r.Write(&out, []string{"x", "missing"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the verdict: %v", err)
	}
	if res.Correct || res.Attempted != 100 || res.Failed != 6 || len(res.Metrics) != 1 || res.Metrics["x"].Value != 1.5 {
		t.Errorf("verdict = %+v", res)
	}
	if !strings.Contains(out.String(), "missing metric: missing") {
		t.Error("a missing metric is not named")
	}

	capped := NewReport()
	capped.Attempt(2)
	capped.Fail("duplicate", 5)
	if got := capped.Failed(); got != 2 {
		t.Errorf("Failed exceeds attempted: %d", got)
	}
}

func TestSimAccountsEveryRepetition(t *testing.T) {
	runs := make([]*SimRun, 3)
	for i := range runs {
		runs[i] = &SimRun{Sent: []int64{10, 5}, Failures: map[string]int64{"send-error": 1, "undelivered-reliable": 2}}
	}
	rep := NewReport()
	account(rep, runs)
	if got, want := rep.Attempted(), int64(3*(10+5+1)); got != want {
		t.Errorf("attempted = %d, want %d: every repetition's messages, send errors included", got, want)
	}
	if got, want := rep.Failed(), int64(3*(1+2)); got != want {
		t.Errorf("failed = %d, want %d", got, want)
	}
	if got, want := rep.LossRatio(), 3.0/16; got != want {
		t.Errorf("loss ratio = %v, want %v: one repetition's ratio", got, want)
	}
}

func TestParseOptions(t *testing.T) {
	o, err := ParseOptions([]string{"--workload", "relay-bulk", "--seed", "9", "--seconds", "3", "--trace", "0"})
	if err != nil || o.Workload != "relay-bulk" || o.Seed != 9 || o.Seconds != 3 {
		t.Fatalf("ParseOptions = %+v, %v", o, err)
	}
	if _, err := ParseOptions([]string{"--workload", "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestWorkloadSmoke runs every workload briefly, at the default
// GOMAXPROCS and at GOMAXPROCS=1, and requires a correct verdict with
// every gated metric (under the race detector: that it runs through).
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs start real daemons")
	}
	for _, procs := range []int{0, 1} {
		for _, w := range Workloads {
			name := w
			if procs == 1 {
				name += "/GOMAXPROCS=1"
			}
			t.Run(name, func(t *testing.T) {
				if procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				}
				rep := NewReport()
				var phase atomic.Value
				o := Options{Workload: w, Seed: 3, Seconds: 0.4}
				if _, err := RunWorkload(rep, o, PublicStack{}, PublicWorld, NoTrace{}, &phase, Hooks{}); err != nil {
					t.Fatalf("%s: %v", w, err)
				}
				var out bytes.Buffer
				if err := rep.Write(&out, EndToEnd); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res Result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if raceEnabled {
					return
				}
				if w == SimMixed {
					// At its specified load the sim-mixed Reliable+Ordered
					// flow loses and reorders messages across link cuts, a
					// defect of the overlay (see README). Here it must run
					// through deterministically and fail for no other reason.
					for reason := range rep.reasons {
						if !strings.HasPrefix(reason, "undelivered-") && reason != "out-of-order" {
							t.Errorf("sim-mixed failed: %s\n%s", reason, out.String())
						}
					}
					res.Correct, res.Failed = true, 0
				}
				if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(EndToEnd) {
					t.Fatalf("%s: verdict %+v\n%s", w, res, out.String())
				}
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: metric %s = %v, want positive", w, name, m.Value)
					}
				}
			})
		}
	}
}
