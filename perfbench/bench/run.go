package bench

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"
)

// Options are the arguments every runner takes.
type Options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    int
}

// Workloads are the benchmark's workload names.
var Workloads = []string{RelaySmall.Name, RelayBulk.Name, SimMixed}

// SimMixed names the emulated workload.
const SimMixed = "sim-mixed"

// EndToEnd are the gated metrics every untraced run reports. The
// closed loop's capacity_mps is printed too but not gated: it follows
// the host's speed from run to run (see README).
var EndToEnd = []string{"setup_s", "lat_p50_ms", "lat_p90_ms", "peak_rss_mb"}

// RunLimit is the hard deadline of one run; a run still going then
// prints what it has, names the phase it stalled in, and exits non-zero.
const RunLimit = 150 * time.Second

// ParseOptions parses the command line.
func ParseOptions(args []string) (Options, error) {
	var o Options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.Workload, "workload", "", "workload: relay-small, relay-bulk or sim-mixed")
	fs.Uint64Var(&o.Seed, "seed", 1, "seed every input derives from")
	fs.Float64Var(&o.Seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&o.Trace, "trace", 0, "1 for the traced run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	known := false
	for _, w := range Workloads {
		known = known || w == o.Workload
	}
	if !known {
		return o, fmt.Errorf("unknown workload %q (want one of %v)", o.Workload, Workloads)
	}
	if o.Seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	return o, nil
}

// Hooks let the traced runner look inside a run; all may be nil.
type Hooks struct {
	Relay func(*RelayRun)
	Sim   func(World)
}

// RunWorkload runs one workload into rep and returns its main result:
// a *RelayRun or a *SimRun.
func RunWorkload(rep *Report, o Options, st Stack, build WorldMaker, tr Tracer, phase *atomic.Value, h Hooks) (any, error) {
	switch o.Workload {
	case SimMixed:
		return RunSim(rep, build, tr, o.Seed, o.Seconds, phase, h.Sim)
	case RelaySmall.Name:
		return RunRelay(rep, st, tr, RelaySmall, o.Seed, o.Seconds, phase, h.Relay)
	default:
		return RunRelay(rep, st, tr, RelayBulk, o.Seed, o.Seconds, phase, h.Relay)
	}
}

// Guard arms the run's hard deadline. The returned stop disarms it.
func Guard(rep *Report, phase *atomic.Value, names []string) (stop func() bool) {
	t := time.AfterFunc(RunLimit, func() {
		rep.Fail("deadline", 1)
		rep.Infof("deadline: run stalled in %v after %v", phase.Load(), RunLimit)
		_ = rep.Write(os.Stdout, names)
		// Every goroutine's stack shows where the run stalled.
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	return t.Stop
}

// Summarize adds a line per recorded metric, so one command prints every
// metric by name with its unit.
func Summarize(rep *Report) {
	rep.mu.Lock()
	names := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		names = append(names, k)
	}
	rep.mu.Unlock()
	sort.Strings(names)
	for _, n := range names {
		m, _ := rep.Metric(n)
		rep.Infof("metric %-28s %14.6g %s", n, m.Value, m.Unit)
	}
}

// Main runs the untraced benchmark: the gated end-to-end metrics through
// the public API only. It returns the process exit code.
func Main(args []string, out io.Writer) int {
	o, err := ParseOptions(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if o.Trace != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: the traced run is the cmd/traced runner")
		return 2
	}
	rep := NewReport()
	var phase atomic.Value
	phase.Store("start")
	stop := Guard(rep, &phase, EndToEnd)
	rep.Infof("%s workload=%s seed=%d seconds=%g shards=default(min(GOMAXPROCS,8))", Environment(), o.Workload, o.Seed, o.Seconds)
	_, runErr := RunWorkload(rep, o, PublicStack{}, PublicWorld, NoTrace{}, &phase, Hooks{})
	if runErr != nil {
		rep.Fail("run-error", 1)
		rep.Infof("error: %v", runErr)
	}
	stop()
	rep.Put("loss_ratio", "fraction", rep.LossRatio())
	Summarize(rep)
	if err := rep.Write(out, EndToEnd); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if runErr != nil {
		return 1
	}
	return 0
}
