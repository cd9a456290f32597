package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's verdict: the last line of its standard
// output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report collects one run's outcome: the attempted/failed ledger with a
// named reason per failure, the gated metrics, and informational lines
// printed above the verdict. It is safe for concurrent use, so a
// watchdog can print whatever a stalled run has gathered.
type Report struct {
	mu        sync.Mutex
	attempted int64
	reasons   map[string]int64
	metrics   map[string]Metric
	info      []string
}

// NewReport returns an empty report.
func NewReport() *Report {
	return &Report{reasons: make(map[string]int64), metrics: make(map[string]Metric)}
}

// Attempt adds n attempted operations.
func (r *Report) Attempt(n int64) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// Fail adds n failures for a named reason.
func (r *Report) Fail(reason string, n int64) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	r.reasons[reason] += n
	r.mu.Unlock()
}

// Put records a metric. Non-finite values are a measurement failure.
func (r *Report) Put(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Fail("metric-"+name+"-not-finite", 1)
		return
	}
	r.mu.Lock()
	r.metrics[name] = Metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

// Infof adds an informational line.
func (r *Report) Infof(format string, args ...any) {
	r.mu.Lock()
	r.info = append(r.info, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// Failed returns the failure count, capped at the attempted count.
func (r *Report) Failed() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failedLocked()
}

func (r *Report) failedLocked() int64 {
	var n int64
	for _, c := range r.reasons {
		n += c
	}
	if n > r.attempted && r.attempted > 0 {
		n = r.attempted
	}
	return n
}

// Attempted returns the attempted count.
func (r *Report) Attempted() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempted
}

// LossRatio returns failed over attempted (0 when nothing was attempted).
func (r *Report) LossRatio() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failedLocked()) / float64(r.attempted)
}

// Metric returns a recorded metric.
func (r *Report) Metric(name string) (Metric, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[name]
	return m, ok
}

// Write prints the info lines, the failure reasons and, last, the
// verdict restricted to the named metrics. A named metric that was never
// recorded makes the run incorrect.
func (r *Report) Write(w io.Writer, names []string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.info {
		fmt.Fprintln(w, l)
	}
	res := Result{Attempted: r.attempted, Metrics: make(map[string]Metric)}
	missing := false
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			fmt.Fprintf(w, "missing metric: %s\n", n)
			missing = true
			continue
		}
		res.Metrics[n] = m
	}
	res.Failed = r.failedLocked()
	reasons := make([]string, 0, len(r.reasons))
	for k := range r.reasons {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		fmt.Fprintf(w, "failure: %s x%d\n", k, r.reasons[k])
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		fmt.Fprintln(w, "failure: nothing attempted")
	}
	res.Correct = res.Failed == 0 && !missing
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// PeakRSSMiB returns the process's peak resident set size in MiB.
func PeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Environment describes the machine a result was measured on.
func Environment() string {
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d go=%s os=%s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
