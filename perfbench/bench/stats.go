package bench

import (
	"math"
	"sort"
)

// Quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted,
// the smallest sample with at least a q share of the samples at or below
// it. It returns NaN for an empty sample.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// Median returns the median of xs (the mean of the two middle samples
// for an even count) without reordering xs. It returns NaN for no samples.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Supported reports whether a sample of n values supports the
// q-quantile: at least ten samples must lie beyond it.
func Supported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// putTails records the p99 and p999 of sorted latency samples as
// bench.lat_p99_ms and bench.lat_p999_ms, each only when ten samples lie
// beyond it, and states the sample count either way.
func putTails(rep *Report, sorted []float64) {
	for _, t := range []struct {
		name string
		q    float64
	}{{"bench.lat_p99_ms", 0.99}, {"bench.lat_p999_ms", 0.999}} {
		if Supported(len(sorted), t.q) {
			rep.Put(t.name, "ms", Quantile(sorted, t.q))
			rep.Infof("%s = %.4f ms (n=%d)", t.name, Quantile(sorted, t.q), len(sorted))
		} else {
			rep.Infof("%s unsupported: n=%d leaves fewer than 10 samples beyond it", t.name, len(sorted))
		}
	}
}
