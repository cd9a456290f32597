//go:build race

package bench

// raceEnabled: the race detector slows the stack several-fold, so the
// fixed open-loop rates overload it and the smoke test checks only that
// every workload runs to the end.
const raceEnabled = true
