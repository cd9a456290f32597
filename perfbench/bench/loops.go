package bench

import (
	"math"
	"time"
)

// openTick is the open loop's arrival cadence: the messages of one tick
// fall due together, a burst of rate × openTick.
const openTick = time.Millisecond

// OpenLoop sends n messages at a fixed rate in bursts, one every
// openTick, the first due at start (both measured from epoch). It wakes,
// sends every message already due, and sleeps until the next tick. Each
// message is stamped with its due time, not the time its send began, so
// a stalled send shows up as latency on every message that fell due
// during the stall. It returns each message's generator lateness (send
// start minus due) in ms.
func OpenLoop(epoch time.Time, start time.Duration, rate float64, n int, tr Tracer,
	send func(k int, due time.Duration, parent SpanID)) ([]float64, error) {
	p, err := newPacer()
	if err != nil {
		return nil, err
	}
	defer p.close()
	perTick := int(math.Max(1, math.Round(rate*openTick.Seconds())))
	tickLen := time.Duration(float64(perTick) / rate * float64(time.Second))
	dueOf := func(k int) time.Duration { return start + time.Duration(k/perTick)*tickLen }
	late := make([]float64, 0, n)
	for k := 0; k < n; {
		if wait := dueOf(k) - time.Since(epoch); wait > 0 {
			if err := p.sleep(wait); err != nil {
				return late, err
			}
			continue
		}
		tick := tr.Begin("tick", 0, 0)
		for ; k < n; k++ {
			due, at := dueOf(k), time.Since(epoch)
			if due > at {
				break
			}
			late = append(late, float64(at-due)/1e6)
			send(k, due, tick)
		}
		tr.End(tick)
	}
	return late, nil
}

// ClosedLoop keeps up to window messages in flight until the deadline
// or until it has sent limit messages (no limit when limit <= 0): it
// sends while outstanding() is below the window and otherwise waits for
// progress. It returns the number of messages sent.
func ClosedLoop(deadline time.Time, window, limit int, outstanding func() int64,
	progress <-chan struct{}, send func(k int)) int {
	k := 0
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for (limit <= 0 || k < limit) && time.Now().Before(deadline) {
		if outstanding() < int64(window) {
			send(k)
			k++
			continue
		}
		select {
		case <-progress:
		case <-timer.C:
			return k
		}
	}
	return k
}

// HoldBelow waits while limit or more messages are in flight, for as
// long as deliveries keep arriving: it returns once outstanding() is
// below limit, or after quiet passes with no progress. It reports
// whether it waited.
func HoldBelow(limit int64, quiet time.Duration, outstanding func() int64, progress <-chan struct{}) bool {
	if outstanding() < limit {
		return false
	}
	timer := time.NewTimer(quiet)
	defer timer.Stop()
	for outstanding() >= limit {
		select {
		case <-progress:
			timer.Reset(quiet)
		case <-timer.C:
			return true
		}
	}
	return true
}
