//go:build !linux

package bench

import "time"

// pacer falls back to time.Sleep where timerfd does not exist.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (p *pacer) close() {}
