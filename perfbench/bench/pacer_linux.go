//go:build linux

package bench

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps with sub-millisecond precision. time.Sleep waits in the
// runtime's poller, which rounds waits to whole milliseconds when the
// process is idle; at open-loop rates that oversleep would be charged to
// the system as latency. A timerfd read parks the goroutine in the same
// poller, but its expiry arrives as an event, at the timer's own
// precision, and no thread or P is held while it waits.
type pacer struct {
	fd  uintptr  // for timerfd_settime; File.Fd would make f blocking
	f   *os.File // reads park in the runtime poller
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic, nonblock, cloexec = 1, syscall.O_NONBLOCK, syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblock|cloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "pacer")}, nil
}

// sleep waits d.
func (p *pacer) sleep(d time.Duration) error {
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))} // interval, value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	if _, err := p.f.Read(p.buf[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (p *pacer) close() { _ = p.f.Close() } // nothing was written
