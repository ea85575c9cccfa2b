package main

import (
	"fmt"
	"io"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pollTimer is a Linux timerfd read through the Go netpoller: a sleep on
// it parks the goroutine, freeing its CPU for the BFS workers, and wakes
// within microseconds of the deadline. Neither stock sleep does both. The
// runtime waits for its own timers in whole milliseconds when the process
// has nothing else to run, so any time.Sleep below 1 ms takes about 1.1 ms
// on a 2-vCPU guest, too coarse to dither; nanosleep(2) is exact but keeps
// the goroutine's P for the whole wait, leaving a parallel BFS one CPU.
type pollTimer struct {
	fd uintptr // kept from timerfd_create: f.Fd() would make f blocking
	f  *os.File
}

func newPollTimer() (*pollTimer, error) {
	const clockMonotonic = 1
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", e)
	}
	return &pollTimer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep waits d. A zero timer never fires, so d <= 0 returns at once.
func (t *pollTimer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec: it_interval (zero, one shot), then it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, e := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); e != 0 {
		return fmt.Errorf("timerfd_settime: %w", e)
	}
	var expirations [8]byte
	_, err := io.ReadFull(t.f, expirations[:])
	return err
}

// close releases the timer; it is only read, so a failed close loses
// nothing.
func (t *pollTimer) close() { _ = t.f.Close() }
