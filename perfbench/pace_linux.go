package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps a load-generator goroutine until a request's due time. The
// runtime's timers round a wait up to whole milliseconds, which would add
// most of a millisecond of generator lateness to every request; a timerfd
// read through the runtime's poller wakes within the kernel's timer slack
// and parks only the goroutine, not the thread.
type pacer struct {
	fd int
	f  *os.File
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// The fd stays non-blocking, so reads park in the poller; f.Fd() would
	// switch it to blocking, hence the raw fd kept beside it.
	return &pacer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

func (p *pacer) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(d.Nanoseconds())}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() { p.f.Close() }
