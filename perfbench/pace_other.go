//go:build !linux

package main

import "time"

// pacer sleeps a load-generator goroutine until a request's due time. Off
// Linux it uses the runtime's timers, whose rounding adds up to a
// millisecond of generator lateness (reported as loadgen.late_p99_ms).
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) sleepUntil(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (p *pacer) close() {}
