package main

import (
	"math/rand"
	"sort"
	"time"
)

// The shared host's speed drifts by a fifth or more over minutes, and the
// drift is in the memory system, not in lost turns: process CPU time slows
// with wall time, and a pure arithmetic loop barely slows at all. Sorting
// a few MB of float64s slows with the builds (correlation about 0.6, build
// by build), so every timed step is paired with one such sort, and the
// reported times are scaled to a host on which that sort takes refNominal.
// A change to the program moves the step and not the sort, so it shows in
// full.

// refValues is the size of the reference sort: 3.2 MB of float64s.
const refValues = 400_000

// refNominal is the reference sort's time on the host the figures are
// scaled to. A 2.1 GHz Xeon vCPU took 53–68 ms.
const refNominal = 50 * time.Millisecond

// hostRef times the reference sort. It allocates nothing after newHostRef,
// so the heap the program leaves does not change its time.
type hostRef struct {
	src, buf []float64
}

func newHostRef() *hostRef {
	r := rand.New(rand.NewSource(1))
	h := &hostRef{src: make([]float64, refValues), buf: make([]float64, refValues)}
	for i := range h.src {
		h.src[i] = r.Float64()
	}
	return h
}

// time sorts a fresh copy of the fixed values and returns the sort's wall
// time in nanoseconds.
func (h *hostRef) time() float64 {
	copy(h.buf, h.src)
	t0 := time.Now()
	sort.Float64s(h.buf)
	return float64(time.Since(t0))
}

// scaled returns the times ns, each divided by the reference time taken
// beside it and expressed in nanoseconds of the nominal host.
func scaled(ns, ref []float64) []float64 {
	out := make([]float64, len(ns))
	for i := range ns {
		out[i] = ns[i] / ref[i] * float64(refNominal)
	}
	return out
}
