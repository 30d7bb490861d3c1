package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// stopwatch accumulates host wall time and heap allocation over the
// segments of a rep's measured phase; checks run between segments with
// the watch stopped.
type stopwatch struct {
	wall    time.Duration
	mallocs uint64
	bytes   uint64

	t0 time.Time
	m0 runtime.MemStats
}

func (s *stopwatch) start() {
	runtime.ReadMemStats(&s.m0)
	s.t0 = time.Now()
}

func (s *stopwatch) stop() {
	s.wall += time.Since(s.t0)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.mallocs += m.Mallocs - s.m0.Mallocs
	s.bytes += m.TotalAlloc - s.m0.TotalAlloc
}

// rep is what one repetition of a workload produced.
type rep struct {
	setupS float64
	host   stopwatch

	// On the sim workloads these four are read from the virtual clock
	// and the fabric's counters and repeat exactly; on live-io
	// completionS and ops are host seconds.
	completionS float64
	ops         []float64 // seconds per operation
	trafficB    int64
	storedRatio float64

	// Round 1 of snapshot-herd on its own, for the Fig. 5 anchor.
	round1MeanS, round1CompletionS float64

	attempted, failed int
	// layer holds the per-layer counts of the rep, keyed by metric name.
	layer map[string]float64
}

// quantile returns the q-quantile of xs by nearest rank; xs need not be
// sorted. Nearest rank returns a measured value, so modelled quantiles
// repeat exactly.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// median is the conventional median (mean of the middle two for even n),
// used for host timings across reps.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
