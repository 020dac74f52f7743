package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank method,
// sorting xs in place. A failed session enters as +Inf, so it counts as
// missing every latency limit. NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is the middle of xs, or the mean of the middle two, leaving xs
// in its order. NaN when xs is empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch n := len(s); {
	case n == 0:
		return math.NaN()
	case n%2 == 0:
		return (s[n/2-1] + s[n/2]) / 2
	default:
		return s[n/2]
	}
}

// ratio returns hits/(hits+misses), or NaN when nothing was counted.
func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return math.NaN()
	}
	return float64(hits) / float64(hits+misses)
}

// perSession divides a count by a session count, NaN for no sessions.
func perSession(n uint64, sessions int) float64 {
	if sessions == 0 {
		return math.NaN()
	}
	return float64(n) / float64(sessions)
}

// us and ms convert durations to float microseconds and milliseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memStats reads the runtime's allocation counters.
func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// settledHeap is the live heap after two forced collections.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return memStats().HeapAlloc
}
