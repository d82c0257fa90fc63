package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between closest ranks. xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time over all threads,
// GC workers included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeStats reads the Go runtime counters the benchmark reports.
type runtimeStats struct {
	allocBytes uint64  // cumulative heap bytes allocated
	liveBytes  uint64  // live heap after the last completed GC
	gcCPU      float64 // cumulative estimated GC CPU seconds
	gcCycles   uint64  // completed GC cycles
}

type runtimeReader struct{ s []metrics.Sample }

func newRuntimeReader() *runtimeReader {
	return &runtimeReader{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}}
}

func (r *runtimeReader) read() runtimeStats {
	metrics.Read(r.s)
	return runtimeStats{
		allocBytes: r.s[0].Value.Uint64(),
		liveBytes:  r.s[1].Value.Uint64(),
		gcCPU:      r.s[2].Value.Float64(),
		gcCycles:   r.s[3].Value.Uint64(),
	}
}
