package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// now is the benchmark's only wall-clock read. The program under test must
// not read the clock on its hot paths (srb-lint's wallclock check); the
// benchmark is the one place where reading it is the point.
func now() time.Time {
	return time.Now() //lint:allow wallclock the benchmark measures elapsed time from outside the program
}

// cpuNanos returns the user+system CPU time the process has used so far.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// mallocs returns the exact number of heap objects allocated so far. It stops
// the world, so it is only called at window boundaries.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapAfterGC collects garbage and returns the live heap in bytes.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// spread returns the interquartile range of xs as a share of their median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// percentileNs returns the q-quantile of pooled nanosecond samples in
// microseconds. It sorts samples in place.
func percentileNs(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pos := q * float64(len(samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := float64(samples[lo]) + float64(samples[hi]-samples[lo])*(pos-float64(lo))
	return v / 1e3
}

// splitmix derives an independent 63-bit seed from a seed and a stream index.
func splitmix(seed int64, stream uint64) int64 {
	x := uint64(seed) + (stream+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// calibrate times a fixed pure-CPU kernel (integer mixing, no memory traffic)
// and returns the fastest of five runs in nanoseconds. It moves only when the
// machine does, which tells a noisy set of runs from a changed program.
func calibrate() float64 {
	best := math.MaxFloat64
	var sink uint64
	for r := 0; r < 5; r++ {
		t0 := now()
		x := uint64(r) + 1
		for i := 0; i < 2_000_000; i++ {
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			x *= 0x94d049bb133111eb
			x += uint64(i)
		}
		sink += x
		if d := float64(now().Sub(t0).Nanoseconds()); d < best {
			best = d
		}
	}
	if sink == 42 {
		best++ // keeps the kernel's result live
	}
	return best
}
