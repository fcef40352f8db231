package main

import (
	"math"
	"slices"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// sampleCap bounds the samples one series keeps. A series lives in an
// anonymous mapping outside the Go heap, so keeping every sample of a run
// neither allocates on the heap nor shows in allocs_per_msg or
// peak_heap_mb; only the pages actually written take memory.
const sampleCap = 1 << 24

// series collects exact duration samples (nanoseconds, saturating at
// ~4.29 s) from any number of goroutines. Samples past sampleCap are not
// kept.
type series struct {
	buf []uint32
	n   atomic.Int64
}

func newSeries() *series { return &series{buf: mapped[uint32](sampleCap)} }

// mapped returns a buffer of n values in an anonymous mapping outside the
// Go heap.
func mapped[T uint32 | int64](n int) []T {
	size := int(unsafe.Sizeof(T(0)))
	b, err := syscall.Mmap(-1, 0, n*size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		// No anonymous mappings: keep a small heap buffer instead.
		return make([]T, min(n, 1<<20))
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// add records one sample of ns nanoseconds; negative values count as 0.
func (s *series) add(ns int64) {
	i := s.n.Add(1) - 1
	if i >= int64(len(s.buf)) {
		return
	}
	switch {
	case ns < 0:
		ns = 0
	case ns > math.MaxUint32:
		ns = math.MaxUint32
	}
	s.buf[i] = uint32(ns)
}

// values returns the kept samples (aliasing the series' buffer).
func (s *series) values() []uint32 {
	n := s.n.Load()
	if n > int64(len(s.buf)) {
		n = int64(len(s.buf))
	}
	return s.buf[:n]
}

// reset forgets every sample. It must not race with add.
func (s *series) reset() {
	s.n.Store(0)
}

// stampCap bounds the times one stamps log keeps.
const stampCap = 1 << 20

// stamps collects times on the benchmark clock from any number of
// goroutines. Like a series it lives outside the Go heap, and times past
// stampCap are not kept.
type stamps struct {
	buf []int64
	n   atomic.Int64
}

func newStamps() *stamps { return &stamps{buf: mapped[int64](stampCap)} }

// add records the time t.
func (s *stamps) add(t int64) {
	if i := s.n.Add(1) - 1; i < int64(len(s.buf)) {
		s.buf[i] = t
	}
}

// values returns the kept times (aliasing the log's buffer).
func (s *stamps) values() []int64 { return s.buf[:min(s.n.Load(), int64(len(s.buf)))] }

// reset forgets every time. It must not race with add.
func (s *stamps) reset() { s.n.Store(0) }

// quantiles are exact order statistics of one series, in nanoseconds.
type quantiles struct {
	p50, p99 float64
	count    int
}

// summarize sorts the series in place and returns its exact median and
// 99th percentile (nearest rank).
func (s *series) summarize() quantiles {
	v := s.values()
	slices.Sort(v)
	return quantiles{p50: rank(v, 0.50), p99: rank(v, 0.99), count: len(v)}
}

// window sorts the samples with indexes [from, to) in place and returns
// their exact median and 99th percentile.
func (s *series) window(from, to int64) quantiles {
	v := s.values()
	to = min(to, int64(len(v)))
	from = min(from, to)
	w := v[from:to]
	slices.Sort(w)
	return quantiles{p50: rank(w, 0.50), p99: rank(w, 0.99), count: len(w)}
}

// rank returns the nearest-rank q-quantile of sorted: the smallest sample
// with at least a q share of the samples at or below it. 0 when empty.
func rank(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// ratio returns num/den, or 0 when the base is empty. Every ratio the
// benchmark reports is printed with its base in the detail line.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile returns the nearest-rank q-quantile of xs, or 0 when empty.
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

// median returns the median of xs (the mean of the middle pair when the
// count is even), or 0 when empty. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
