package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// epoch anchors the benchmark clock; now reads it through the monotonic
// clock, which every core of the host agrees on.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// spinUntil busy-waits until the benchmark clock reaches t: the handlers'
// fixed work, so a handler's cost does not depend on the scheduler.
func spinUntil(t int64) {
	for now() < t {
	}
}

const rusageThread = 1 // RUSAGE_THREAD

// cpuNanos returns the user+sys CPU time of the process (who =
// syscall.RUSAGE_SELF) or of the calling OS thread (rusageThread).
func cpuNanos(who int) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)
}

// meter measures the process across one measured interval: wall time,
// CPU, heap allocations and GC work over the whole interval, and per
// window the sample counts and peak in-use heap, so that latency and peak
// heap can be computed per window (see windowed).
type meter struct {
	b     *bench
	wall0 int64
	cpu0  int64
	ms0   runtime.MemStats
	gc0   gcSample

	mu    sync.Mutex
	peak  uint64 // peak heap since the last mark
	marks []mark

	stopped chan struct{}
	wg      sync.WaitGroup
}

// mark is the state at a window boundary, and the peak heap of the window
// it closes.
type mark struct {
	t             int64
	dispatch, rtt int64
	peak          uint64
}

// windowNs is the length of a time window. Workloads that measure in
// batches (flood) mark a window per batch instead.
const windowNs = int64(250 * time.Millisecond)

type gcSample struct{ gcCPU, totalCPU float64 }

var gcMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetrics))
	copy(s, gcMetrics)
	metrics.Read(s)
	return gcSample{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}

// heapPollEvery is how often the meter samples in-use heap for its peak.
const heapPollEvery = 5 * time.Millisecond

// startMeter starts measuring. With timeWindows, the meter closes a window
// every windowNs; otherwise the caller closes each with markWindow.
func startMeter(b *bench, timeWindows bool) *meter {
	m := &meter{b: b, stopped: make(chan struct{})}
	runtime.ReadMemStats(&m.ms0)
	m.gc0 = readGC()
	m.cpu0 = cpuNanos(syscall.RUSAGE_SELF)
	m.wall0 = now()
	m.markWindow()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(heapPollEvery)
		defer t.Stop()
		next := m.wall0 + windowNs
		for {
			metrics.Read(s)
			m.mu.Lock()
			m.peak = max(m.peak, s[0].Value.Uint64())
			m.mu.Unlock()
			if timeWindows && now() >= next {
				m.markWindow()
				next += windowNs
			}
			select {
			case <-m.stopped:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// markWindow closes the current window.
func (m *meter) markWindow() {
	b := m.b
	mk := mark{t: now(), dispatch: b.s.dispatch.n.Load(), rtt: b.s.rtt.n.Load()}
	m.mu.Lock()
	mk.peak, m.peak = m.peak, 0
	m.marks = append(m.marks, mk)
	m.mu.Unlock()
}

// usage is what a meter measured over its interval.
type usage struct {
	wallNs, cpuNs   int64
	allocs, bytes   uint64
	gcCycles        uint32
	gcCPU, totalCPU float64 // runtime's estimates, seconds
	marks           []mark  // window boundaries; only whole windows
}

func (m *meter) stop() usage {
	u := usage{wallNs: now() - m.wall0, cpuNs: cpuNanos(syscall.RUSAGE_SELF) - m.cpu0}
	close(m.stopped)
	m.wg.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := readGC()
	u.allocs = ms.Mallocs - m.ms0.Mallocs
	u.bytes = ms.TotalAlloc - m.ms0.TotalAlloc
	u.gcCycles = ms.NumGC - m.ms0.NumGC
	u.gcCPU = gc.gcCPU - m.gc0.gcCPU
	u.totalCPU = gc.totalCPU - m.gc0.totalCPU
	m.mu.Lock()
	u.marks = m.marks
	m.mu.Unlock()
	return u
}

// windowed applies f to each whole window of u (its pair of boundary
// marks) and returns the values.
func (u usage) windowed(f func(a, b mark) float64) []float64 {
	var xs []float64
	for i := 1; i < len(u.marks); i++ {
		xs = append(xs, f(u.marks[i-1], u.marks[i]))
	}
	return xs
}
