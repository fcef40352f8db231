package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"pdq"
)

// setupRuns is how many times a run builds and warms its system. setup_s
// is the median of their times; the last build is the one measured.
const setupRuns = 9

// Message phases: warm-up messages feed no metric.
const (
	phaseWarm uint8 = iota
	phaseMeasure
	phaseTraced
)

// layerSeries holds every exact sample series a run may fill.
type layerSeries struct {
	dispatch, rtt, late                   *series
	band                                  [pdq.NumPriorities]*series
	enqueue, dequeue, complete, queueWait *series
	serve, net, ingest                    *series
	clEnqueue, recv                       *series
	blocks                                *stamps // the end of every block-th completion
}

func newLayerSeries() *layerSeries {
	s := &layerSeries{blocks: newStamps()}
	for _, p := range []**series{&s.dispatch, &s.rtt, &s.late, &s.enqueue, &s.dequeue,
		&s.complete, &s.queueWait, &s.serve, &s.net, &s.ingest, &s.clEnqueue, &s.recv} {
		*p = newSeries()
	}
	for i := range s.band {
		s.band[i] = newSeries()
	}
	return s
}

func (s *layerSeries) reset() {
	for _, x := range []*series{s.dispatch, s.rtt, s.late, s.enqueue, s.dequeue,
		s.complete, s.queueWait, s.serve, s.net, s.ingest, s.clEnqueue, s.recv} {
		x.reset()
	}
	for _, x := range s.band {
		x.reset()
	}
	s.blocks.reset()
}

// bench is the state every workload shares: the checker, the sample
// series, the trace log and the counters the handler path maintains.
type bench struct {
	o    opts
	chk  *checker
	s    *layerSeries
	log  *spanLog // nil until the traced phase
	work int64    // handler spin, ns

	// rttAtClient: the workload's client times the round trip itself
	// (http); otherwise rtt runs from due time to handler end.
	rttAtClient bool

	// How the end-to-end figures are read off a run (see endToEnd):
	// completions per throughput block, the quantile reported over the
	// blocks' rates, and the quantile over the run's windows of each
	// window's exact p50 latency.
	block       int64
	tputQ, latQ float64

	tracing   atomic.Bool  // the traced phase is on
	attempted atomic.Int64 // operations sent in measured phases
	opFailed  atomic.Int64 // of those, failed or refused by the program
	mu        sync.Mutex
	opFirst   string // the first failure's description

	completed atomic.Int64 // handler runs in measured phases
	handled   atomic.Int64 // handler runs in every phase, warm-up included
	handlerNs atomic.Int64 // traced: time inside handlers
	dequeueNs atomic.Int64 // traced: time inside dequeue calls
	sendNs    atomic.Int64 // time the generator spent inside send calls
}

func newBench(o opts, nkeys, streams int, work int64) *bench {
	return &bench{o: o, chk: newChecker(nkeys, streams), s: newLayerSeries(), work: work,
		block: 64, tputQ: 0.5, latQ: 0.5}
}

// failOp counts one failed or refused operation.
func (b *bench) failOp(format string, args ...any) {
	if b.opFailed.Add(1) == 1 {
		b.mu.Lock()
		b.opFirst = fmt.Sprintf(format, args...)
		b.mu.Unlock()
	}
}

// system is one workload's system under test, as runWorkload drives it.
type system interface {
	build() error // build and warm up
	teardown()
	measure(ph uint8, seconds float64) (phase, error)
	startTrace()                                // snapshot counters for the traced phase
	layers(rep *report, traced, untraced phase) // per-layer metrics of the traced phase
}

// runWorkload sets s up, measures it untraced (--trace 0) or untraced and
// then traced (--trace 1), and reports what it measured and checked.
func runWorkload(b *bench, s system, detail map[string]any) (*report, error) {
	setup, err := setupMedian(s.build, s.teardown)
	if err != nil {
		return nil, err
	}
	defer s.teardown()
	rep := &report{metrics: map[string]metric{}, detail: detail}
	if !b.o.trace {
		p, err := s.measure(phaseMeasure, b.o.seconds)
		if err != nil {
			return nil, err
		}
		b.endToEnd(rep, p, setup)
	} else {
		untraced, err := s.measure(phaseMeasure, b.o.seconds/2)
		if err != nil {
			return nil, err
		}
		b.log = newSpanLog()
		s.startTrace()
		b.tracing.Store(true)
		p, err := s.measure(phaseTraced, b.o.seconds/2)
		b.tracing.Store(false)
		if err != nil {
			return nil, err
		}
		s.layers(rep, p, untraced)
		spans := b.log.spans()
		self := map[string]int64{}
		for k, ns := range selfTime(spans) {
			self[spanNames[k]] = ns
		}
		rep.detail["span_self_ns"] = self
		path, err := writeSpans(spans, b.o.outDir, fmt.Sprintf("perfbench-trace/%s-%d.jsonl", b.o.workload, b.o.seed))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			rep.detail["spans"] = path
		}
	}
	b.mu.Lock()
	first := b.opFirst
	b.mu.Unlock()
	rep.attempted = b.attempted.Load()
	rep.fail(b.opFailed.Load(), "%s", first)
	rep.fail(b.chk.violations.Load(), "%s", b.chk.firstViolation())
	return rep, nil
}

// handle is every workload's handler body: check, spin for the
// workload's fixed work, check, and record the message's latencies.
func (b *bench) handle(r *rec) {
	st := now()
	r.start = st
	b.chk.begin(r)
	if b.work > 0 {
		spinUntil(st + b.work)
	}
	b.chk.end(r)
	en := now()
	r.end = en
	b.handled.Add(1)
	defer r.state.Store(recDone)
	if r.phase == phaseWarm {
		return
	}
	b.s.dispatch.add(st - r.due)
	if !b.rttAtClient {
		b.s.rtt.add(en - r.due)
	}
	if r.phase == phaseTraced {
		b.s.band[r.spec.band].add(st - r.due)
		// A handler that starts before its send call returned waited 0.
		var wait int64
		if ret := r.enqRet.Load(); ret != 0 {
			wait = st - ret
		}
		b.s.queueWait.add(wait)
		b.handlerNs.Add(en - st)
		b.log.record(spanHandler, r.id, r.span, st, en)
	}
	if b.completed.Add(1)%b.block == 0 {
		b.s.blocks.add(en)
	}
}

// resetPhase clears the per-phase counters and series.
func (b *bench) resetPhase() {
	b.s.reset()
	b.completed.Store(0)
	b.handlerNs.Store(0)
	b.dequeueNs.Store(0)
	b.sendNs.Store(0)
}

// batchWorker is Pool.worker's batched loop (DequeueBatch + RunBatch),
// rewritten on the same public calls so the traced run can time them.
func (b *bench) batchWorker(ctx context.Context, q *pdq.Queue, max int) {
	recs := make([]*rec, 0, max)
	for {
		if !b.tracing.Load() {
			es, err := q.DequeueBatch(ctx, max)
			if err != nil {
				return
			}
			q.RunBatch(es)
			continue
		}
		t0 := now()
		did := b.log.open()
		es, err := q.DequeueBatch(ctx, max)
		if err != nil {
			return
		}
		t1 := now()
		b.s.dequeue.add(t1 - t0)
		b.dequeueNs.Add(t1 - t0)
		b.log.close(did, spanDequeue, 0, 0, t0, t1)
		rid := b.log.open()
		recs = recs[:0]
		for _, e := range es {
			r := e.Message().Data.(*rec)
			r.span = rid
			recs = append(recs, r)
		}
		t2 := now()
		q.RunBatch(es)
		t3 := now()
		var h int64
		for _, r := range recs {
			h += r.end - r.start
		}
		b.s.complete.add((t3 - t2 - h) / int64(len(recs)))
		b.log.close(rid, spanRun, 0, 0, t2, t3)
	}
}

// entryWorker is Pool.worker's per-entry loop (DequeueContext + the
// RunNext chain handoff), rewritten on the same public calls so the
// traced run can time them. dequeue is Queue.DequeueContext or
// Mux.DequeueContext; recOf maps an entry's Data to its record.
func (b *bench) entryWorker(ctx context.Context, dequeue func(context.Context) (*pdq.Queue, *pdq.Entry, error),
	recOf func(any) *rec) {
	for {
		tr := b.tracing.Load()
		var t0 int64
		var did uint32
		if tr {
			t0 = now()
			did = b.log.open()
		}
		q, e, err := dequeue(ctx)
		if err != nil {
			return
		}
		if tr {
			t1 := now()
			b.s.dequeue.add(t1 - t0)
			b.dequeueNs.Add(t1 - t0)
			b.log.close(did, spanDequeue, 0, 0, t0, t1)
		}
		for {
			if ctx.Err() != nil {
				q.Run(e)
				break
			}
			var r *rec
			if tr {
				r = recOf(e.Message().Data)
			}
			if r == nil { // untraced, or not a benchmark message
				next, ok, _ := q.RunNext(e)
				if !ok {
					break
				}
				e = next
				continue
			}
			rid := b.log.open()
			r.span = rid
			t2 := now()
			next, ok, _ := q.RunNext(e)
			t3 := now()
			b.s.complete.add(t3 - t2 - (r.end - r.start))
			b.log.close(rid, spanRun, r.id, 0, t2, t3)
			if !ok {
				break
			}
			e = next
		}
	}
}

// workerSet runs the benchmark's own worker goroutines for traced runs.
type workerSet struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startWorkers(n int, loop func(ctx context.Context)) *workerSet {
	ctx, cancel := context.WithCancel(context.Background())
	w := &workerSet{cancel: cancel}
	for i := 0; i < n; i++ {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			loop(ctx)
		}()
	}
	return w
}

func (w *workerSet) stop() {
	w.cancel()
	w.wg.Wait()
}

// lockGenerator pins the calling goroutine to its OS thread, so the
// generator's own CPU can be read with RUSAGE_THREAD. The caller must
// runtime.UnlockOSThread when done.
func lockGenerator() { runtime.LockOSThread() }

// setupMedian builds (and warms) a workload's system setupRuns times,
// tearing down all but the last, and returns the median build time in
// seconds. A failed build aborts the run.
func setupMedian(build func() error, teardown func()) (float64, error) {
	var ts []float64
	for i := 0; i < setupRuns; i++ {
		t := now()
		if err := build(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, float64(now()-t)/1e9)
		if i < setupRuns-1 {
			teardown()
			runtime.GC()
		}
	}
	return median(ts), nil
}

// phase is one measured interval's outcome.
type phase struct {
	msgs   int64   // messages whose handler completed
	tput   float64 // completions per second (blockTput)
	u      usage
	genCPU int64 // generator threads' CPU, ns
}

// pdqDelta returns the counters of b minus those of an earlier snapshot a.
// Gauges and high-water marks (the int fields, such as MaxPending) keep
// b's value.
func pdqDelta(a, b pdq.Stats) pdq.Stats { return pdqCombine(a, b, true) }

// pdqSum adds several queues' counters; int fields take the maximum.
func pdqSum(ss ...pdq.Stats) pdq.Stats {
	var t pdq.Stats
	for _, s := range ss {
		t = pdqCombine(t, s, false)
	}
	return t
}

func pdqCombine(a, b pdq.Stats, sub bool) pdq.Stats {
	out := b
	va, vo := reflect.ValueOf(a), reflect.ValueOf(&out).Elem()
	for i := 0; i < vo.NumField(); i++ {
		f, x := vo.Field(i), va.Field(i)
		switch {
		case f.Kind() == reflect.Uint64 && sub:
			f.SetUint(f.Uint() - x.Uint())
		case f.Kind() == reflect.Uint64:
			f.SetUint(f.Uint() + x.Uint())
		case f.Kind() == reflect.Int && !sub:
			f.SetInt(max(f.Int(), x.Int()))
		}
	}
	return out
}
