package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"pdq"
)

// flood: closed batches. One producer enqueues floodBatch messages as
// fast as admission (a bounded queue) allows into a sharded queue served
// by nproc batched workers, then waits for the last one to complete. The
// handlers are short, so the core op does nearly all the work.
const (
	floodBatch       = 1 << 15 // messages per batch: the stated message count
	floodKeys        = 1024
	floodWork        = 200 // handler spin, ns
	floodWorkerBatch = 16
	floodCap         = 4096 // queue capacity: admission blocks the producer beyond it
	batchTimeout     = 60 * time.Second
)

var floodMix = mix{keys: floodKeys, twoKey: 0.10, seqOneIn: 200}

type flood struct {
	*bench
	g       *gen
	ord     *ordinals
	recs    []rec
	nextID  uint64
	handler func(any)
	procs   int

	q    *pdq.Queue
	pool *pdq.Pool
	own  *workerSet // traced runs: the benchmark's copy of the worker loop
	st0  pdq.Stats  // queue counters at the start of the traced phase

	pending atomic.Int64 // messages of the current batch not yet completed
	done    chan struct{}
}

func runFlood(o opts) (*report, error) {
	f := &flood{
		bench: newBench(o, floodKeys, 1, floodWork),
		g:     newGen(o.seed, floodMix),
		ord:   newOrdinals(floodKeys, 1),
		recs:  make([]rec, floodBatch),
		procs: runtime.NumCPU(),
		done:  make(chan struct{}, 1),
	}
	f.handler = func(d any) {
		r := d.(*rec)
		f.handle(r)
		if f.pending.Add(-1) == 0 {
			f.done <- struct{}{}
		}
	}
	// Flood keeps both CPUs busy, so a host stall slows it wherever it
	// falls, and within a batch completions come in bursts of worker
	// batches while the producer waits for room. Every message of a batch
	// is due at its start, so a stall also delays every message behind
	// it. A throughput block is one batch, and the run reports its
	// quieter batches: the 90th percentile of their rates and the 10th of
	// their p50 latencies.
	f.block, f.tputQ, f.latQ = floodBatch, 0.9, 0.1
	return runWorkload(f.bench, f, map[string]any{"batch_msgs": floodBatch})
}

func (f *flood) startTrace() { f.st0 = f.q.Stats() }

func (f *flood) layers(rep *report, p, untraced phase) {
	f.perLayer(rep, p, untraced, pdqDelta(f.st0, f.q.Stats()), f.procs, 1)
}

// build makes the queue and its workers and warms them with one batch.
func (f *flood) build() error {
	f.q = pdq.New(pdq.WithShards(0), pdq.WithCapacity(floodCap))
	if f.o.trace {
		f.own = startWorkers(f.procs, func(ctx context.Context) {
			f.batchWorker(ctx, f.q, floodWorkerBatch)
		})
	} else {
		f.pool = pdq.Serve(context.Background(), f.q, f.procs, pdq.WithWorkerBatch(floodWorkerBatch))
	}
	return f.batch(phaseWarm)
}

func (f *flood) teardown() {
	if f.pool != nil {
		f.pool.Stop()
		f.pool.Wait()
		f.pool = nil
	}
	if f.own != nil {
		f.own.stop()
		f.own = nil
	}
	f.q.Close()
}

// measure runs whole batches until seconds have passed; each batch is one
// measurement window.
func (f *flood) measure(ph uint8, seconds float64) (phase, error) {
	f.resetPhase()
	lockGenerator()
	defer runtime.UnlockOSThread()
	gen0 := cpuNanos(rusageThread)
	m := startMeter(f.bench, false)
	deadline := now() + int64(seconds*1e9)
	for batches := 0; batches == 0 || now() < deadline; batches++ {
		if err := f.batch(ph); err != nil {
			m.stop()
			return phase{}, err
		}
		m.markWindow()
	}
	u := m.stop()
	msgs := f.completed.Load()
	return phase{msgs: msgs, tput: f.blockTput(u, msgs), u: u, genCPU: cpuNanos(rusageThread) - gen0}, nil
}

// batch sends one batch and waits for its last handler to complete.
func (f *flood) batch(ph uint8) error {
	tr := ph == phaseTraced
	f.pending.Store(floodBatch)
	prev := now()
	// A closed batch is submitted as a whole: every message of the batch
	// is due when the batch starts, so dispatch latency is the time until
	// the system gets to it (admission included), not how far ahead the
	// producer happens to run.
	due := prev
	for i := range f.recs {
		r := &f.recs[i]
		f.nextID++
		r.reset(f.nextID, 0, f.g.next(), ph)
		f.ord.assign(r)
		m := pdq.Message{Handler: f.handler, Data: r}
		if r.spec.seq {
			m.Mode = pdq.ModeSequential
		} else {
			m.Keys = r.keySlice()
		}
		var sid uint32
		if tr {
			sid = f.log.open()
		}
		t := now()
		r.due = due
		err := f.q.EnqueueMessageWait(context.Background(), m)
		ret := now()
		if ph != phaseWarm {
			f.attempted.Add(1)
			f.s.late.add(t - prev) // closed loop: since the sender was free
			f.sendNs.Add(ret - t)
		}
		if err != nil {
			if ph != phaseWarm {
				f.failOp("enqueue message %d: %v", r.id, err)
			}
			r.runs.Store(1) // never ran; keep the exactly-once check quiet
			if f.pending.Add(-1) == 0 {
				f.done <- struct{}{}
			}
			continue
		}
		if tr {
			r.enqRet.Store(ret)
			f.s.enqueue.add(ret - t)
			f.log.close(sid, spanEnqueue, r.id, 0, t, ret)
		}
		prev = ret
	}
	select {
	case <-f.done:
	case <-time.After(batchTimeout):
		return fmt.Errorf("batch stalled: %d of %d messages never completed", f.pending.Load(), floodBatch)
	}
	for i := range f.recs {
		f.chk.settled(&f.recs[i])
	}
	return nil
}
