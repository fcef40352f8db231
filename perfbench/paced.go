package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"pdq"
)

// paced: an open loop. One producer sends on a fixed schedule of
// pacedRate messages per second into the same sharded queue as flood,
// served by nproc per-entry workers (the RunNext chain handoff). Workers
// park and wake on arrivals, so latency is made of wake-up, intake, the
// scheduler's band and timer paths, and chain handoff. Each message is
// timed from its due time: its slot in the schedule plus any intentional
// delay.
//
// Messages arrive in groups of pacedBurst sharing one due time. The
// generator sleeps between groups on its own thread; a sleep and wake-up
// costs a few microseconds of CPU on a virtual machine, so waking once per
// message would spend more CPU on pacing than the queue spends on the
// message and leave the host too little headroom to keep the schedule.
const (
	pacedRate  = 100_000
	pacedBurst = 4 // messages per arrival group
	pacedKeys  = 256
	pacedWork  = 1000 // handler spin, ns
	pacedDelay = time.Millisecond
	pacedTTL   = 30 * time.Second
	pacedWarm  = 300 * time.Millisecond
	pacedRing  = 1 << 16 // records: 0.65 s of schedule
	drainWait  = 30 * time.Second
	paceSpin   = 8000 // ns the pacer spins, rather than sleeps, before a due time
	pacedBlock = 512  // completions per throughput block: ~5 ms of schedule
)

var pacedMix = mix{keys: pacedKeys, bands: true, delayFrac: 0.05}

type paced struct {
	*bench
	g       *gen
	ord     *ordinals
	ring    *recRing
	nextID  uint64
	handler func(any)
	procs   int

	q    *pdq.Queue
	pool *pdq.Pool
	own  *workerSet
	st0  pdq.Stats

	sent int64        // messages admitted in the current phase
	dead atomic.Int64 // messages dead-lettered
}

func runPaced(o opts) (*report, error) {
	p := &paced{
		bench: newBench(o, pacedKeys, 1, pacedWork),
		g:     newGen(o.seed, pacedMix),
		ord:   newOrdinals(pacedKeys, 1),
		ring:  newRecRing(pacedRing),
		procs: runtime.NumCPU(),
	}
	p.handler = func(d any) { p.handle(d.(*rec)) }
	// An open loop that a host stall has put behind its schedule stays
	// behind until the backlog drains, for seconds at a time when the
	// host stays busy. Its quieter windows show the program, so the run
	// reports the 10th percentile of its windows' p50 latencies.
	p.latQ = 0.1
	p.block = pacedBlock
	return runWorkload(p.bench, p, map[string]any{"rate_msgs_per_s": pacedRate, "group_msgs": pacedBurst})
}

func (p *paced) startTrace() { p.st0 = p.q.Stats() }

func (p *paced) layers(rep *report, traced, untraced phase) {
	p.perLayer(rep, traced, untraced, pdqDelta(p.st0, p.q.Stats()), p.procs, 1)
	// The rate is fixed, so tracing costs CPU, not throughput.
	rep.set("trace.overhead_frac", 1-ratio(cpuPerMsg(untraced), cpuPerMsg(traced)))
}

func cpuPerMsg(p phase) float64 { return ratio(float64(p.u.cpuNs), float64(p.msgs)) }

func (p *paced) build() error {
	p.q = pdq.New(pdq.WithShards(0), pdq.WithDeadLetter(p.deadLetter))
	if p.o.trace {
		p.own = startWorkers(p.procs, func(ctx context.Context) {
			p.entryWorker(ctx, func(ctx context.Context) (*pdq.Queue, *pdq.Entry, error) {
				e, err := p.q.DequeueContext(ctx)
				return p.q, e, err
			}, func(d any) *rec { return d.(*rec) })
		})
	} else {
		p.pool = pdq.Serve(context.Background(), p.q, p.procs)
	}
	_, err := p.drive(phaseWarm, pacedWarm)
	return err
}

func (p *paced) teardown() {
	if p.pool != nil {
		p.pool.Stop()
		p.pool.Wait()
		p.pool = nil
	}
	if p.own != nil {
		p.own.stop()
		p.own = nil
	}
	p.q.Close()
}

// deadLetter receives messages the queue gave up on (expired): each one
// is a failed operation.
func (p *paced) deadLetter(m pdq.Message, err error) {
	r := m.Data.(*rec)
	if r.phase != phaseWarm {
		p.failOp("message %d dead-lettered: %v", r.id, err)
	}
	p.dead.Add(1)
	r.state.Store(recDead)
}

func (p *paced) measure(ph uint8, seconds float64) (phase, error) {
	p.resetPhase()
	m := startMeter(p.bench, true)
	genCPU, err := p.drive(ph, time.Duration(seconds*1e9))
	u := m.stop()
	if err != nil {
		return phase{}, err
	}
	msgs := p.completed.Load()
	return phase{msgs: msgs, tput: p.blockTput(u, msgs), u: u, genCPU: genCPU}, nil
}

// drive sends the schedule for dur, then waits until every message sent
// has completed or been dead-lettered. A generator that fell behind stops
// at the end of dur all the same and leaves the rest of the schedule
// unsent, so a run that falls behind still ends on time. It returns the
// generator thread's CPU time.
func (p *paced) drive(ph uint8, dur time.Duration) (int64, error) {
	lockGenerator()
	defer runtime.UnlockOSThread()
	setTimerSlack()
	cpu0 := cpuNanos(rusageThread)
	tr := ph == phaseTraced
	interval := int64(time.Second) * pacedBurst / pacedRate // between groups
	count := int64(dur) / interval * pacedBurst
	start := now() + interval
	p.sent = 0
	done0 := p.handled.Load() + p.dead.Load()
	end := start + int64(dur)
	for i := int64(0); i < count && now() < end; i++ {
		due := start + i/pacedBurst*interval
		pace(due)
		p.nextID++
		r, err := p.ring.take(p.nextID, p.chk)
		if err != nil {
			return 0, err
		}
		r.reset(p.nextID, 0, p.g.next(), ph)
		p.ord.assign(r)
		m := pdq.Message{Keys: r.keySlice(), Handler: p.handler, Data: r, Priority: r.spec.band}
		r.due = due
		if r.spec.delayed {
			r.due = due + int64(pacedDelay)
			m.NotBefore = epoch.Add(time.Duration(r.due))
		}
		var sid uint32
		if tr {
			sid = p.log.open()
		}
		t := now()
		m.Deadline = epoch.Add(time.Duration(t) + pacedTTL)
		err = p.q.EnqueueMessage(m)
		ret := now()
		if ph != phaseWarm {
			p.attempted.Add(1)
			p.s.late.add(t - due)
			p.sendNs.Add(ret - t)
		}
		if err != nil {
			if ph != phaseWarm {
				p.failOp("enqueue message %d: %v", r.id, err)
			}
			r.runs.Store(1)
			r.state.Store(recDone)
			continue
		}
		p.sent++
		if tr {
			r.enqRet.Store(ret)
			p.s.enqueue.add(ret - t)
			p.log.close(sid, spanEnqueue, r.id, 0, t, ret)
		}
	}
	cpu := cpuNanos(rusageThread) - cpu0
	deadline := now() + int64(drainWait)
	for {
		done := p.handled.Load() + p.dead.Load() - done0
		if done >= p.sent {
			break
		}
		if now() > deadline {
			return 0, fmt.Errorf("%d of %d messages still pending after %v", p.sent-done, p.sent, drainWait)
		}
		time.Sleep(time.Millisecond)
	}
	p.ring.settleAll(p.chk)
	return cpu, nil
}

// setTimerSlack asks the kernel to wake the calling thread's sleeps
// without the default 50 µs slack, so the pacer can keep a 10 µs
// schedule. Best effort: without it the generator runs later, which
// gen.late_* reports.
func setTimerSlack() {
	const prSetTimerSlack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// pace sleeps (nanosleep on the locked thread) until shortly before due,
// then spins to it: a wake-up overshoots by several microseconds, which
// would otherwise land in every message's lateness.
func pace(due int64) {
	for {
		d := due - now()
		if d <= 0 {
			return
		}
		if d > paceSpin {
			ts := syscall.NsecToTimespec(d - paceSpin)
			syscall.Nanosleep(&ts, nil)
		}
	}
}
