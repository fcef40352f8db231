package pdq

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"time"
	"unsafe"
)

// Batched dispatch amortizes the per-entry dispatch cost — a shard lock
// acquire/release, an eventcount round trip, and a claim-queue walk per
// entry — across a whole run of compatible entries: one harvest takes a
// shard's lock once and collects up to max dispatchable entries, and one
// blocking dequeue performs a single eventcount interaction for all of
// them. The paper's economics (dispatch-time synchronization only wins
// while the dispatch mechanism costs less than the handlers it orders)
// are what make this matter: with fine-grain handlers of a few hundred
// nanoseconds, per-entry locking is a constant tax batching removes.
//
// A batch is harvested in sequence order from a single shard's pending
// list, so executing its entries in slice order on one goroutine (see
// RunBatch) preserves exactly the dispatch order a per-entry consumer
// would have produced. Entries in the same batch may even share keys: an
// entry that fails the idle-key test only because an *earlier entry of
// the same batch* holds the key is still harvested, because in-batch
// order serializes the two on the executing goroutine. Outside the
// batch, those keys read as in flight until each entry is Completed or
// Released individually, so cross-consumer mutual exclusion and per-key
// enqueue-order FIFO are unchanged.

// TryDequeueBatch removes and returns up to max dispatchable entries from
// one shard in a single lock acquisition, or ok=false if nothing is
// currently dispatchable. The entries are in dispatch order: the caller
// must execute them in slice order (or hand the slice to RunBatch) and
// resolve each entry exactly once with Complete or Release. A pending
// sequential barrier bounds the harvest; an activated barrier is returned
// as a one-entry batch. max <= 1 harvests at most one entry.
func (q *Queue) TryDequeueBatch(max int) (es []*Entry, ok bool) {
	es, ok, _ = q.tryDequeueBatch(max)
	return es, ok
}

// DequeueBatch blocks until at least one entry is dispatchable, then
// returns a batch of up to max entries with a single eventcount
// interaction. It returns ErrClosed once the queue is closed and fully
// drained and ctx.Err() on cancellation. DequeueBatch(ctx, 1) behaves
// identically to DequeueContext (one entry per batch).
func (q *Queue) DequeueBatch(ctx context.Context, max int) ([]*Entry, error) {
	if max <= 1 {
		e, err := q.DequeueContext(ctx)
		if err != nil {
			return nil, err
		}
		return []*Entry{e}, nil
	}
	var out []*Entry
	err := q.blockDequeue(ctx, func() (ok, retry bool) {
		out, ok, retry = q.tryDequeueBatch(max)
		return ok, retry
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// tryDequeueBatch makes one batched dispatch attempt: the barrier first
// (an activated barrier is a batch of one), then the shards round-robin,
// harvesting from the first shard that yields anything. retry reports an
// inconclusive attempt (a TryLock loss), as in tryDequeue.
func (q *Queue) tryDequeueBatch(max int) (es []*Entry, ok, retry bool) {
	if max < 1 {
		max = 1 // a batched dequeue always means at least one entry
	}
	if q.bar.active.Load() {
		q.g.barrierStalls.Add(1)
		return nil, false, false
	}
	barPending := q.bar.minSeq.Load() != 0
	if barPending {
		if e, ok := q.tryActivateBarrier(); ok {
			return []*Entry{e}, true, false
		}
	}
	var start uint32
	if q.mask != 0 {
		start = q.rr.Add(1)
	}
	for i := uint32(0); i <= q.mask; i++ {
		s := &q.shards[(start+i)&q.mask]
		if s.npending.Load() == 0 {
			continue
		}
		es, r := q.harvestShard(s, max)
		if len(es) > 0 {
			return es, true, false
		}
		retry = retry || r
	}
	if barPending {
		q.g.seqStalls.Add(1)
	}
	return nil, false, retry
}

// harvestShard is the batched form of scanShard: one TryLock'd pass over
// s's pending bands collecting every dispatchable entry until max
// entries are harvested or the search window is exhausted. Ripe delayed
// entries mature first, bands are harvested in scheduling order
// (bandOrder — so a batch lists higher-band entries before lower), a
// pending sequential barrier's gate bounds each band, and expired
// entries are dropped to the dead-letter hook instead of harvested. The
// per-entry dispatch protocol is identical to scanShard's (inflightAll
// before unlink, claim pops under the lock); the batch additions are the
// in-batch key suppression described at the top of the file and, with
// WithCoalesce, the merging of identical-key runs into one entry.
func (q *Queue) harvestShard(s *shard, max int) (es []*Entry, retry bool) {
	if !s.mu.TryLock() {
		return nil, true
	}
	var expired []Message
	es, retry = q.harvestLocked(s, max, &expired)
	s.mu.Unlock()
	q.finishExpired(expired)
	return es, retry
}

// harvestLocked is harvestShard's body. Caller holds s.mu and must pass
// the expired messages to finishExpired after unlocking.
//
//pdq:crossshard — holds s.mu; batch dispatch reaches foreign shards.
func (q *Queue) harvestLocked(s *shard, max int, expired *[]Message) (es []*Entry, retry bool) {
	q.drainIntakeScan(s)
	// Read AFTER the drain, for the reason documented in scanLocked: the
	// gate load must be ordered after the drained entries' seq fetches.
	barSeq := q.bar.minSeq.Load()
	var now int64
	if s.timers.len() > 0 {
		now = nowNanos()
		s.matureRipe(now)
	}
	// acquired is the set of keys taken by earlier entries of this batch:
	// an in-flight conflict on one of these keys is not a conflict for a
	// later single-shard entry, because batch order serializes the two on
	// the executing goroutine. It starts in a stack buffer that covers
	// ordinary batches; only an unusually key-heavy one spills to the heap.
	var acqBuf [32]Key
	acquired := acqBuf[:0]
	// take hands the dispatched node itself to the batch — no copy: the
	// node returns to its pool when the entry is resolved. The result
	// slice is allocated at the first dispatch, sized to what the shard
	// can yield, so a gated or fully conflicted scan allocates nothing.
	take := func(n *Entry) *Entry {
		if es == nil {
			// n itself is already unlinked, hence the +1.
			c := int(s.npending.Load()) + 1
			if c > max {
				c = max
			}
			es = make([]*Entry, 0, c)
		}
		if t := s.tr; t != nil && n.msg.TraceID != 0 {
			t.record(s.idx, n.msg.TraceID, TraceHarvest, n.seq, int64(len(es)))
		}
		return n
	}
	windowHit := false
	msgs := 0 // messages harvested: entries plus coalesced merges
	order := s.bandOrder()
	for _, b := range order {
		if msgs >= max {
			break
		}
		// Per-band window budget, as in scanLocked: a conflicted higher
		// band must not starve the band holding the oldest dispatchable
		// entry of its search window.
		scanned := 0
		for n := s.bands[b].head; n != nil && msgs < max; {
			if q.window > 0 && scanned >= q.window {
				windowHit = true
				break
			}
			if barSeq != 0 && n.seq >= barSeq {
				// The band is seq-ascending: the rest of it is gated
				// behind the sequential barrier (other bands may still
				// hold earlier entries).
				break
			}
			scanned++
			next := n.next // capture: dispatch unlinks n
			if handled, r := q.expireIfDue(s, n, &now, expired); handled {
				retry = retry || r
				n = next
				continue
			}
			m := &n.msg
			switch {
			case m.Mode == ModeNoSync:
				q.inflightAll.Add(1)
				s.unlink(n)
				q.releaseSlot()
				s.stats.dispatched++
				s.stats.noSyncDispatched++
				s.creditDispatch(int(b), n, &now)
				msgs++
				es = append(es, take(n))
			case n.smask == 1<<s.idx:
				barge := m.Mode == ModeBarge
				kind := s.conflictBatch(q, m.Keys, n.seq, acquired, barge)
				if kind != conflictNone {
					s.countConflict(kind)
					break
				}
				q.inflightAll.Add(1)
				for _, k := range m.Keys {
					s.inflight[k]++
					if !barge {
						s.popClaim(k, n.seq)
					}
				}
				s.unlink(n)
				q.releaseSlot()
				s.stats.dispatched++
				if barge {
					s.stats.bargeDispatched++
				}
				if len(m.Keys) > 1 {
					s.stats.multiKeyDispatched++
				}
				s.creditDispatch(int(b), n, &now)
				if !barge {
					// A barge entry's holder may park its keys past the
					// batch, so they never join the in-batch exception.
					acquired = append(acquired, m.Keys...)
				}
				msgs++
				e := take(n)
				if q.coalesce && e.msg.Mode == ModeKeyed && e.msg.Batch != nil && e.attempt == 0 {
					// The representative already counts against max, so the
					// merge budget is the batch's remaining message capacity.
					next = q.coalesceRun(s, e, next, barSeq, &scanned, max-msgs, &now)
					msgs += len(e.extraList())
				}
				es = append(es, e)
			default:
				// Cross-shard entry: the standard TryLock'd dispatch, with no
				// in-batch suppression (foreign shards know nothing of this
				// batch). A lost lock race reports retry, as in scanShard.
				ok, kind, r := q.tryDispatchCross(s, n)
				if ok {
					s.creditDispatch(int(b), n, &now)
					if m.Mode != ModeBarge {
						acquired = append(acquired, m.Keys...)
					}
					msgs++
					es = append(es, take(n))
				} else if r {
					retry = true
				} else {
					s.countConflict(kind)
				}
			}
			n = next
		}
	}
	if len(es) > 0 {
		s.stats.batches++
		s.stats.batchEntries += uint64(msgs)
		if msgs > s.stats.maxBatch {
			s.stats.maxBatch = msgs
		}
	} else if windowHit {
		s.stats.windowStalls++
	}
	return es, retry
}

// conflictBatch is conflictLocal with the in-batch exception: a key held
// in flight only counts as a conflict when it is not among the keys
// acquired by earlier entries of the same batch. The claim-queue head
// check is unchanged — earlier batch entries popped their claims at
// harvest, so heading every claim queue *after* the batch's earlier pops
// is exactly the required order condition. barge entries (ModeBarge)
// waive the order condition but forgo the in-batch exception: their
// handlers may park the keys past the batch (that is their use), so
// batch-order serialization cannot stand in for a free key. Caller
// holds s.mu; every key in keys is owned by s.
func (s *shard) conflictBatch(q *Queue, keys []Key, seq uint64, acquired []Key, barge bool) int {
	for _, k := range keys {
		if s.inflight[k] > 0 && (barge || !keyIn(acquired, k)) {
			return conflictKey
		}
		if !barge && s.claims[k].peek() != seq {
			return conflictOrder
		}
	}
	return conflictNone
}

// keyIn reports whether k was acquired earlier in the batch. Batches are
// small (bounded by max and the search window), so a linear scan beats a
// map here.
func keyIn(acquired []Key, k Key) bool {
	for _, a := range acquired {
		if a == k {
			return true
		}
	}
	return false
}

// coalesceRun merges the run of pending entries immediately compatible
// with representative e — same shard, ModeKeyed, a Batch handler, first
// attempt, an identical key slice, and heading every claim queue after
// the previous merge's pops — into e, so one Batch invocation handles
// the whole run. Merged messages pop their claims and give back their
// capacity slots like any dispatch, but do not touch the in-flight
// counts: the representative's single acquisition covers the run, and
// its single Complete (or Release) resolves it. budget bounds how many
// additional messages may merge (the batch's remaining capacity);
// WithCoalesce's own limit applies on top, and a pending sequential
// barrier's gate (barSeq) stops the run exactly as it stops the
// enclosing harvest — a post-barrier message must not ride a
// pre-barrier invocation. The run walks one band's list, so merged
// messages share the representative's priority by construction; an
// expired run-mate stops the run (it must never dispatch — a later scan
// dead-letters it), and a merged deadline tightens the representative's
// to the minimum, so Entry introspection reflects the strictest member.
// Caller holds s.mu. Returns the first node not merged.
func (q *Queue) coalesceRun(s *shard, e, n *Entry, barSeq uint64, scanned *int, budget int, now *int64) *Entry {
	if q.coalesceMax > 0 && budget > q.coalesceMax-1 {
		budget = q.coalesceMax - 1
	}
	for n != nil && budget > 0 {
		if q.window > 0 && *scanned >= q.window {
			return n
		}
		if barSeq != 0 && n.seq >= barSeq {
			return n
		}
		m := &n.msg
		if m.Mode != ModeKeyed || n.attempt != 0 ||
			!sameBatchHandler(m.Batch, e.msg.Batch) ||
			!keysEqual(m.Keys, e.msg.Keys) {
			return n
		}
		if s.headsClaims(m.Keys, n.seq) != conflictNone {
			return n
		}
		if dl := n.deadline; dl != 0 {
			if *now == 0 {
				*now = nowNanos()
			}
			if dl <= *now {
				return n
			}
			if e.deadline == 0 || dl < e.deadline {
				e.deadline = dl
			}
		}
		*scanned++
		next := n.next
		for _, k := range m.Keys {
			s.popClaim(k, n.seq)
		}
		s.unlink(n)
		q.releaseSlot()
		s.stats.dispatched++
		if len(m.Keys) > 1 {
			s.stats.multiKeyDispatched++
		}
		s.stats.prioDispatched[m.Priority]++
		s.stats.coalesced++
		if e.extra == nil {
			e.extra = new([]Message)
		}
		*e.extra = append(*e.extra, *m)
		if t := s.tr; t != nil && m.TraceID != 0 {
			t.record(s.idx, m.TraceID, TraceCoalesce, n.seq, int64(len(*e.extra)))
		}
		s.pool.put(n)
		budget--
		n = next
	}
	return n
}

// headsClaims checks only the claim-queue head condition (the in-flight
// keys are held by the representative itself during a coalesce run).
// Caller holds s.mu; every key is owned by s.
func (s *shard) headsClaims(keys []Key, seq uint64) int {
	for _, k := range keys {
		if s.claims[k].peek() != seq {
			return conflictOrder
		}
	}
	return conflictNone
}

// sameBatchHandler reports whether two Batch handlers are the same
// function value. Merging a message into a run discards its own handler
// in favor of the representative's, so it is only sound when the two
// are literally the same — comparing function *values* (the closure
// object, not just the code pointer) means two closures of the same
// body with different captured state never merge. The common coalescing
// producer enqueues one shared handler value, which always matches.
func sameBatchHandler(a, b func(datas []any)) bool {
	return a != nil && b != nil &&
		*(*unsafe.Pointer)(unsafe.Pointer(&a)) == *(*unsafe.Pointer)(unsafe.Pointer(&b))
}

// keysEqual reports element-wise equality of two key slices. Coalescing
// requires identical slices (same keys, same order), the cheap exact
// form of "same key set" that the common produce-loop traffic satisfies.
func keysEqual(a, b []Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i, k := range a {
		if b[i] != k {
			return false
		}
	}
	return true
}

// RunBatch executes a batch from TryDequeueBatch/DequeueBatch in order
// with Run's per-entry failure lifecycle preserved inside the batch:
// each handler runs under Run's recovery guard, a panicking
// handler is Released immediately — freeing only that entry's keys, with
// the queue's retry/dead-letter policy applied — and the remaining
// entries still execute. Successful entries group-commit: each run of
// consecutive successes is completed together, taking each involved
// shard's lock once instead of once per entry (the completion analogue
// of the harvest's amortization), when the batch finishes or just before
// a failed entry is Released, so entries resolve in execution order and
// a successful entry's keys read as in flight until its run commits. The
// input slice is not modified, and every entry in it is invalid once
// RunBatch returns (see Entry). The returned error joins the recovered
// *PanicErrors of every failed entry (nil when all succeeded). If a
// handler terminates the goroutine with runtime.Goexit (see
// ErrHandlerExited), the entries already run are completed on the way
// out, and the never-executed remainder — which did not fail and owes no
// retry budget — is handed back to the queue at the tail with its
// attempt counts intact (the messages forfeit their queue positions; on
// a bounded queue that cannot re-admit them they dead-letter with
// ErrHandlerExited), so no entry is stranded holding its keys.
func (q *Queue) RunBatch(es []*Entry) error {
	done := 0 // es[done:idx] ran to completion, not yet resolved
	idx := 0  // es[idx:] have not started
	finished := false
	defer func() {
		if finished {
			return
		}
		// Only runtime.Goexit can unwind past runHandler's recovery, and
		// runHandler Released the entry it was unwound from (es[idx-1]):
		// resolve everything else on the way out. (A misuse panic out of
		// a resolving call also lands here; done == idx then marks the
		// run as already committed.)
		if done < idx {
			q.completeBatch(es[done : idx-1])
		}
		for _, e := range es[idx:] {
			q.releaseUnrun(e)
		}
	}()
	var errs []error
	for idx < len(es) {
		e := es[idx]
		idx++
		if pe := q.runHandler(e); pe != nil {
			ran := es[done : idx-1]
			done = idx
			q.completeBatch(ran)
			q.g.panics.Add(1)
			q.Release(e, pe)
			errs = append(errs, pe)
		}
	}
	finished = true
	q.completeBatch(es[done:])
	return errors.Join(errs...)
}

// releaseUnrun resolves a dispatched entry whose handler never started
// (its batch's goroutine is unwinding under runtime.Goexit): the key
// state is freed like any release, and each message the entry carries is
// re-admitted at the tail with its attempt count intact — it did not
// fail, so the retry budget does not apply — falling back to the
// dead-letter hook only when re-admission is impossible (a bounded queue
// with no free slot, or a fresh message on a queue that closed — a
// pre-close retry re-admits as always).
func (q *Queue) releaseUnrun(e *Entry) {
	ws := q.releaseEntryState(e)
	q.g.released.Add(1)
	q.readmitOrDeadLetter(e.msg, e.attempt, e.err)
	for _, m := range e.extraList() {
		q.readmitOrDeadLetter(m, e.attempt, e.err)
	}
	nkeys := len(e.msg.Keys)
	e.retire()
	q.finishInflight(ws, nkeys)
}

// readmitOrDeadLetter gives one never-executed message back to the
// queue, dead-lettering it when the queue cannot take it back.
func (q *Queue) readmitOrDeadLetter(m Message, attempt uint32, lastErr error) {
	if q.cap > 0 && !q.tryReserveSlot() {
		q.deadLetterMsg(m, ErrHandlerExited)
		return
	}
	// enqueueReserved returns the capacity slot itself on failure.
	if q.enqueueReserved(&m, attempt, lastErr) != nil {
		q.deadLetterMsg(m, ErrHandlerExited)
	}
}

// completeBatch applies the completions of a batch's successful entries
// together: every involved shard is locked once to free all key state,
// the in-flight count retires in one step, and consumers are woken once.
// It is exactly len(es) Complete calls with the locking and waking
// amortized; the drain check and read-order guarantees are unchanged.
func (q *Queue) completeBatch(es []*Entry) {
	if len(es) == 0 {
		return
	}
	if len(es) == 1 {
		q.Complete(es[0])
		return
	}
	var mask uint64
	nkeys := 0
	for _, e := range es {
		e.checkLive()
		nkeys += len(e.msg.Keys)
		if e.msg.Mode == ModeSequential {
			// Sequential entries only ever travel in batches of one, so
			// this cannot happen for a harvested batch; stay correct for
			// hand-built slices.
			for _, e := range es {
				q.Complete(e)
			}
			return
		}
		mask |= e.smask
	}
	for m := mask; m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= 1 << i
		s := &q.shards[i]
		s.mu.Lock()
		for _, e := range es {
			if e.smask&(1<<i) == 0 || len(e.msg.Keys) == 0 {
				continue
			}
			if !s.releaseOwned(q, e.msg.Keys) {
				s.mu.Unlock()
				panic("pdq: Complete/Release for key with no in-flight handler")
			}
		}
		s.mu.Unlock()
	}
	ws := q.shardFromMask(mask)
	ws.completed.Add(uint64(len(es)))
	if t := q.tr; t != nil {
		// The group commit bypasses per-entry Complete; traced entries
		// still owe their completion events.
		for _, e := range es {
			if e.msg.TraceID != 0 {
				t.record(q.shardFromMask(e.smask).idx, e.msg.TraceID, TraceComplete, e.seq, 0)
			}
		}
	}
	for _, e := range es {
		e.retire()
	}
	// As in finishInflight: the batch's entries retire together; the
	// drain gate and the pending-before-inflight read order still hold.
	if q.inflightAll.Add(-int64(len(es))) == 0 && q.drainWaiters.Load() > 0 && q.isIdle() {
		q.notifyEmpty()
	}
	// One generation bump covers the whole batch: sleeping consumers wait
	// on the generation sum, which any single-shard bump changes. The
	// wake bound is the batch's total released keys.
	q.wakeShard(ws, nkeys)
}

// parker is one blocked consumer's wake slot: a 1-slot token channel a
// waker signals, and one reusable timer that covers both the maturity
// wait for delayed entries and the retry backstop. Parkers are pooled,
// so a consumer parks and wakes without allocating.
type parker struct {
	ch         chan struct{}
	t          *time.Timer
	prev, next *parker // q.parked links; guarded by q.waitMu
	queued     bool    // on q.parked; a waker that pops it clears this
}

var parkerPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &parker{ch: make(chan struct{}, 1), t: t}
}}

// parkList is the FIFO of parked consumers, guarded by q.waitMu.
type parkList struct {
	head, tail *parker
}

func (l *parkList) push(p *parker) {
	p.prev, p.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = p
	} else {
		l.head = p
	}
	l.tail = p
	p.queued = true
}

func (l *parkList) remove(p *parker) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		l.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		l.tail = p.prev
	}
	p.prev, p.next = nil, nil
	p.queued = false
}

// wakeParkedLocked pops up to n parked consumers, oldest first, and
// signals each; n < 0 wakes every one. A popped parker's token is always
// delivered: its channel is drained before the consumer parks again.
// Caller holds q.waitMu.
func (q *Queue) wakeParkedLocked(n int) {
	for p := q.parked.head; p != nil && n != 0; p = q.parked.head {
		q.parked.remove(p)
		select {
		case p.ch <- struct{}{}:
		default:
		}
		n--
	}
}

// blockDequeue is the eventcount wait loop shared by DequeueContext and
// DequeueBatch: run attempt until it yields, ctx is done, or the queue is
// closed and drained. attempt reports (dispatched, inconclusive-retry)
// exactly like tryDequeue. A consumer that finds nothing publishes itself
// as a waiter, re-checks the generation under waitMu (closing the
// scan-then-sleep race), joins the parked FIFO, and sleeps on its
// parker's token, ctx, or its timer. The timer is armed for the earliest
// delayed-entry maturity — the wake that lets WithDelay/WithNotBefore
// deliver on time without any polling consumer — or, after persistent
// TryLock collisions (which leave no eventcount bump behind), for the
// backoff that bounds how long such a lost race can hide a dispatchable
// entry, whichever is sooner.
func (q *Queue) blockDequeue(ctx context.Context, attempt func() (ok, retry bool)) error {
	var p *parker // taken from parkerPool at the first park
	defer func() {
		if p != nil {
			parkerPool.Put(p)
		}
	}()
	spins := 0
	for {
		g := q.wakeSum()
		ok, retry := attempt()
		if ok {
			return nil
		}
		if q.closed.Load() && q.confirmDrained() {
			// Cascade the termination wake: shard wakeups are bounded by
			// the event's dispatchability fan-out, so the final
			// completion may have woken only this consumer while others
			// stay parked with nothing left to wake them. Each exiting
			// consumer wakes every parker, so close+drain reaches every
			// sleeper as a chain.
			q.waitMu.Lock()
			q.wakeParkedLocked(-1)
			q.waitMu.Unlock()
			return ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		needBackstop := false
		if retry {
			// A cross-shard dispatch lost a TryLock race; the state is
			// unknown, so rescan rather than sleep on a stale generation —
			// but boundedly, falling into the eventcount sleep (with a
			// timed backstop, since the lost race may never bump it) once
			// the collisions persist.
			if spins < maxDispatchSpins {
				spins++
				runtime.Gosched()
				continue
			}
			needBackstop = true
		}
		spins = 0
		if p == nil {
			p = parkerPool.Get().(*parker)
		}
		q.waitMu.Lock()
		// Publish the waiter BEFORE re-checking the generation: a producer
		// that bumps the generation and then reads waiters == 0 is thereby
		// guaranteed (seq-cst order) that this re-check observes its bump,
		// so skipping the wake cannot strand us.
		q.waiters.Add(1)
		if q.wakeSum() != g {
			q.waiters.Add(-1)
			q.waitMu.Unlock()
			continue
		}
		q.g.waits.Add(1)
		q.parked.push(p)
		q.waitMu.Unlock()

		var d time.Duration
		if needBackstop {
			d = dispatchBackoff
		}
		timed := false // the timer is for a maturity, not the backstop
		if wake := q.nextTimerWake(); wake != math.MaxInt64 {
			// An overdue maturity that still yielded nothing — its entry
			// is key-blocked or barrier-gated — degrades to the backoff
			// cadence instead of an immediate re-fire.
			w := time.Duration(wake - nowNanos())
			if w <= 0 {
				w = dispatchBackoff
			}
			if d == 0 || w < d {
				d, timed = w, true
			}
		}
		var tick <-chan time.Time
		if d > 0 {
			p.t.Reset(d)
			tick = p.t.C
		}
		fired := false
		select {
		case <-p.ch:
		case <-ctx.Done():
		case <-tick:
			fired = true
			if timed {
				q.g.timerWakeups.Add(1)
			}
		}
		if tick != nil && !fired && !p.t.Stop() {
			// The timer fired as another wake won the select: drop the
			// tick so the next park's Reset starts clean.
			select {
			case <-p.t.C:
			default:
			}
		}

		q.waitMu.Lock()
		signalled := !p.queued
		if !signalled {
			q.parked.remove(p)
		}
		q.waiters.Add(-1)
		cancelled := ctx.Err() != nil
		if signalled {
			// Drop the token if the select did not take it (it is always
			// sent under waitMu, so it is there by now).
			select {
			case <-p.ch:
			default:
			}
			if cancelled {
				// This consumer is leaving with a wake meant for a
				// consumer that would rescan: pass it on.
				q.wakeParkedLocked(1)
			}
		}
		q.waitMu.Unlock()
		if cancelled {
			return ctx.Err()
		}
	}
}
