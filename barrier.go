package pdq

import (
	"sync"
	"sync/atomic"
)

// barrier implements ModeSequential as a cross-shard epoch barrier.
// Sequential entries never enter a shard's pending list; they queue here
// in seq order. minSeq publishes the earliest pending or active barrier's
// sequence number (0 = none): every shard scan refuses entries at or past
// that position, so the epoch before the barrier drains across all shards,
// the barrier activates once every shard's earliest pending entry is past
// it and nothing is in flight, runs alone, and then releases the next
// epoch.
type barrier struct {
	mu       sync.Mutex
	queue    fifo[*Entry]  // pending sequential entries, seq-ascending
	minSeq   atomic.Uint64 // earliest pending/active barrier seq; 0 = none
	active   atomic.Bool   // a sequential handler is executing
	npending atomic.Int64

	enqueued   atomic.Uint64
	dispatched atomic.Uint64
	completed  atomic.Uint64
	maxPending int // guarded by mu
}

// enqueueSequential queues m as a barrier. The conservative floor store
// closes the publication race: a concurrently enqueued keyed entry that
// fetches a later sequence number than the barrier must already observe a
// nonzero minSeq, otherwise it could dispatch inside the window between
// the barrier's sequence fetch and the exact store below. The floor is at
// most the barrier's final seq, so it can only over-block, and only until
// the exact value replaces it a few instructions later.
func (q *Queue) enqueueSequential(m *Message, attempt uint32, lastErr error) error {
	b := &q.bar
	// Flush every shard's intake ring before fetching the barrier's
	// sequence number: a ring entry whose Enqueue returned before this
	// call began must land ahead of the barrier, and sequence numbers for
	// ring entries are only assigned at drain time. Entries published
	// concurrently with this flush sequence on whichever side of the
	// barrier they are drained — both orders are linearizable.
	q.flushIntakeAll()
	b.mu.Lock()
	if attempt == 0 && q.closed.Load() {
		// As in enqueueSharded: retries re-admit pre-close work.
		b.mu.Unlock()
		return ErrClosed
	}
	if b.minSeq.Load() == 0 {
		b.minSeq.Store(q.nextSeq.Load() + 1)
	}
	seq := q.nextSeq.Add(1)
	// Barrier entries come from no pool: they are rare, and never
	// recycled (see Entry.retire).
	b.queue.push(&Entry{msg: *m, seq: seq, attempt: attempt, err: lastErr})
	if !b.active.Load() {
		// Exact publication. While a barrier is active its own (smaller)
		// seq must keep gating the scans, so leave minSeq alone then.
		b.minSeq.Store(b.queue.peek().seq)
	}
	p := b.npending.Add(1)
	if int(p) > b.maxPending {
		b.maxPending = int(p)
	}
	b.enqueued.Add(1)
	b.mu.Unlock()
	return nil
}

// tryActivateBarrier dispatches the earliest queued barrier if its epoch
// has drained: every shard's earliest pending entry is past the barrier
// and no handler is in flight. Dispatch increments inflightAll before
// removing an entry from a shard's pending count, so the check sequence
// below (per-shard minSeq, then inflightAll) cannot miss an entry that is
// mid-dispatch: either it is still linked when its shard is examined, or
// its inflightAll increment is already visible at the final check.
func (q *Queue) tryActivateBarrier() (*Entry, bool) {
	b := &q.bar
	if b.active.Load() || q.inflightAll.Load() != 0 {
		return nil, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.active.Load() || b.queue.empty() {
		return nil, false
	}
	target := b.queue.peek().seq
	for i := range q.shards {
		if q.shards[i].minSeq.Load() < target {
			return nil, false
		}
	}
	if q.inflightAll.Load() != 0 {
		return nil, false
	}
	e := b.queue.pop()
	b.active.Store(true)
	// minSeq stays at e.seq while the handler runs: every pending entry
	// has a later seq, so the scans' barrier gate keeps the machine idle.
	q.inflightAll.Add(1)
	b.npending.Add(-1)
	q.releaseSlot()
	b.dispatched.Add(1)
	return e, true
}

// completeBarrier releases an active barrier and publishes the next queued
// barrier's position (or clears the gate). Shared by Complete and Release;
// the completed counter is Complete's alone, so it is bumped there.
func (q *Queue) completeBarrier() {
	b := &q.bar
	b.mu.Lock()
	if !b.active.Load() {
		b.mu.Unlock()
		panic("pdq: Complete/Release of sequential entry without active barrier")
	}
	b.active.Store(false)
	if !b.queue.empty() {
		b.minSeq.Store(b.queue.peek().seq)
	} else {
		b.minSeq.Store(0)
	}
	b.mu.Unlock()
}
