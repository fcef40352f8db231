package pdq

// Lock-free shard intake. The sharded core of PR 2 removed cross-key
// contention, but every enqueue still paid its home shard's mutex — a
// fixed per-message cost of exactly the kind the paper's dispatch-time
// specialization exists to eliminate. This file moves the steady-state
// enqueue off the lock entirely:
//
//   - Each shard owns a fixed-size MPSC intake ring (WithIntakeRing).
//     A producer claims a slot with one atomic Add on the ring tail and
//     publishes with one release store of the slot's sequence word; the
//     message never touches the shard mutex. The harvesting consumer —
//     which already holds the shard lock for its scan or batch harvest —
//     drains the published prefix into the per-band pending lists in one
//     pass, assigning global sequence numbers and pushing key claims as
//     it goes. Steady-state enqueue is therefore lock-free, and the
//     intake bookkeeping amortizes into lock acquisitions the consumer
//     was making anyway.
//
//   - Only entries whose key set lives wholly on one shard ride the ring
//     (single keys, same-shard key sets, keyless/nosync/barge traffic —
//     the hot paths). A multi-shard entry must register claims on every
//     shard it touches under those shards' locks, so it takes the classic
//     mutex path — but first drains the involved rings to completion, so
//     every entry published before it keeps an earlier sequence number
//     and per-key enqueue-order FIFO is preserved across the two paths.
//     Sequential barriers likewise flush every shard's ring before
//     fetching their sequence number: an entry whose Enqueue returned
//     before the barrier's began is guaranteed the smaller seq.
//
//   - Ring-full never blocks dispatch semantics: the producer spins
//     briefly for the consumer to free its slot, then falls back to
//     TryLock-ing the shard and draining the ring itself (publishing
//     under the lock). The fallback uses TryLock, never Lock, because a
//     lock holder draining the ring may be spin-waiting on this very
//     producer's publish — blocking on the mutex there would deadlock.
//
//   - Pending-list nodes — each one is the Entry a consumer is later
//     handed — are recycled through a bounded, lock-free, epoch-stamped
//     pool (epochPool), so producers take nodes and resolving consumers
//     retire them without the shard mutex. Every pool slot carries an
//     epoch counter that advances by the pool size each reuse cycle; a
//     node can only be taken in the epoch after the one it was retired
//     in, which is what makes concurrent take/retire safe without locks
//     (a stale reader's compare of the epoch word can never mistake a
//     recycled slot for its old occupant). The pool is fixed-size by construction — a
//     burst can no longer pin an unbounded node chain — and overflow
//     simply drops nodes to the garbage collector (counted in
//     Stats.NodesCapped).
//
// Correctness notes (the invariants every path must keep):
//
//   - Pending visibility: a producer bumps its shard's npending BEFORE
//     the closed check and the slot claim. Sequentially consistent
//     atomics make that a Dekker handshake with Close/confirmDrained:
//     either the producer observes closed and backs out, or the
//     drain-certification observes its pending count. An entry whose
//     Enqueue returned is therefore always visible to Drain, Len, and
//     the consumers' shard-skip check, even while it sits in the ring.
//
//   - Barrier gating: scans read the barrier gate AFTER draining the
//     ring. A drained entry's seq is assigned at drain time, so if it
//     exceeds a pending barrier's seq, the barrier's floor store
//     happened before the drain's sequence fetch — and the gate load
//     that follows the drain is then guaranteed to observe it.
//
//   - Claim order: claims for ring entries are pushed only by the
//     draining consumer under the owning shard's lock, with sequence
//     numbers fetched under that lock, so every per-key claim queue is
//     still pushed in strictly increasing seq order.

import (
	"runtime"
	"sync/atomic"
)

// DefaultIntakeRing is the default per-shard intake ring size. Rings are
// enabled by default; see WithIntakeRing.
const DefaultIntakeRing = 256

// ringPublishSpins bounds how long a producer whose claimed slot is still
// occupied (ring full) spins between TryLock fallback attempts, and how
// long a waiting drain spins on a claimed-but-unpublished slot before
// yielding the processor.
const ringPublishSpins = 128

// nodePoolSize is the capacity of each shard's epoch-stamped node pool
// (a power of two). It replaces the old free list's cap; retiring a node
// into a full pool drops it to the GC instead of growing the pool. The
// size rides out producer/consumer phase alternation on few-core hosts
// (long enqueue bursts followed by long completion bursts), where a
// smaller pool empties in the first burst and overflows in the second.
const nodePoolSize = 1024

// cpad is one cache line of padding. Hot cross-thread atomics are
// separated by these so a producer hammering one counter does not
// invalidate the line a consumer is polling (false sharing).
type cpad [64]byte

// ringSlot is one intake-ring slot. seq is the Vyukov-style slot
// sequence: it reads pos when the slot is free for the producer that
// claimed position pos, pos+1 once that producer published, and
// pos+size after the consumer drained it (free for the next lap). The
// node pointer is plain — the seq transitions on the same word order
// the cross-thread accesses.
type ringSlot struct {
	seq atomic.Uint64
	n   *Entry
}

// intake is a shard's MPSC publish ring. Producers share tail (their
// claim counter); head is the consumer cursor, guarded by the shard
// mutex like the structures the drain feeds.
type intake struct {
	slots []ringSlot
	mask  uint64
	_     cpad
	//pdq:isolated
	tail atomic.Uint64
	_    cpad
	head uint64 // consumer cursor; guarded by shard.mu
	_    cpad

	// Cold occupancy stats: adjacent on purpose, they are only bumped on
	// the ring-full paths. Lock-free publishes are not counted on the
	// hot path: they are the claimed positions (tail) minus fallbacks.
	fallbacks atomic.Uint64 // ring-full publishes completed under the shard lock
	spins     atomic.Uint64 // ring-full spin iterations across producers
}

func (in *intake) init(size int) {
	if size <= 0 {
		return
	}
	in.slots = make([]ringSlot, size)
	in.mask = uint64(size - 1)
	for i := range in.slots {
		in.slots[i].seq.Store(uint64(i))
	}
}

// resolveIntakeRing maps the WithIntakeRing argument to a concrete ring
// size: n <= 0 disables the ring (mutex-only intake), anything else is
// rounded up to a power of two with a floor of 2 (a one-slot ring would
// make every second publish a fallback) and a cap of 1<<16.
func resolveIntakeRing(n int) int {
	if n <= 0 {
		return 0
	}
	if n < 2 {
		n = 2
	}
	if n > 1<<16 {
		n = 1 << 16
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// enqueueIntake is the lock-free admission path for an entry homed
// wholly on shard s. The npending bump precedes the closed check (the
// Dekker handshake described at the top of the file); the backout path
// must re-run the drain-idle check and wake consumers, because a Drain
// caller or a consumer's close+drain check may have observed the
// transient pending count and parked.
func (q *Queue) enqueueIntake(s *shard, m *Message, smask uint64, attempt uint32, lastErr error) error {
	s.npending.Add(1)
	if attempt == 0 && q.closed.Load() {
		// Retries re-admit pre-close work, exactly as on the mutex path.
		s.npending.Add(-1)
		if q.drainWaiters.Load() > 0 && q.isIdle() {
			q.notifyEmpty()
		}
		// A consumer's close+drain check may have counted the transient
		// entry and parked; nothing else will wake it, so wake every
		// parked consumer to re-check (the closed path only).
		q.wakeGlobal()
		return ErrClosed
	}
	n := s.newEntry(m, smask, attempt, lastErr)
	if t := q.tr; t != nil && m.TraceID != 0 {
		// Seq is not assigned yet on the ring path; the drain records
		// TraceRingDrain with the seq once it links the entry.
		t.record(s.idx, m.TraceID, TraceEnqueue, 0, 1)
	}
	q.publishIntake(s, n)
	return nil
}

// publishIntake claims a slot in s's intake ring and publishes n into
// it. The common case is two atomics: one Add to claim, one store to
// publish. A full ring (our slot's previous-lap occupant not yet
// drained) spins briefly, then falls back to draining the ring under a
// TryLock'd shard mutex — TryLock, never Lock, because the current lock
// holder may itself be spin-waiting for this producer's publish.
//
//pdq:crossshard — the lock holder may be spin-waiting on this producer.
func (q *Queue) publishIntake(s *shard, n *Entry) {
	in := &s.in
	pos := in.tail.Add(1) - 1
	sl := &in.slots[pos&in.mask]
	if sl.seq.Load() != pos {
		// The previous-lap occupant of the slot is still unconsumed: the
		// ring is full. A consumer that isn't running right now may never
		// free it on this CPU, so try to become the consumer immediately
		// rather than spinning first — the spin below is reserved for the
		// case where the lock holder is actively draining (or scanning) on
		// another CPU and will free the slot shortly.
		spins := 0
		for {
			if s.mu.TryLock() {
				// Drain until the previous-lap occupant of our slot (ring
				// position pos-size) is consumed, which frees the slot,
				// then publish while still holding the lock.
				q.drainIntake(s, pos-uint64(len(in.slots))+1, true)
				sl.n = n
				sl.seq.Store(pos + 1)
				in.fallbacks.Add(1)
				s.mu.Unlock()
				return
			}
			for i := 0; i < ringPublishSpins; i++ {
				spins++
				if sl.seq.Load() == pos {
					in.spins.Add(uint64(spins))
					goto publish
				}
			}
			in.spins.Add(uint64(spins))
			spins = 0
			runtime.Gosched()
		}
	}
publish:
	sl.n = n
	sl.seq.Store(pos + 1)
}

// drainIntake moves intake-ring entries into s's pending structures,
// consuming ring positions below stop in claim order. wait=false stops
// at the first claimed-but-unpublished slot (the scan's prefix drain);
// wait=true spins for stragglers — required by the paths that assign a
// sequence number afterwards (multi-shard enqueue, barrier enqueue, the
// ring-full fallback), whose ordering argument needs every slot claimed
// before the stop snapshot to drain first. The spin always terminates:
// the drain frees ring space in claim order, so an unpublished
// predecessor is at worst a producer mid-publish or one whose room this
// very drain is about to free. Caller holds s.mu.
func (q *Queue) drainIntake(s *shard, stop uint64, wait bool) {
	in := &s.in
	head := in.head
	if head >= stop {
		return
	}
	if occ := int(in.tail.Load() - head); occ > s.stats.maxRingOcc {
		s.stats.maxRingOcc = occ
	}
	size := uint64(len(in.slots))
	for head < stop {
		sl := &in.slots[head&in.mask]
		if sl.seq.Load() != head+1 {
			if !wait {
				break
			}
			for spins := 0; sl.seq.Load() != head+1; spins++ {
				if spins >= ringPublishSpins {
					spins = 0
					runtime.Gosched()
				}
			}
		}
		n := sl.n
		sl.n = nil
		sl.seq.Store(head + size)
		head++
		q.linkDrained(s, n)
	}
	in.head = head
}

// drainIntakeScan is the harvest-path prefix drain: consume whatever is
// already published, never waiting on stragglers (an unpublished claim
// is an Enqueue that has not returned — the scan owes it nothing).
// Caller holds s.mu.
func (q *Queue) drainIntakeScan(s *shard) {
	if s.in.slots != nil {
		q.drainIntake(s, s.in.tail.Load(), false)
	}
}

// flushIntakeMask drains the intake rings of every shard named in mask
// to completion. Callers hold all those shards' locks and are about to
// fetch a sequence number; the complete drain guarantees every entry
// published before this point sequences first.
//
//pdq:crossshard — runs with multiple shard locks already held.
func (q *Queue) flushIntakeMask(mask uint64) {
	if q.ring == 0 {
		return
	}
	for i := uint32(0); i <= q.mask; i++ {
		if mask&(1<<i) != 0 {
			s := &q.shards[i]
			q.drainIntake(s, s.in.tail.Load(), true)
		}
	}
}

// flushIntakeAll drains every shard's intake ring, taking and releasing
// each shard lock in turn. Sequential barriers call it before fetching
// their sequence number, so every entry whose Enqueue returned before
// the barrier's began is ordered (and will complete) ahead of it.
func (q *Queue) flushIntakeAll() {
	if q.ring == 0 {
		return
	}
	for i := range q.shards {
		s := &q.shards[i]
		s.mu.Lock()
		q.drainIntake(s, s.in.tail.Load(), true)
		s.mu.Unlock()
	}
}

// linkDrained admits one ring entry into s's pending structures: it
// fetches the entry's global sequence number, registers its key claims
// (every key of a ring entry is owned by s; barge entries hold no claim
// positions), and links it mature or delayed. The npending count was
// already taken by the producer, so linking must not re-add it. Caller
// holds s.mu.
func (q *Queue) linkDrained(s *shard, n *Entry) {
	seq := q.nextSeq.Add(1)
	n.seq = seq
	m := &n.msg
	if m.Mode != ModeBarge {
		for _, k := range m.Keys {
			s.pushClaim(k, seq)
		}
	}
	if t := s.tr; t != nil && m.TraceID != 0 {
		t.record(s.idx, m.TraceID, TraceRingDrain, seq, 0)
		if m.Mode != ModeBarge && len(m.Keys) > 0 {
			t.record(s.idx, m.TraceID, TraceClaimJoin, seq, int64(len(m.Keys)))
		}
	}
	if n.notBefore != 0 {
		// Route by the option, not a clock read: an entry that matured in
		// the ring still counts as delayed (the scan's matureRipe promotes
		// it in this same pass), matching the mutex admission path.
		s.linkDelayed(n, true)
	} else {
		s.link(n, true)
	}
	s.stats.enqueued++
}

// noteKeySet folds one message's key-set size into the MaxKeySet
// high-water mark. Lock-free; shared by the ring and mutex admission
// paths.
func (q *Queue) noteKeySet(l int) {
	if l == 0 {
		return
	}
	v := int64(l)
	for {
		cur := q.g.maxKeySet.Load()
		if v <= cur || q.g.maxKeySet.CompareAndSwap(cur, v) {
			return
		}
	}
}

// poolSlot is one epochPool slot: an epoch word plus the retired node it
// holds. The epoch advances by the pool size each reuse cycle (retire in
// epoch pos+1, take in epoch pos+1, free again in epoch pos+size), so a
// taker that read a stale epoch can never win the cursor race for a slot
// that has since moved on — the stamp it compared belongs to a dead
// epoch.
type poolSlot struct {
	epoch atomic.Uint64
	n     *Entry
}

// epochPool is a bounded MPMC pool recycling pending-list nodes across
// the producer/consumer boundary without the shard mutex: the goroutine
// resolving an entry (Complete, Release, or their batch forms) retires
// its node, and producers take nodes on the enqueue path. Fixed capacity
// replaces the old free list's growth-after-burst behavior — overflow
// drops nodes to the GC.
type epochPool struct {
	slots []poolSlot
	mask  uint64
	_     cpad
	//pdq:isolated
	head atomic.Uint64 // take cursor
	_    cpad
	//pdq:isolated
	tail atomic.Uint64 // retire cursor
	_    cpad

	// Cold stats, deliberately adjacent (bumped only on retire paths).
	reclaimed atomic.Uint64 // nodes successfully retired for reuse
	capped    atomic.Uint64 // nodes dropped because the pool was full
}

func (p *epochPool) init(size int) {
	p.slots = make([]poolSlot, size)
	p.mask = uint64(size - 1)
	for i := range p.slots {
		p.slots[i].epoch.Store(uint64(i))
	}
}

// get takes a recycled node, or allocates when the pool is empty. Either
// way the node is cleared (put clears it) apart from its free mark.
func (p *epochPool) get() *Entry {
	for {
		pos := p.head.Load()
		sl := &p.slots[pos&p.mask]
		ep := sl.epoch.Load()
		switch {
		case ep == pos+1: // retired in this epoch: available
			if p.head.CompareAndSwap(pos, pos+1) {
				n := sl.n
				sl.n = nil
				sl.epoch.Store(pos + p.mask + 1) // free for the next epoch
				return n
			}
		case ep <= pos: // no retire has reached this slot yet: empty
			return &Entry{}
		default:
			// A slower epoch transition is mid-flight; re-read.
		}
	}
}

// put retires a node for reuse, dropping it when the pool is full. The
// node is cleared (so the pool pins no message payloads) and marked free
// either way, which is what lets a second resolve of the same entry
// panic instead of corrupting the in-flight accounting.
func (p *epochPool) put(n *Entry) {
	*n = Entry{free: true}
	for {
		pos := p.tail.Load()
		sl := &p.slots[pos&p.mask]
		ep := sl.epoch.Load()
		switch {
		case ep == pos: // free in this epoch: claimable
			if p.tail.CompareAndSwap(pos, pos+1) {
				sl.n = n
				sl.epoch.Store(pos + 1)
				p.reclaimed.Add(1)
				return
			}
		case ep < pos: // a full lap behind: pool full
			p.capped.Add(1)
			return
		default:
			// Taker mid-transition; re-read.
		}
	}
}
