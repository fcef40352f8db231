package pdq

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// shard is one partition of the sharded dispatch core. Each shard owns the
// pending lists of entries homed on it (one per priority band, plus the
// timer heap of immature delayed entries), the in-flight counts and claim
// queues for the keys it owns, an MPSC intake ring producers publish into
// without the lock (see ring.go), a node pool, and its own lock, so
// single-key traffic to different shards never contends.
//
// Layout is deliberate: the mutex-guarded consumer state (bands, credit,
// maps, stats — including the per-band credit counters, which only the
// harvesting consumer touches) sits together at the top, while every
// atomic that crosses the producer/consumer boundary gets a cache line of
// its own below, so producers hammering npending or the eventcount never
// invalidate the line a scanning consumer is walking (false sharing).
type shard struct {
	mu      sync.Mutex
	idx     uint32
	tr      *tracer                  // back-reference to the queue's flight recorder; nil = tracing off
	bands   [NumPriorities]entryList // mature pending entries, one seq-ascending list per band
	credit  [NumPriorities]uint32    // anti-starvation credits (see creditDispatch)
	delayed entryList                // immature delayed entries in seq order
	timers  timerHeap                // the same immature entries ordered by maturity

	inflight map[Key]int      // in-flight handler count per owned key
	claims   map[Key]*seqFIFO // pending claim seqs per owned key
	fifoPool []*seqFIFO       // recycled claim queues

	stats shardCounters

	// Cross-thread hot state, one cache line each (the //pdq:isolated
	// markers make pdqvet's atomicpad analyzer verify the spacing).
	_ cpad
	//pdq:isolated
	npending atomic.Int64 // entries homed here (intake ring included), readable without mu
	_        cpad
	//pdq:isolated
	minSeq atomic.Uint64 // min pending seq across bands and delayed; MaxUint64 when empty
	_      cpad
	//pdq:isolated
	nextMature atomic.Int64 // earliest maturity instant; MaxInt64 when nothing is delayed
	_          cpad
	//pdq:isolated
	wakeGen atomic.Uint64 // this shard's slice of the consumer eventcount
	_       cpad
	//pdq:isolated
	completed atomic.Uint64 // Complete calls credited to this shard
	_         cpad

	in   intake    // lock-free producer intake ring (empty when disabled)
	pool epochPool // lock-free node recycling across the producer/consumer boundary
}

// shardCounters are the per-shard slice of Stats, guarded by shard.mu and
// summed by Queue.Stats.
type shardCounters struct {
	enqueued           uint64
	dispatched         uint64
	noSyncDispatched   uint64
	bargeDispatched    uint64
	multiKeyDispatched uint64
	keyConflicts       uint64
	orderConflicts     uint64
	windowStalls       uint64
	batches            uint64 // successful batch harvests from this shard
	batchEntries       uint64 // messages those harvests dispatched (coalesced included)
	coalesced          uint64 // messages merged beyond their run's representative
	expired            uint64 // entries dropped undispatched at their deadline
	delayed            uint64 // entries admitted with a future maturity
	prioDispatched     [NumPriorities]uint64
	latency            [NumPriorities]LatencyHistogram // dispatch latency per band (see Stats.BandLatency)
	maxPending         int
	maxBatch           int // largest harvest from this shard, in messages
	maxRingOcc         int // deepest intake-ring backlog met by a drain
}

func (s *shard) init(idx uint32, ring int) {
	s.idx = idx
	s.inflight = make(map[Key]int)
	s.claims = make(map[Key]*seqFIFO)
	s.minSeq.Store(math.MaxUint64)
	s.nextMature.Store(math.MaxInt64)
	s.in.init(ring)
	s.pool.init(nodePoolSize)
}

// seqFIFO is an ordered queue of enqueue sequence numbers claiming one
// key. Sequence numbers are assigned while every involved shard is locked,
// so claimants of a key serialize on the key's owning shard and push in
// strictly increasing order: the head is always the earliest pending
// claim. An entry may dispatch only when it heads the claim queue of every
// key it carries and none of those keys is in flight — the sharded
// generalization of the v2 shadow-set scan (which blocked a later entry
// behind any earlier skipped entry sharing a key), extended so the
// discipline holds across shards, not just within one scan.
type seqFIFO = fifo[uint64]

// fifo is a head-indexed queue: pop advances the head instead of shifting
// the buffer, and the consumed prefix is reclaimed only once it outweighs
// the live tail, so every operation is amortized O(1) however deep the
// backlog grows. Claim queues and the sequential-barrier queue use it.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) push(v T)    { f.buf = append(f.buf, v) }
func (f *fifo[T]) peek() T     { return f.buf[f.head] }
func (f *fifo[T]) empty() bool { return f.head == len(f.buf) }

func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero // drop the reference for the GC
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	} else if f.head > 64 && f.head*2 >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	return v
}

// mix64 is the 64-bit finalizer from MurmurHash3: full-avalanche mixing so
// adjacent keys spread across shards.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// shardIndex maps a key to the index of its owning shard.
func (q *Queue) shardIndex(k Key) uint32 {
	return uint32(mix64(uint64(k))) & q.mask
}

// shardOf returns the shard owning k.
func (q *Queue) shardOf(k Key) *shard {
	return &q.shards[q.shardIndex(k)]
}

// keysMask computes the bit set of shard indexes a key set touches.
func (q *Queue) keysMask(keys []Key) uint64 {
	var m uint64
	for _, k := range keys {
		m |= 1 << q.shardIndex(k)
	}
	return m
}

// pushClaim appends seq to k's claim queue. Caller holds s.mu and s owns k.
func (s *shard) pushClaim(k Key, seq uint64) {
	f := s.claims[k]
	if f == nil {
		if n := len(s.fifoPool); n > 0 {
			f = s.fifoPool[n-1]
			s.fifoPool = s.fifoPool[:n-1]
		} else {
			f = &seqFIFO{}
		}
		s.claims[k] = f
	}
	f.push(seq)
}

// popClaim removes the head claim for k, which must be seq (the dispatch
// path only pops after verifying the entry heads every claim queue).
func (s *shard) popClaim(k Key, seq uint64) {
	f := s.claims[k]
	if f == nil || f.pop() != seq {
		panic("pdq: claim queue out of order")
	}
	if f.empty() {
		delete(s.claims, k)
		// Pool the queue for reuse unless a burst grew its buffer past the
		// cap — pooling that would pin the burst-sized allocation forever.
		if len(s.fifoPool) < 64 && cap(f.buf) <= maxPooledClaimCap {
			s.fifoPool = append(s.fifoPool, f)
		}
	}
}

// maxPooledClaimCap bounds the buffer capacity of a claim queue eligible
// for s.fifoPool.
const maxPooledClaimCap = 1024

// removeClaim deletes seq from k's claim queue wherever it sits — the
// expiry path's analogue of popClaim, which only serves the head (an
// expired entry may still be queued behind earlier claimants). Caller
// holds s.mu and s owns k.
func (s *shard) removeClaim(k Key, seq uint64) {
	f := s.claims[k]
	if f == nil {
		panic("pdq: claim removal for unclaimed key")
	}
	if f.peek() == seq {
		s.popClaim(k, seq)
		return
	}
	for i := f.head + 1; i < len(f.buf); i++ {
		if f.buf[i] == seq {
			f.buf = append(f.buf[:i], f.buf[i+1:]...)
			return
		}
	}
	panic("pdq: claim removal for absent sequence")
}

// link appends n to its priority band's pending list. Caller holds s.mu;
// the list stays seq-ascending because sequence numbers are assigned
// under the home shard's lock. preCounted is true when the entry arrived
// through the intake ring: its producer already added it to npending at
// admission time (the count is what makes ring entries visible to Drain
// and the consumers' shard-skip check before they are drained).
func (s *shard) link(n *Entry, preCounted bool) {
	if s.bands[n.msg.Priority].append(n) {
		s.updateMinSeq()
	}
	var p int64
	if preCounted {
		p = s.npending.Load()
	} else {
		p = s.npending.Add(1)
	}
	if int(p) > s.stats.maxPending {
		s.stats.maxPending = int(p)
	}
}

// unlink removes n from its band's pending list. Caller holds s.mu.
func (s *shard) unlink(n *Entry) {
	if s.bands[n.msg.Priority].remove(n) {
		s.updateMinSeq()
	}
	s.npending.Add(-1)
}

// newEntry takes a node from s's pool and fills it in for the admission
// of m; the caller assigns the sequence number (at link time on the ring
// path). The entry records its pool, so resolving it — or expiring or
// coalescing it away — returns the node here.
func (s *shard) newEntry(m *Message, smask uint64, attempt uint32, lastErr error) *Entry {
	n := s.pool.get() // cleared, so only the nonzero fields are set
	n.msg = *m
	n.smask, n.attempt, n.err = smask, attempt, lastErr
	n.enqAt = nowNanos()
	n.free = false
	n.pool = &s.pool
	if !m.NotBefore.IsZero() {
		n.notBefore = toNanos(m.NotBefore)
	}
	if !m.Deadline.IsZero() {
		n.deadline = toNanos(m.Deadline)
	}
	return n
}

// releaseKeys decrements the in-flight count of every key in keys on the
// shards named by mask — the inverse of the acquisition the dispatch path
// performed. It is shared by the Complete and Release paths: both free
// key state identically; they differ only in where the entry goes next.
func (q *Queue) releaseKeys(mask uint64, keys []Key) {
	for m := mask; m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= 1 << i
		s := &q.shards[i]
		s.mu.Lock()
		ok := s.releaseOwned(q, keys)
		s.mu.Unlock()
		if !ok {
			panic("pdq: Complete/Release for key with no in-flight handler")
		}
	}
}

// releaseOwned decrements the in-flight count of every key in keys that
// s owns. Caller holds s.mu. It reports false on a key with no in-flight
// handler (an invariant violation the caller must turn into a panic —
// after unlocking, so a recovering caller is not left holding the lock).
func (s *shard) releaseOwned(q *Queue, keys []Key) bool {
	for _, k := range keys {
		if q.shardIndex(k) != s.idx {
			continue
		}
		c := s.inflight[k]
		if c <= 0 {
			return false
		}
		if c == 1 {
			delete(s.inflight, k)
		} else {
			s.inflight[k] = c - 1
		}
	}
	return true
}

// Conflict kinds returned by the claim checks.
const (
	conflictNone  = iota
	conflictKey   // an overlapping key is in flight
	conflictOrder // an earlier enqueued entry claims an overlapping key
)

// conflictLocal checks a key subset owned by s against s's in-flight and
// claim state, mirroring the original scan's per-key order: an in-flight
// key counts as a key conflict, an earlier claim as an order conflict.
// all=true checks every key (single-shard entries); otherwise only keys
// owned by s are examined. barge=true (ModeBarge entries) waives the
// claim-order condition — such entries hold no claim-queue position and
// acquire on key availability alone. Caller holds s.mu.
func (s *shard) conflictLocal(q *Queue, keys []Key, seq uint64, all, barge bool) int {
	for _, k := range keys {
		if !all && q.shardIndex(k) != s.idx {
			continue
		}
		if s.inflight[k] > 0 {
			return conflictKey
		}
		if !barge && s.claims[k].peek() != seq {
			return conflictOrder
		}
	}
	return conflictNone
}

func (s *shard) countConflict(kind int) {
	if kind == conflictOrder {
		s.stats.orderConflicts++
	} else {
		s.stats.keyConflicts++
	}
}

// scanShard performs the bounded associative search over one shard's
// pending lists — the per-shard analogue of the paper's dispatch-buffer
// scan. Ripe delayed entries mature into their bands first; then the
// bands are walked in scheduling order (bandOrder: highest first, a
// starved band boosted to the front). Each band list is seq-ascending,
// so a pending sequential barrier gates a band with a single comparison,
// and order preservation across key sets falls out of the claim queues:
// a later entry overlapping any earlier pending entry's key cannot head
// that key's claim queue, whatever their bands. Expired entries met by
// the scan are dropped to the dead-letter hook instead of dispatched.
//
// The shard lock is TryLock'd: a consumer never parks on a shard another
// consumer is already scanning (that consumer will dispatch whatever is
// dispatchable there). retry reports such an inconclusive skip, or a
// cross-shard TryLock failure; the caller rescans instead of sleeping.
func (q *Queue) scanShard(s *shard) (e *Entry, ok bool, retry bool) {
	if !s.mu.TryLock() {
		return nil, false, true
	}
	var expired []Message
	e, ok, retry = q.scanLocked(s, &expired)
	s.mu.Unlock()
	q.finishExpired(expired)
	return e, ok, retry
}

// scanLocked is scanShard's body. Caller holds s.mu and must pass the
// expired messages to finishExpired after unlocking.
//
//pdq:crossshard — holds s.mu; dispatch and expiry reach foreign shards.
func (q *Queue) scanLocked(s *shard, expired *[]Message) (e *Entry, ok, retry bool) {
	q.drainIntakeScan(s)
	// The barrier gate must be read AFTER the intake drain: a drained
	// entry's seq is fetched above, so if it landed past a pending
	// barrier, the barrier's floor store is ordered before that fetch and
	// this load is guaranteed to observe the gate. Reading the gate first
	// could dispatch a just-drained post-barrier entry ahead of the
	// barrier.
	barSeq := q.bar.minSeq.Load()
	var now int64 // fetched lazily: idle scans never read the clock; the first expiry check or dispatch does
	if s.timers.len() > 0 {
		now = nowNanos()
		s.matureRipe(now)
	}
	windowHit := false
	order := s.bandOrder()
	for _, b := range order {
		// The window budget is per band (as it is per shard): a higher
		// band full of order-conflicted entries must not exhaust the
		// budget before the band holding the oldest dispatchable entry
		// is reached — with nothing in flight that entry is the scan's
		// guaranteed find, the invariant that makes parking safe.
		scanned := 0
		for n := s.bands[b].head; n != nil; {
			if q.window > 0 && scanned >= q.window {
				windowHit = true
				break
			}
			if barSeq != 0 && n.seq >= barSeq {
				// Entries at or past a pending sequential barrier's queue
				// position may not dispatch until the barrier completes;
				// the band is seq-ordered, so the rest of it is blocked
				// too (other bands may still hold earlier entries).
				break
			}
			scanned++
			next := n.next
			if handled, r := q.expireIfDue(s, n, &now, expired); handled {
				retry = retry || r
				n = next
				continue
			}
			m := &n.msg
			if m.Mode == ModeNoSync {
				q.inflightAll.Add(1)
				s.unlink(n)
				q.releaseSlot()
				s.stats.dispatched++
				s.stats.noSyncDispatched++
				s.creditDispatch(int(b), n, &now)
				return n, true, retry
			}
			// ModeKeyed or ModeBarge (a keyless entry has an empty key set
			// and no conflicts; a barge entry skips the claim-order check
			// and has no claims to pop).
			barge := m.Mode == ModeBarge
			if n.smask == 1<<s.idx {
				kind := s.conflictLocal(q, m.Keys, n.seq, true, barge)
				if kind == conflictNone {
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
					return n, true, retry
				}
				s.countConflict(kind)
				n = next
				continue
			}
			ok2, kind, r := q.tryDispatchCross(s, n)
			if ok2 {
				s.creditDispatch(int(b), n, &now)
				return n, true, retry
			}
			if r {
				retry = true
			} else {
				s.countConflict(kind)
			}
			n = next
		}
	}
	if windowHit {
		s.stats.windowStalls++
	}
	return nil, false, retry
}

// tryDispatchCross attempts to dispatch a cross-shard entry homed on s
// (s.mu held). Foreign shards are TryLock'd — never blocked on while
// holding s.mu — so lock contention aborts with retry=true instead of
// risking an ABBA deadlock; the consumer rescans. On success every key is
// acquired on its owning shard and the entry is unlinked from s.
//
//pdq:crossshard
func (q *Queue) tryDispatchCross(s *shard, n *Entry) (ok bool, kind int, retry bool) {
	e := n
	barge := e.msg.Mode == ModeBarge
	// Cheap local pre-check before touching other shards.
	if kind := s.conflictLocal(q, e.msg.Keys, e.seq, false, barge); kind != conflictNone {
		return false, kind, false
	}
	var locked uint64
	defer func() { q.unlockMask(locked) }()
	for m := e.smask &^ (1 << s.idx); m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= 1 << i
		if !q.shards[i].mu.TryLock() {
			return false, conflictNone, true
		}
		locked |= 1 << i
	}
	for m := locked; m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= 1 << i
		f := &q.shards[i]
		if kind := f.conflictLocal(q, e.msg.Keys, e.seq, false, barge); kind != conflictNone {
			return false, kind, false
		}
	}
	// Dispatchable: acquire every key on its owning shard.
	q.inflightAll.Add(1)
	for _, k := range e.msg.Keys {
		o := q.shardOf(k)
		o.inflight[k]++
		if !barge {
			o.popClaim(k, e.seq)
		}
	}
	s.unlink(n)
	q.releaseSlot()
	s.stats.dispatched++
	if barge {
		s.stats.bargeDispatched++
	}
	if len(e.msg.Keys) > 1 {
		s.stats.multiKeyDispatched++
	}
	q.g.crossShard.Add(1)
	return true, conflictNone, false
}
