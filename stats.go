package pdq

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// LatencyBuckets is the bucket count of a LatencyHistogram. Bucket i
// counts dispatch latencies at or below LatencyBucketBound(i); the last
// bucket is the overflow and counts everything larger.
const LatencyBuckets = 28

// latencyBucketBase is the upper bound of bucket 0.
const latencyBucketBase = time.Microsecond

// LatencyBucketBound returns the inclusive upper bound of histogram
// bucket i: power-of-two multiples of 1µs, from 1µs (i = 0) to ~134s
// (i = LatencyBuckets-2). The last bucket (i = LatencyBuckets-1) is the
// overflow; its bound is reported as the maximum duration.
func LatencyBucketBound(i int) time.Duration {
	if i >= LatencyBuckets-1 {
		return time.Duration(math.MaxInt64)
	}
	return latencyBucketBase << i
}

// latencyBucket maps one latency to its histogram bucket.
func latencyBucket(d time.Duration) int {
	if d <= latencyBucketBase {
		return 0
	}
	// Bucket i covers (base<<(i-1), base<<i]: the index is the bit length
	// of ceil(d/base) - 1, i.e. of (d-1)/base.
	b := 64 - bits.LeadingZeros64(uint64(d-1)/uint64(latencyBucketBase))
	if b >= LatencyBuckets {
		return LatencyBuckets - 1
	}
	return b
}

// LatencyHistogram is a fixed-bucket latency distribution. The dispatch
// core records, per priority band, the time every message spends
// dispatchable before a consumer takes it: from enqueue (or from
// maturity, for WithDelay/WithNotBefore messages — the intentional delay
// is not queueing) to the dispatch that removes it from the pending
// list. Sequential barriers are not recorded (they carry no band).
// Buckets are power-of-two multiples of 1µs (LatencyBucketBound), so the
// histogram is cheap to record under the dispatch lock and exports
// directly as a Prometheus histogram.
type LatencyHistogram struct {
	Count    uint64                 `json:"count"`   // recorded dispatches
	SumNanos uint64                 `json:"sum_ns"`  // total latency, nanoseconds
	Buckets  [LatencyBuckets]uint64 `json:"buckets"` // counts per bucket (see LatencyBucketBound)
}

// Observe folds one latency into the histogram. It is not synchronized;
// concurrent recorders need external coordination (the queue records
// under its shard locks, pdqload from one goroutine per band).
func (h *LatencyHistogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Count++
	h.SumNanos += uint64(d)
	h.Buckets[latencyBucket(d)]++
}

// Merge adds o's samples into h. Like Observe, unsynchronized.
func (h *LatencyHistogram) Merge(o *LatencyHistogram) {
	h.Count += o.Count
	h.SumNanos += o.SumNanos
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Quantile returns an upper bound on the q-quantile latency (q in
// [0, 1]): the bound of the first bucket at or below which a fraction q
// of the recorded samples fall. With no samples it returns 0. The bound
// is conservative by at most one power of two — adequate for "is p99
// under 100ms" regression gates, which is what it exists for.
func (h LatencyHistogram) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := range h.Buckets {
		cum += h.Buckets[i]
		if cum >= target {
			return LatencyBucketBound(i)
		}
	}
	return LatencyBucketBound(LatencyBuckets - 1)
}

// Mean returns the mean recorded latency, 0 with no samples.
func (h LatencyHistogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumNanos / h.Count)
}

// Stats counts queue activity. All counters are cumulative since New. The
// JSON field names are stable so external tooling (cmd/pdqbench's
// BENCH_*.json, dashboards) can track them across versions.
type Stats struct {
	Enqueued           uint64 `json:"enqueued"`            // admissions (a retried entry re-counts)
	Rejected           uint64 `json:"rejected"`            // messages refused with ErrFull
	Dispatched         uint64 `json:"dispatched"`          // entries handed to callers (retries re-count)
	Completed          uint64 `json:"completed"`           // Complete calls
	SeqDispatched      uint64 `json:"seq_dispatched"`      // sequential entries dispatched
	NoSyncDispatched   uint64 `json:"nosync_dispatched"`   // nosync entries dispatched
	BargeDispatched    uint64 `json:"barge_dispatched"`    // barge entries dispatched (out-of-band key acquisitions)
	MultiKeyDispatched uint64 `json:"multikey_dispatched"` // entries with two or more keys dispatched
	KeyConflicts       uint64 `json:"key_conflicts"`       // scan skips due to an in-flight overlapping key
	OrderConflicts     uint64 `json:"order_conflicts"`     // scan skips preserving enqueue order behind an earlier overlapping claim
	SeqStalls          uint64 `json:"seq_stalls"`          // dispatch attempts stopped by a pending sequential barrier
	BarrierStalls      uint64 `json:"barrier_stalls"`      // dequeue attempts while a sequential handler ran
	WindowStalls       uint64 `json:"window_stalls"`       // scans exhausting a shard's search window
	Waits              uint64 `json:"waits"`               // blocking dequeue sleeps
	EnqueueWaits       uint64 `json:"enqueue_waits"`       // EnqueueWait sleeps for capacity
	CrossShard         uint64 `json:"cross_shard"`         // dispatched entries whose key set spanned shards
	Batches            uint64 `json:"batches"`             // successful batch harvests (TryDequeueBatch/DequeueBatch)
	BatchEntries       uint64 `json:"batch_entries"`       // messages dispatched through batch harvests (coalesced included)
	MaxBatch           int    `json:"max_batch"`           // largest single batch harvest, in messages
	Coalesced          uint64 `json:"coalesced"`           // messages merged into a representative entry beyond the first (WithCoalesce)
	Expired            uint64 `json:"expired"`             // entries dropped undispatched at their deadline (WithDeadline/WithTTL)
	Delayed            uint64 `json:"delayed"`             // entries admitted through the delayed path (WithDelay/WithNotBefore)
	TimerWakeups       uint64 `json:"timer_wakeups"`       // timed parks fired to mature delayed entries
	ChainHandoffs      uint64 `json:"chain_handoffs"`      // completions that dispatched their successor directly (CompleteNext)
	Panics             uint64 `json:"panics"`              // handler panics recovered by Run
	Released           uint64 `json:"released"`            // Release calls (failure-path completions)
	Retries            uint64 `json:"retries"`             // released entries re-enqueued for another attempt
	DeadLettered       uint64 `json:"dead_lettered"`       // entries handed to the dead-letter hook
	Shards             int    `json:"shards"`              // shard count of the dispatch core
	MaxPending         int    `json:"max_pending"`         // high-water mark of pending entries (summed per shard: an upper bound when shards > 1)
	MaxKeySet          int    `json:"max_key_set"`         // largest synchronization key set seen
	IntakeRing         int    `json:"intake_ring"`         // per-shard intake ring size (0 = mutex-only intake)
	RingPublished      uint64 `json:"ring_published"`      // lock-free intake-ring publishes (one still in flight included)
	RingFallbacks      uint64 `json:"ring_fallbacks"`      // ring-full publishes completed under the shard lock
	RingSpins          uint64 `json:"ring_spins"`          // producer spin iterations waiting for ring space
	RingMaxOccupancy   int    `json:"ring_max_occupancy"`  // deepest intake-ring backlog met by a drain (max across shards)
	NodesReclaimed     uint64 `json:"nodes_reclaimed"`     // pending-list nodes retired into the epoch pools when their entries resolved (or expired or coalesced)
	NodesCapped        uint64 `json:"nodes_capped"`        // nodes dropped to the GC at that retirement because an epoch pool was full
	TraceSampled       uint64 `json:"trace_sampled"`       // admissions elected for lifecycle tracing (WithTrace)
	TraceRecorded      uint64 `json:"trace_recorded"`      // trace events written into the flight-recorder rings
	TraceDropped       uint64 `json:"trace_dropped"`       // trace events lost to ring overwrite or torn reads (detected at TraceSnapshot)

	// PriorityDispatched counts dispatched messages per priority band
	// (band 0 first; coalesced messages and retries re-count, sequential
	// barriers are counted in SeqDispatched instead).
	PriorityDispatched [NumPriorities]uint64 `json:"priority_dispatched"`

	// BandLatency is the dispatch-latency distribution per priority band:
	// how long each dispatched entry sat dispatchable (enqueue — or
	// maturity, for delayed entries — to dispatch). Coalesced runs record
	// their representative once; sequential barriers are not recorded.
	BandLatency [NumPriorities]LatencyHistogram `json:"band_latency"`
}

// Stats returns a snapshot of the queue's counters, aggregated across the
// dispatch shards and the barrier queue.
func (q *Queue) Stats() Stats {
	var s Stats
	for i := range q.shards {
		sh := &q.shards[i]
		sh.mu.Lock()
		c := sh.stats
		sh.mu.Unlock()
		s.Enqueued += c.enqueued
		s.Dispatched += c.dispatched
		s.NoSyncDispatched += c.noSyncDispatched
		s.BargeDispatched += c.bargeDispatched
		s.MultiKeyDispatched += c.multiKeyDispatched
		s.KeyConflicts += c.keyConflicts
		s.OrderConflicts += c.orderConflicts
		s.WindowStalls += c.windowStalls
		s.MaxPending += c.maxPending
		s.Batches += c.batches
		s.BatchEntries += c.batchEntries
		s.Coalesced += c.coalesced
		s.Expired += c.expired
		s.Delayed += c.delayed
		for b := range c.prioDispatched {
			s.PriorityDispatched[b] += c.prioDispatched[b]
			s.BandLatency[b].Merge(&c.latency[b])
		}
		if c.maxBatch > s.MaxBatch {
			s.MaxBatch = c.maxBatch
		}
		if c.maxRingOcc > s.RingMaxOccupancy {
			s.RingMaxOccupancy = c.maxRingOcc
		}
		s.Completed += sh.completed.Load()
		fb := sh.in.fallbacks.Load()
		s.RingPublished += sh.in.tail.Load() - fb
		s.RingFallbacks += fb
		s.RingSpins += sh.in.spins.Load()
		s.NodesReclaimed += sh.pool.reclaimed.Load()
		s.NodesCapped += sh.pool.capped.Load()
	}
	s.IntakeRing = q.ring
	b := &q.bar
	b.mu.Lock()
	s.MaxPending += b.maxPending
	b.mu.Unlock()
	s.SeqDispatched = b.dispatched.Load()
	s.Enqueued += b.enqueued.Load()
	s.Dispatched += s.SeqDispatched
	s.Completed += b.completed.Load()
	s.Rejected = q.g.rejected.Load()
	s.BarrierStalls = q.g.barrierStalls.Load()
	s.SeqStalls = q.g.seqStalls.Load()
	s.Waits = q.g.waits.Load()
	s.EnqueueWaits = q.g.enqueueWaits.Load()
	s.CrossShard = q.g.crossShard.Load()
	s.Panics = q.g.panics.Load()
	s.Released = q.g.released.Load()
	s.Retries = q.g.retries.Load()
	s.DeadLettered = q.g.deadLettered.Load()
	s.TimerWakeups = q.g.timerWakeups.Load()
	s.ChainHandoffs = q.g.handoffs.Load()
	s.MaxKeySet = int(q.g.maxKeySet.Load())
	s.Shards = len(q.shards)
	if t := q.tr; t != nil {
		s.TraceSampled = t.sampled.Load()
		s.TraceRecorded = t.recorded.Load()
		s.TraceDropped = t.dropped.Load()
	}
	return s
}

// String renders the counters compactly for logs and reports.
func (s Stats) String() string {
	return fmt.Sprintf(
		"enq=%d disp=%d done=%d seq=%d nosync=%d barge=%d multikey=%d conflicts=%d orderConflicts=%d seqStalls=%d barrierStalls=%d windowStalls=%d waits=%d enqWaits=%d crossShard=%d batches=%d batchEntries=%d maxBatch=%d coalesced=%d expired=%d delayed=%d timerWakeups=%d handoffs=%d prio=%v panics=%d released=%d retries=%d deadLettered=%d shards=%d maxPending=%d maxKeySet=%d rejected=%d ring=%d ringPub=%d ringFallbacks=%d ringSpins=%d ringMaxOcc=%d nodesReclaimed=%d nodesCapped=%d traceSampled=%d traceRecorded=%d traceDropped=%d",
		s.Enqueued, s.Dispatched, s.Completed, s.SeqDispatched, s.NoSyncDispatched,
		s.BargeDispatched, s.MultiKeyDispatched, s.KeyConflicts, s.OrderConflicts, s.SeqStalls, s.BarrierStalls,
		s.WindowStalls, s.Waits, s.EnqueueWaits, s.CrossShard,
		s.Batches, s.BatchEntries, s.MaxBatch, s.Coalesced,
		s.Expired, s.Delayed, s.TimerWakeups, s.ChainHandoffs, s.PriorityDispatched,
		s.Panics, s.Released, s.Retries, s.DeadLettered,
		s.Shards, s.MaxPending, s.MaxKeySet, s.Rejected,
		s.IntakeRing, s.RingPublished, s.RingFallbacks, s.RingSpins,
		s.RingMaxOccupancy, s.NodesReclaimed, s.NodesCapped,
		s.TraceSampled, s.TraceRecorded, s.TraceDropped)
}
