package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pdq"
)

// rec is the benchmark's record of one message: its generated inputs, the
// instants the benchmark observed for it, and the handler-run count the
// exactly-once check reads. A message's Data is its *rec.
type rec struct {
	id     uint64
	stream int    // per-stream ordering scope: connection or origin node
	ord    uint64 // 1-based per-(stream, key) ordinal; 0 = not order-checked
	spec   msgSpec
	keys   [2]pdq.Key

	due   int64  // when the message was due to be handled, bench clock ns
	start int64  // handler start
	end   int64  // handler end
	span  uint32 // traced: the span that ran the handler
	phase uint8  // phaseWarm, phaseMeasure or phaseTraced

	// enqRet is when the send call returned (traced runs). The handler
	// may start before it is stamped, so it is atomic.
	enqRet atomic.Int64

	runs  atomic.Int32
	state atomic.Uint32 // recPending, recDone or recDead

	// http only: the id published after the record is filled (the
	// handler reaches the record through the wire, not through pdq),
	// and the server-side times the traced run takes.
	pub     atomic.Uint64
	serveAt int64
	serveNs atomic.Int64
}

// Record states: a record may be reused once it is no longer pending.
const (
	recPending uint32 = iota
	recDone           // the handler returned
	recDead           // the program dead-lettered the message
)

// reset readies a (reused) record for a new message.
func (r *rec) reset(id uint64, stream int, spec msgSpec, phase uint8) {
	r.id, r.stream, r.spec, r.phase = id, stream, spec, phase
	for i := 0; i < spec.nkeys; i++ {
		r.keys[i] = pdq.Key(spec.keys[i])
	}
	r.ord, r.due, r.start, r.end, r.span, r.serveAt = 0, 0, 0, 0, 0, 0
	r.enqRet.Store(0)
	r.serveNs.Store(0)
	r.runs.Store(0)
	r.state.Store(recPending)
}

// keySlice returns the message's key set, aliasing the record.
func (r *rec) keySlice() []pdq.Key { return r.keys[:r.spec.nkeys] }

// checker verifies the program's outputs while it runs:
//   - every message's handler runs exactly once (runs counter);
//   - no two messages with overlapping key sets run at the same time
//     (per-key holder slots, claimed with compare-and-swap);
//   - a Sequential message runs alone (it publishes itself, then scans
//     every holder slot; keyed handlers claim their slots, then look for a
//     running Sequential — with sequentially consistent atomics, at least
//     one of two overlapping handlers sees the other);
//   - single-key messages of one stream run in the order they were sent
//     (per-(stream, key) ordinals advanced with compare-and-swap).
//
// Every violation counts as a failed operation.
type checker struct {
	nkeys   int
	holder  []atomic.Uint64 // per key: id of the running holder, 0 = free
	seqRun  atomic.Uint64   // id of the running Sequential, 0 = none
	lastOrd []atomic.Uint64 // per (stream, key): last ordinal run

	violations atomic.Int64
	mu         sync.Mutex
	first      string
}

func newChecker(nkeys, streams int) *checker {
	return &checker{
		nkeys:   nkeys,
		holder:  make([]atomic.Uint64, nkeys),
		lastOrd: make([]atomic.Uint64, nkeys*streams),
	}
}

func (c *checker) fail(format string, args ...any) {
	if c.violations.Add(1) == 1 {
		c.mu.Lock()
		c.first = fmt.Sprintf(format, args...)
		c.mu.Unlock()
	}
}

// firstViolation describes the first violation seen, "" when none.
func (c *checker) firstViolation() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.first
}

// begin runs at handler start.
func (c *checker) begin(r *rec) {
	if n := r.runs.Add(1); n != 1 {
		c.fail("message %d ran %d times", r.id, n)
	}
	if r.spec.seq {
		if !c.seqRun.CompareAndSwap(0, r.id) {
			c.fail("sequential %d overlapped sequential %d", r.id, c.seqRun.Load())
		}
		for k := range c.holder {
			if h := c.holder[k].Load(); h != 0 {
				c.fail("sequential %d ran while %d held key %d", r.id, h, k)
			}
		}
		return
	}
	for _, k := range r.spec.keys[:r.spec.nkeys] {
		if !c.holder[k].CompareAndSwap(0, r.id) {
			c.fail("message %d ran while %d held key %d", r.id, c.holder[k].Load(), k)
		}
	}
	if s := c.seqRun.Load(); s != 0 {
		c.fail("message %d ran during sequential %d", r.id, s)
	}
	if r.ord != 0 {
		slot := &c.lastOrd[r.stream*c.nkeys+int(r.spec.keys[0])]
		if !slot.CompareAndSwap(r.ord-1, r.ord) {
			c.fail("message %d (stream %d key %d) ran as #%d after #%d",
				r.id, r.stream, r.spec.keys[0], r.ord, slot.Load())
		}
	}
}

// end runs at handler end.
func (c *checker) end(r *rec) {
	if r.spec.seq {
		c.seqRun.CompareAndSwap(r.id, 0)
		return
	}
	for _, k := range r.spec.keys[:r.spec.nkeys] {
		if !c.holder[k].CompareAndSwap(r.id, 0) {
			c.fail("message %d lost key %d to %d", r.id, k, c.holder[k].Load())
		}
	}
}

// settled checks that a finished message ran exactly once; call it when
// the message is known to be complete (drained) or before reusing r.
func (c *checker) settled(r *rec) {
	if r.state.Load() == recDead {
		return // counted as failed when it was dead-lettered
	}
	if n := r.runs.Load(); n != 1 {
		c.fail("message %d ran %d times", r.id, n)
	}
}

// recRing is a fixed pool of records reused in id order, for workloads
// that send without bound: the record for id is recs[id % len], and it is
// handed out again only after its previous message settled.
type recRing struct{ recs []rec }

func newRecRing(n int) *recRing { return &recRing{recs: make([]rec, n)} }

// slotWait bounds how long take waits for a record's previous message.
const slotWait = 30 * time.Second

// take returns the record for id once its previous occupant is settled,
// checking that occupant ran exactly once.
func (rr *recRing) take(id uint64, c *checker) (*rec, error) {
	r := &rr.recs[id%uint64(len(rr.recs))]
	if r.id == 0 {
		return r, nil
	}
	if r.state.Load() == recPending {
		deadline := now() + int64(slotWait)
		for r.state.Load() == recPending {
			if now() > deadline {
				return nil, fmt.Errorf("message %d still pending after %v", r.id, slotWait)
			}
			// Sleep rather than yield: a sender held back by a backlog
			// leaves the CPUs to the system it waits on.
			time.Sleep(50 * time.Microsecond)
		}
	}
	c.settled(r)
	return r, nil
}

// settleAll checks every record still holding a message.
func (rr *recRing) settleAll(c *checker) {
	for i := range rr.recs {
		if rr.recs[i].id != 0 {
			c.settled(&rr.recs[i])
		}
	}
}

// ordinals hands out per-(stream, key) ordinals on the sending side. One
// sender owns a stream, so it needs no synchronization.
type ordinals struct {
	nkeys int
	next  []uint64
}

func newOrdinals(nkeys, streams int) *ordinals {
	return &ordinals{nkeys: nkeys, next: make([]uint64, nkeys*streams)}
}

// assign sets r.ord for an order-checked message (single key, not
// Sequential) and leaves it 0 otherwise.
func (o *ordinals) assign(r *rec) {
	r.ord = 0
	if r.spec.seq || r.spec.nkeys != 1 {
		return
	}
	i := r.stream*o.nkeys + int(r.spec.keys[0])
	o.next[i]++
	r.ord = o.next[i]
}
