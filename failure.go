package pdq

import (
	"errors"
	"fmt"
	"log"
	"runtime/debug"
)

// PanicError is the error a recovered handler panic is converted into:
// Run wraps the panic value and the stack captured at recovery and passes
// it to Release, so the failure policy (retry, dead-letter) and the
// dead-letter hook see the panic as an ordinary error.
type PanicError struct {
	Value any    // the value the handler panicked with
	Stack []byte // stack trace captured at the recovery point
}

// Error renders the panic value.
func (p *PanicError) Error() string {
	return fmt.Sprintf("pdq: handler panic: %v", p.Value)
}

// Unwrap exposes the panic value when it is itself an error, so
// errors.Is/As work through a PanicError.
func (p *PanicError) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Release is the failure-path dual of Complete: it frees the entry's key
// set (or the sequential barrier) exactly like Complete, but instead of
// counting the entry completed it routes it through the queue's failure
// policy. With retry budget remaining (WithRetry) the entry is re-enqueued
// at the tail with a fresh sequence number, its attempt count incremented
// and err recorded for the next dispatch to observe via Entry.Err — a
// closed queue included, since the entry was admitted before the close;
// otherwise — budget exhausted, no budget configured, or the queue at
// capacity — the entry's Message and err go to the dead-letter hook
// (WithDeadLetter; by default they are logged). An entry that coalesced
// several messages (WithCoalesce) routes every message it carries
// through the policy individually — each retried message re-enqueues as
// its own entry, each terminal one reaches the dead-letter hook with its
// own Message — because the queue cannot know which payload of the
// merged invocation failed. Like Complete, Release must be called
// exactly once per dispatched entry, in place of Complete.
func (q *Queue) Release(e *Entry, err error) {
	ws := q.releaseEntryState(e)
	q.g.released.Add(1)
	if t := q.tr; t != nil && e.msg.TraceID != 0 {
		t.record(q.shardFromMask(e.smask).idx, e.msg.TraceID, TraceRelease, e.seq, int64(e.attempt))
	}
	// Each retried message is linked (pending > 0) before the in-flight
	// count drops below, so a concurrent Drain cannot observe an idle
	// queue between the two.
	q.resolveFailed(e.msg, e.attempt, err)
	for _, m := range e.extraList() {
		q.resolveFailed(m, e.attempt, err)
	}
	nkeys := len(e.msg.Keys)
	e.retire()
	q.finishInflight(ws, nkeys)
}

// resolveFailed routes one released message through the failure policy:
// retry when budget remains, dead-letter otherwise.
func (q *Queue) resolveFailed(m Message, attempt uint32, err error) {
	if q.requeue(m, attempt, err) {
		q.g.retries.Add(1)
		if t := q.tr; t != nil && m.TraceID != 0 {
			t.record(0, m.TraceID, TraceRetry, 0, int64(attempt)+1)
		}
		return
	}
	q.deadLetterMsg(m, err)
}

// requeue re-admits a released message for its next attempt. The message
// keeps its scheduling shape: its priority band, and its deadline — so a
// WithTTL budget bounds total queue residency across attempts, and a
// retry admitted past the deadline expires (dead-letters with ErrExpired)
// instead of dispatching. The dispatched entry gave its capacity slot
// back at dispatch time, so on a
// bounded queue the retry must win a fresh slot — retries take no
// precedence over live producers, and a full queue fails the retry into
// the dead-letter path rather than blocking a worker. A closed queue
// does NOT fail the retry: the message was admitted before the close,
// and Close's contract is that admitted work still dispatches (the
// re-admission with attempt > 0 bypasses the enqueue-side closed check).
// That cannot strand the message: it is linked before the releasing
// worker retires the in-flight count, so that worker's next dequeue — at
// the latest — finds it.
func (q *Queue) requeue(m Message, attempt uint32, err error) bool {
	if q.retry <= 0 || attempt >= uint32(q.retry) {
		return false
	}
	if errors.Is(err, ErrHandlerExited) {
		// The goroutine that released this entry is unwinding under
		// runtime.Goexit — the very goroutine the no-strand argument
		// above relies on to pick the retry up. With it dying (and one
		// more worker dying per further attempt), retrying can strand
		// the entry; the failure is also not transient in any useful
		// sense, so it dead-letters directly.
		return false
	}
	if q.cap > 0 && !q.tryReserveSlot() {
		return false
	}
	return q.enqueueReserved(&m, attempt+1, err) == nil
}

// deadLetterMsg hands a terminally failed message to the dead-letter
// hook. The hook runs before the entry's in-flight count is retired, so
// Drain and Close observe dead-lettering as part of the entry's
// lifetime. A panicking hook is contained (logged), never allowed to
// kill the worker the way the handler's own panic would have.
func (q *Queue) deadLetterMsg(m Message, err error) {
	q.g.deadLettered.Add(1)
	if t := q.tr; t != nil && m.TraceID != 0 {
		t.record(0, m.TraceID, TraceDeadLetter, 0, 0)
	}
	hook := q.deadLetter
	if hook == nil {
		hook = logDeadLetter
	}
	defer func() {
		if r := recover(); r != nil {
			log.Printf("pdq: dead-letter hook panicked: %v", r)
		}
	}()
	hook(m, err)
}

// logDeadLetter is the default dead-letter policy.
func logDeadLetter(m Message, err error) {
	log.Printf("pdq: dead-letter %s entry (keys=%v): %v", m.Mode, m.Keys, err)
}

// Run executes a dequeued entry's handler with the failure lifecycle
// applied: on normal return it calls Complete, and on a handler panic it
// recovers, converts the panic into a *PanicError, and calls Release, so
// the entry's keys are freed and the calling goroutine survives. Pool and
// MuxPool workers execute every entry through Run; manual TryDequeue and
// DequeueContext callers should too, instead of invoking the handler and
// Complete themselves. Run returns nil on success and the *PanicError on
// a recovered panic. The handler must not call Complete or Release itself.
func (q *Queue) Run(e *Entry) error {
	if pe := q.runHandler(e); pe != nil {
		q.g.panics.Add(1)
		q.Release(e, pe)
		return pe
	}
	q.Complete(e)
	return nil
}

// RunNext executes e like Run but completes through CompleteNext,
// returning the chain-handoff successor when one was immediately
// dispatchable on the released shard. A failing handler follows the
// normal Release path and never hands off. Serve's workers use this to
// stay glued to a deep per-key chain instead of re-entering the general
// dequeue scan between links.
func (q *Queue) RunNext(e *Entry) (next *Entry, ok bool, err error) {
	if pe := q.runHandler(e); pe != nil {
		q.g.panics.Add(1)
		q.Release(e, pe)
		return nil, false, pe
	}
	next, ok = q.CompleteNext(e)
	return next, ok, nil
}

// runHandler invokes the entry's handler with the recover scoped to the
// handler alone. Complete runs outside the guarded region on purpose: a
// panic out of Complete's own invariant checks (say, a handler that
// wrongly called Complete itself) must not be misclassified as a handler
// failure and answered with a second release of the same key state.
// runtime.Goexit gets the same containment as a panic: it runs defers
// with no panic value, so a recover-only guard would leak the entry's
// keys as the goroutine unwinds — the returned flag distinguishes the
// two and the entry is Released before the Goexit continues.
func (q *Queue) runHandler(e *Entry) (pe *PanicError) {
	e.checkLive() // outside the guard: misuse is not a handler failure
	returned := false
	defer func() {
		if r := recover(); r != nil {
			pe = &PanicError{Value: r, Stack: debug.Stack()}
		} else if !returned {
			// runtime.Goexit is unwinding this goroutine. Resolve the
			// entry on the way out; the unwinding then proceeds.
			q.Release(e, ErrHandlerExited)
		}
	}()
	m := &e.msg
	t := q.tr
	if t != nil && m.TraceID != 0 {
		t.record(q.shardFromMask(e.smask).idx, m.TraceID, TraceHandlerStart, e.seq, int64(e.attempt))
	}
	if m.Batch != nil {
		// Batch-form handler (BatchHandler): one invocation covers every
		// message the entry carries — one, unless coalescing merged more.
		m.Batch(e.payloads())
	} else {
		m.Handler(m.Data)
	}
	returned = true
	if t != nil && m.TraceID != 0 {
		t.record(q.shardFromMask(e.smask).idx, m.TraceID, TraceHandlerEnd, e.seq, 0)
	}
	return nil
}
