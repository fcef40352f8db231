package pdq

import (
	"bytes"
	"context"
	"errors"
	"log"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPanicRetryDeadLetterAcrossShards is the wedge regression in full: a
// handler panics while holding a key set spanning two shards. The pool
// worker must survive, a later entry on one of those keys must dispatch,
// the entry must be retried exactly WithRetry(n) times and then delivered
// to the dead-letter hook with its original Message and error, and the
// stats must account for every step.
func TestPanicRetryDeadLetterAcrossShards(t *testing.T) {
	const retries = 2
	type deadLetter struct {
		m   Message
		err error
	}
	dlCh := make(chan deadLetter, 1)
	q := New(WithShards(4), WithRetry(retries), WithDeadLetter(func(m Message, err error) {
		dlCh <- deadLetter{m, err}
	}))
	ks := distinctShardKeys(t, q, 2)
	a, b := ks[0], ks[1]

	pool := Serve(context.Background(), q, 4)
	var attempts atomic.Int32
	var bRan atomic.Bool
	gate := make(chan struct{})
	mustEnqueue(t, q.Enqueue(func(any) {
		if attempts.Add(1) == 1 {
			// Hold the first failure until the {b} entry below is
			// enqueued, so its claim on b deterministically precedes
			// every retry's and it MUST dispatch (and complete) before
			// the first retry can run.
			<-gate
		}
		panic("boom")
	}, WithKeys(a, b), WithData("payload")))
	mustEnqueue(t, q.Enqueue(func(any) { bRan.Store(true) }, WithKey(b)))
	close(gate)

	var got deadLetter
	select {
	case got = <-dlCh:
	case <-time.After(10 * time.Second):
		t.Fatal("dead-letter hook never invoked: panicking entry wedged the queue")
	}
	if n := attempts.Load(); n != retries+1 {
		t.Fatalf("panicking handler executed %d times, want %d (1 + %d retries)", n, retries+1, retries)
	}
	if got.m.Data != "payload" {
		t.Fatalf("dead-letter Data = %v, want original payload", got.m.Data)
	}
	if len(got.m.Keys) != 2 || got.m.Keys[0] != a || got.m.Keys[1] != b {
		t.Fatalf("dead-letter Keys = %v, want [%d %d]", got.m.Keys, a, b)
	}
	var pe *PanicError
	if !errors.As(got.err, &pe) || pe.Value != "boom" {
		t.Fatalf("dead-letter err = %v, want *PanicError wrapping \"boom\"", got.err)
	}
	if !bRan.Load() {
		// The retry re-enqueues at the tail, so the {b} entry must have
		// dispatched (and completed) before the first retry could run.
		t.Fatal("entry on key b never dispatched after the panicking holder released it")
	}

	// The worker that recovered the panic keeps serving: a fresh entry on
	// the panicked key set completes.
	done := make(chan struct{})
	mustEnqueue(t, q.Enqueue(func(any) { close(done) }, WithKeys(a, b)))
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pool did not survive the handler panic")
	}

	q.Drain() // must return: nothing pending, nothing in flight
	q.Close()
	pool.Wait()

	s := q.Stats()
	if s.Panics != retries+1 {
		t.Fatalf("Stats.Panics = %d, want %d", s.Panics, retries+1)
	}
	if s.Released != retries+1 {
		t.Fatalf("Stats.Released = %d, want %d", s.Released, retries+1)
	}
	if s.Retries != retries {
		t.Fatalf("Stats.Retries = %d, want %d", s.Retries, retries)
	}
	if s.DeadLettered != 1 {
		t.Fatalf("Stats.DeadLettered = %d, want 1", s.DeadLettered)
	}
	if s.Completed != 2 {
		t.Fatalf("Stats.Completed = %d, want 2 (the two non-panicking entries)", s.Completed)
	}
}

// TestReleaseRetryCarriesAttemptAndErr drives the manual-dequeue lifecycle:
// Release re-enqueues at the tail with a fresh sequence number and the
// retried entry reports its attempt count and last error.
func TestReleaseRetryCarriesAttemptAndErr(t *testing.T) {
	q := New(WithRetry(1), WithDeadLetter(func(Message, error) {
		t.Error("entry with retry budget must not dead-letter")
	}))
	sentinel := errors.New("transient failure")
	mustEnqueue(t, q.Enqueue(func(any) {}, WithKey(7)))

	e, ok := q.TryDequeue()
	if !ok {
		t.Fatal("entry not dispatchable")
	}
	if e.Attempt() != 0 || e.Err() != nil {
		t.Fatalf("first dispatch: Attempt=%d Err=%v, want 0, nil", e.Attempt(), e.Err())
	}
	seq1 := e.Seq()
	q.Release(e, sentinel)

	e2, ok := q.TryDequeue()
	if !ok {
		t.Fatal("released entry was not re-enqueued")
	}
	if e2.Attempt() != 1 {
		t.Fatalf("retry Attempt = %d, want 1", e2.Attempt())
	}
	if !errors.Is(e2.Err(), sentinel) {
		t.Fatalf("retry Err = %v, want the Release error", e2.Err())
	}
	if e2.Seq() <= seq1 {
		t.Fatalf("retry seq %d not after original %d: retries must join at the tail", e2.Seq(), seq1)
	}
	q.Complete(e2)

	s := q.Stats()
	if s.Released != 1 || s.Retries != 1 || s.DeadLettered != 0 || s.Completed != 1 {
		t.Fatalf("stats = released %d retries %d deadLettered %d completed %d, want 1 1 0 1",
			s.Released, s.Retries, s.DeadLettered, s.Completed)
	}
}

// TestSequentialPanicReleasesBarrier: a panicking sequential handler must
// release the cross-shard barrier (after its retries), or every later
// entry is blocked forever.
func TestSequentialPanicReleasesBarrier(t *testing.T) {
	var dead atomic.Int32
	q := New(WithShards(2), WithRetry(1), WithDeadLetter(func(Message, error) { dead.Add(1) }))
	pool := Serve(context.Background(), q, 2)

	var attempts atomic.Int32
	mustEnqueue(t, q.Enqueue(func(any) {
		attempts.Add(1)
		panic("sequential boom")
	}, Sequential()))
	done := make(chan struct{})
	mustEnqueue(t, q.Enqueue(func(any) { close(done) }, WithKey(3)))

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("barrier never released after sequential handler panic")
	}
	q.Close()
	pool.Wait()

	if n := attempts.Load(); n != 2 {
		t.Fatalf("sequential handler executed %d times, want 2 (1 + 1 retry)", n)
	}
	if dead.Load() != 1 {
		t.Fatalf("dead-lettered %d sequential entries, want 1", dead.Load())
	}
	s := q.Stats()
	if s.SeqDispatched != 2 {
		t.Fatalf("Stats.SeqDispatched = %d, want 2", s.SeqDispatched)
	}
	if s.Completed != 1 {
		t.Fatalf("Stats.Completed = %d, want 1 (released barriers are not completions)", s.Completed)
	}
}

// TestDrainReturnsAfterPanic: Drain must not hang on an entry that fails
// its way through retries to the dead-letter hook.
func TestDrainReturnsAfterPanic(t *testing.T) {
	q := New(WithRetry(1), WithDeadLetter(func(Message, error) {}))
	pool := Serve(context.Background(), q, 1)
	mustEnqueue(t, q.Enqueue(func(any) { panic("x") }, WithKey(1)))

	done := make(chan struct{})
	go func() {
		q.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain hung after a panicking handler")
	}
	q.Close()
	pool.Wait()
}

// TestRunRecoversPanic exercises the guarded-execution helper directly on
// the manual dequeue path.
func TestRunRecoversPanic(t *testing.T) {
	sentinel := errors.New("inner cause")
	q := New(WithDeadLetter(func(Message, error) {}))
	mustEnqueue(t, q.Enqueue(func(any) { panic(sentinel) }, WithKey(1)))

	e, ok := q.TryDequeue()
	if !ok {
		t.Fatal("entry not dispatchable")
	}
	err := q.Run(e)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %v, want *PanicError", err)
	}
	if !errors.Is(err, sentinel) {
		t.Fatal("PanicError must unwrap to the panicked error value")
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError captured no stack")
	}

	// The key was released: a second entry on it dispatches and Run
	// returns nil on success.
	mustEnqueue(t, q.Enqueue(func(any) {}, WithKey(1)))
	e2, ok := q.TryDequeue()
	if !ok {
		t.Fatal("key still held after Run recovered the panic")
	}
	if err := q.Run(e2); err != nil {
		t.Fatalf("Run of a clean handler returned %v", err)
	}
	s := q.Stats()
	if s.Panics != 1 || s.Released != 1 || s.DeadLettered != 1 || s.Completed != 1 {
		t.Fatalf("stats = panics %d released %d deadLettered %d completed %d, want 1 1 1 1",
			s.Panics, s.Released, s.DeadLettered, s.Completed)
	}
}

// TestDefaultDeadLetterLogs: with no hook installed, a terminally failed
// entry is logged rather than dropped silently.
func TestDefaultDeadLetterLogs(t *testing.T) {
	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)

	q := New()
	mustEnqueue(t, q.Enqueue(func(any) {}, WithKey(5)))
	e, ok := q.TryDequeue()
	if !ok {
		t.Fatal("entry not dispatchable")
	}
	q.Release(e, errors.New("kaput"))

	if out := buf.String(); !strings.Contains(out, "dead-letter") || !strings.Contains(out, "kaput") {
		t.Fatalf("default dead-letter policy logged %q, want the entry and error", out)
	}
	if s := q.Stats(); s.DeadLettered != 1 {
		t.Fatalf("Stats.DeadLettered = %d, want 1", s.DeadLettered)
	}
}

// TestPanickingDeadLetterHookIsContained: a hook that panics must not kill
// the releasing worker or leak the entry's in-flight count.
func TestPanickingDeadLetterHookIsContained(t *testing.T) {
	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)

	q := New(WithDeadLetter(func(Message, error) { panic("hook bug") }))
	pool := Serve(context.Background(), q, 1)
	mustEnqueue(t, q.Enqueue(func(any) { panic("handler bug") }, WithKey(1)))

	done := make(chan struct{})
	mustEnqueue(t, q.Enqueue(func(any) { close(done) }, WithKey(1)))
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not survive a panicking dead-letter hook")
	}
	q.Close()
	pool.Wait()
	if !strings.Contains(buf.String(), "dead-letter hook panicked") {
		t.Fatal("panicking hook was not logged")
	}
}

// TestRetryCapacityAccounting: a retried entry must hold a real capacity
// slot (no silent over-admission), and a full queue fails the retry into
// the dead-letter path instead of corrupting the slot count.
func TestRetryCapacityAccounting(t *testing.T) {
	var dead atomic.Int32
	q := New(WithCapacity(1), WithRetry(5), WithDeadLetter(func(Message, error) { dead.Add(1) }))
	errBoom := errors.New("boom")

	mustEnqueue(t, q.Enqueue(func(any) {}, WithKey(1))) // fills the only slot
	if err := q.Enqueue(func(any) {}, WithKey(2)); !errors.Is(err, ErrFull) {
		t.Fatalf("enqueue on full queue returned %v, want ErrFull", err)
	}
	e, ok := q.TryDequeue() // dispatch frees the slot
	if !ok {
		t.Fatal("entry not dispatchable")
	}
	q.Release(e, errBoom) // the retry must reclaim the slot
	if err := q.Enqueue(func(any) {}, WithKey(2)); !errors.Is(err, ErrFull) {
		t.Fatalf("retried entry must occupy a capacity slot, enqueue returned %v", err)
	}
	e, ok = q.TryDequeue()
	if !ok {
		t.Fatal("retried entry not dispatchable")
	}
	mustEnqueue(t, q.Enqueue(func(any) {}, WithKey(2))) // takes the freed slot
	q.Release(e, errBoom)                               // no slot for the retry: dead-letter
	if dead.Load() != 1 {
		t.Fatalf("retry against a full queue dead-lettered %d entries, want 1", dead.Load())
	}
	e2, ok := q.TryDequeue()
	if !ok {
		t.Fatal("independent entry not dispatchable")
	}
	q.Complete(e2)

	s := q.Stats()
	if s.Retries != 1 || s.DeadLettered != 1 {
		t.Fatalf("stats = retries %d deadLettered %d, want 1 1", s.Retries, s.DeadLettered)
	}
}

// TestRetryAfterClose: an entry admitted before Close keeps its retry
// budget after it — Close's contract is that admitted work still runs.
func TestRetryAfterClose(t *testing.T) {
	const retries = 2
	dlCh := make(chan struct{}, 1)
	q := New(WithRetry(retries), WithDeadLetter(func(Message, error) { dlCh <- struct{}{} }))
	pool := Serve(context.Background(), q, 1)
	var attempts atomic.Int32
	mustEnqueue(t, q.Enqueue(func(any) {
		attempts.Add(1)
		time.Sleep(time.Millisecond) // let Close land before the panic
		panic("late failure")
	}, WithKey(1)))
	q.Close()
	pool.Wait() // must return: the retries run to exhaustion, then drain

	select {
	case <-dlCh:
	default:
		t.Fatal("entry was never dead-lettered")
	}
	if n := attempts.Load(); n != retries+1 {
		t.Fatalf("handler executed %d times, want %d: Close must not cancel the retry budget", n, retries+1)
	}
}

// TestEnqueueMessageCopiesKeys: the queue must own the key slice from
// admission on. The caller reuses one backing array for every message
// while workers concurrently dispatch — under the race detector this is
// also an aliasing regression test.
func TestEnqueueMessageCopiesKeys(t *testing.T) {
	q := New(WithShards(4))
	pool := Serve(context.Background(), q, 2)
	var done atomic.Int32
	keys := make([]Key, 2)
	h := func(any) { done.Add(1) }
	const n = 200
	for i := 0; i < n; i++ {
		keys[0], keys[1] = Key(2*i), Key(2*i+1)
		if err := q.EnqueueMessage(Message{Mode: ModeKeyed, Keys: keys, Handler: h}); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	pool.Wait()
	if done.Load() != n {
		t.Fatalf("completed %d of %d entries enqueued from a reused key slice", done.Load(), n)
	}
}

// TestRunReleasesOnGoexit: a handler that kills its goroutine with
// runtime.Goexit (t.Fatal from a handler, in practice) must still resolve
// the entry — the keys are released and the entry dead-letters with
// ErrHandlerExited before the goroutine finishes unwinding.
func TestRunReleasesOnGoexit(t *testing.T) {
	dlCh := make(chan error, 1)
	q := New(WithDeadLetter(func(_ Message, err error) { dlCh <- err }))
	mustEnqueue(t, q.Enqueue(func(any) { runtime.Goexit() }, WithKey(1)))
	e, ok := q.TryDequeue()
	if !ok {
		t.Fatal("entry not dispatchable")
	}
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		q.Run(e)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		t.Fatal("Run goroutine never unwound")
	}
	select {
	case err := <-dlCh:
		if !errors.Is(err, ErrHandlerExited) {
			t.Fatalf("dead-letter error = %v, want ErrHandlerExited", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Goexit handler never dead-lettered")
	}
	// The key is free again.
	mustEnqueue(t, q.Enqueue(func(any) {}, WithKey(1)))
	e2, ok := q.TryDequeue()
	if !ok {
		t.Fatal("key still held after Goexit release")
	}
	q.Complete(e2)
	if s := q.Stats(); s.Released != 1 || s.DeadLettered != 1 || s.Panics != 0 {
		t.Fatalf("stats = released %d deadLettered %d panics %d, want 1 1 0",
			s.Released, s.DeadLettered, s.Panics)
	}
}

// TestGoexitBypassesRetry: a Goexit release must not consume the retry
// budget — each attempt would kill the worker executing it, and with one
// worker the retried entry would strand and wedge Drain.
func TestGoexitBypassesRetry(t *testing.T) {
	dlCh := make(chan error, 1)
	q := New(WithRetry(3), WithDeadLetter(func(_ Message, err error) { dlCh <- err }))
	pool := Serve(context.Background(), q, 1)
	var runs atomic.Int32
	mustEnqueue(t, q.Enqueue(func(any) {
		runs.Add(1)
		runtime.Goexit()
	}, WithKey(1)))

	select {
	case err := <-dlCh:
		if !errors.Is(err, ErrHandlerExited) {
			t.Fatalf("dead-letter error = %v, want ErrHandlerExited", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Goexit entry was retried instead of dead-lettered: queue wedged")
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("handler executed %d times, want 1 (no retries on Goexit)", n)
	}
	drained := make(chan struct{})
	go func() {
		q.Drain()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain hung after Goexit release")
	}
	q.Close()
	pool.Wait() // the dead worker's deferred wg.Done ran during unwinding
	if s := q.Stats(); s.Retries != 0 || s.DeadLettered != 1 {
		t.Fatalf("stats = retries %d deadLettered %d, want 0 1", s.Retries, s.DeadLettered)
	}
}

// resolveCalls names the resolving calls the double-resolve regression
// mixes; each takes a dispatched entry and resolves it.
var resolveCalls = []struct {
	name string
	do   func(q *Queue, e *Entry)
}{
	{"Complete", func(q *Queue, e *Entry) { q.Complete(e) }},
	{"Release", func(q *Queue, e *Entry) { q.Release(e, errors.New("boom")) }},
	{"Run", func(q *Queue, e *Entry) { _ = q.Run(e) }},
	{"RunBatch", func(q *Queue, e *Entry) { _ = q.RunBatch([]*Entry{e}) }},
	{"CompleteNext", func(q *Queue, e *Entry) {
		if next, ok := q.CompleteNext(e); ok {
			q.Complete(next)
		}
	}},
}

// resolvePanic runs do and returns the value it panicked with, nil if none.
func resolvePanic(do func()) (v any) {
	defer func() { v = recover() }()
	do()
	return nil
}

// TestResolveTwicePanics is the regression for resolving an entry whose
// node is already back in its shard pool: the second Complete/Release
// must panic instead of silently retiring an in-flight count it never
// held. A seeded mix of key sets, modes and resolve pairs covers the
// per-entry, batch, and chain paths; after every caught panic the queue
// must still account correctly and keep dispatching.
func TestResolveTwicePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	q := New(WithShards(4), WithDeadLetter(func(Message, error) {}))
	for i := 0; i < 300; i++ {
		var opts []EnqueueOption
		switch rng.Intn(4) {
		case 0:
			opts = append(opts, NoSync())
		case 1: // keyless
		case 2:
			opts = append(opts, WithKey(Key(rng.Intn(8))))
		default:
			opts = append(opts, WithKeys(Key(rng.Intn(8)), Key(8+rng.Intn(8))))
		}
		mustEnqueue(t, q.Enqueue(func(any) {}, opts...))
		e, ok := q.TryDequeue()
		if !ok {
			t.Fatalf("iteration %d: nothing dispatchable", i)
		}
		first := resolveCalls[rng.Intn(len(resolveCalls))]
		again := resolveCalls[rng.Intn(len(resolveCalls))]
		first.do(q, e)
		v := resolvePanic(func() { again.do(q, e) })
		if v != "pdq: entry resolved twice" {
			t.Fatalf("iteration %d: %s then %s panicked with %v, want \"pdq: entry resolved twice\"",
				i, first.name, again.name, v)
		}
		if n := q.InFlight(); n != 0 {
			t.Fatalf("iteration %d: %s then %s left InFlight = %d, want 0", i, first.name, again.name, n)
		}
		if n := q.Len(); n != 0 {
			t.Fatalf("iteration %d: %s then %s left Len = %d, want 0", i, first.name, again.name, n)
		}
	}
	ran := false
	mustEnqueue(t, q.Enqueue(func(any) { ran = true }, WithKey(3)))
	e, ok := q.TryDequeue()
	if !ok {
		t.Fatal("queue stopped dispatching after the caught double resolves")
	}
	if err := q.Run(e); err != nil || !ran {
		t.Fatalf("follow-up entry: err=%v ran=%v", err, ran)
	}
}
