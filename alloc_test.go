package pdq

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// The dispatch path hands out the pending-list node itself and recycles
// it when the entry is resolved, and a blocked consumer parks on a pooled
// parker. These gates pin the resulting allocation counts: a change that
// reintroduces a per-message copy or a per-park closure fails here.

// A single-key enqueue, dequeue and completion allocates only the key
// clone EnqueueMessage makes at admission.
func TestAllocsCoreOp(t *testing.T) {
	q := New()
	keys := []Key{7}
	h := func(any) {}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := q.EnqueueMessage(Message{Keys: keys, Handler: h}); err != nil {
			t.Fatal(err)
		}
		e, ok := q.TryDequeue()
		if !ok {
			t.Fatal("nothing dispatchable")
		}
		q.Complete(e)
	})
	t.Logf("%.2f allocs per op", allocs)
	if allocs > 1 {
		t.Fatalf("enqueue+dequeue+complete allocates %.2f times, want <= 1 (the key clone)", allocs)
	}
}

// A 16-entry batch harvest plus RunBatch allocates at most twice per
// batch. Messages are admitted through admit with queue-owned key slices,
// so the count isolates dispatch and completion from the admission clone.
func TestAllocsBatchRound(t *testing.T) {
	const n = 16
	q := New()
	h := func(any) {}
	msgs := make([]Message, n)
	for i := range msgs {
		// Two entries per key: the harvest's in-batch exception and the
		// claim queues are both on the measured path.
		msgs[i] = Message{Keys: []Key{Key(i / 2)}, Handler: h}
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		for i := range msgs {
			if err := q.admit(&msgs[i]); err != nil {
				t.Fatal(err)
			}
		}
		es, err := q.DequeueBatch(ctx, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(es) != n {
			t.Fatalf("harvested %d entries, want %d", len(es), n)
		}
		if err := q.RunBatch(es); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.2f allocs per batch", allocs)
	if allocs > 2 {
		t.Fatalf("DequeueBatch(%d)+RunBatch allocates %.2f times per batch, want <= 2", n, allocs)
	}
}

// waitParked spins until at least n consumers sit on q's parked list.
func waitParked(t *testing.T, q *Queue, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		q.waitMu.Lock()
		c := 0
		for p := q.parked.head; p != nil; p = p.next {
			c++
		}
		q.waitMu.Unlock()
		if c >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d consumers parked, want %d", c, n)
		}
		runtime.Gosched()
	}
}

// A parked consumer woken over and over — with a cancellable ctx, and a
// delayed entry pending so every park arms the maturity timer — allocates
// nothing per wake.
func TestAllocsParkWake(t *testing.T) {
	const wakes = 1000
	q := New()
	if err := q.Enqueue(func(any) {}, WithDelay(time.Hour)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := q.DequeueContext(ctx)
		done <- err
	}()
	waitParked(t, q, 1)
	s := &q.shards[0]
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < wakes; i++ {
			waitParked(t, q, 1)
			q.wakeShard(s, 1)
		}
	})
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("DequeueContext returned %v, want context.Canceled", err)
	}
	t.Logf("%.3f allocs per wake", allocs/wakes)
	if per := allocs / wakes; per >= 0.1 {
		t.Fatalf("park/wake allocates %.3f times per wake, want < 0.1", per)
	}
	if w := q.Stats().Waits; w < wakes {
		t.Fatalf("consumer parked %d times, want >= %d", w, wakes)
	}
}

// A consumer that is handed a wake but leaves because its ctx was
// cancelled passes the wake on: the next parked consumer rescans instead
// of sleeping through an event meant for one of them.
func TestParkCancelHandsOffWake(t *testing.T) {
	q := New()
	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	errA, errB := make(chan error, 1), make(chan error, 1)
	go func() { _, err := q.DequeueContext(ctxA); errA <- err }()
	waitParked(t, q, 1)
	go func() { _, err := q.DequeueContext(ctxB); errB <- err }()
	waitParked(t, q, 2)
	before := q.Stats().Waits

	// Deliver one wake, which goes to the oldest parker (A), while A's
	// ctx is already cancelled: A must leave and hand the wake to B.
	q.waitMu.Lock()
	cancelA()
	q.wakeParkedLocked(1)
	q.waitMu.Unlock()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("consumer A returned %v, want context.Canceled", err)
	}
	// B rescans (nothing is dispatchable) and parks again.
	deadline := time.Now().Add(10 * time.Second)
	for q.Stats().Waits == before {
		if time.Now().After(deadline) {
			t.Fatal("the wake A was handed never reached B")
		}
		runtime.Gosched()
	}
	waitParked(t, q, 1)
	cancelB()
	if err := <-errB; !errors.Is(err, context.Canceled) {
		t.Fatalf("consumer B returned %v, want context.Canceled", err)
	}
}
