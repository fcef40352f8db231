package pdq

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDrainOnClosedEmptyQueue: Drain of an already-closed, already-empty
// queue must return immediately — there is no completion left to notify
// the waiter.
func TestDrainOnClosedEmptyQueue(t *testing.T) {
	q := New()
	q.Close()
	done := make(chan struct{})
	go func() { q.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain hung on a closed empty queue")
	}
}

// TestDrainAfterCloseWithPendingWork: Drain called after Close but before
// the pool has drained must still return once everything completes.
func TestDrainAfterCloseWithPendingWork(t *testing.T) {
	q := New()
	var count atomic.Int64
	for i := 0; i < 200; i++ {
		if err := q.Enqueue(func(any) { count.Add(1) }, WithKey(Key(i%9))); err != nil {
			t.Fatal(err)
		}
	}
	p := Serve(context.Background(), q, 4)
	q.Close()
	done := make(chan struct{})
	go func() { q.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not observe the post-close drain")
	}
	p.Wait()
	if count.Load() != 200 {
		t.Fatalf("handled %d, want 200", count.Load())
	}
}

// TestDrainCloseEnqueueWaitRace runs Drain, Close, and EnqueueWait
// concurrently against a small bounded queue under a live pool. Run with
// -race. Every accepted message must be handled, every Drain must return,
// and EnqueueWait may only fail with ErrClosed (or context errors, unused
// here) once Close lands.
func TestDrainCloseEnqueueWaitRace(t *testing.T) {
	for round := 0; round < 8; round++ {
		q := New(WithCapacity(4), WithShards(1<<(round%3)))
		var handled, accepted atomic.Int64
		p := Serve(context.Background(), q, 3)

		var wg sync.WaitGroup
		// Producers hammering EnqueueWait through the close.
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					err := q.EnqueueWait(context.Background(), func(any) { handled.Add(1) }, WithKey(Key(w*100+i%7)))
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("EnqueueWait: %v", err)
						}
						return
					}
					accepted.Add(1)
				}
			}(w)
		}
		// Concurrent drainers.
		for d := 0; d < 2; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					q.Drain()
				}
			}()
		}
		time.Sleep(2 * time.Millisecond)
		q.Close()
		finished := make(chan struct{})
		go func() { wg.Wait(); p.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(20 * time.Second):
			t.Fatal("Drain/Close/EnqueueWait race wedged")
		}
		if handled.Load() != accepted.Load() {
			t.Fatalf("handled %d of %d accepted messages", handled.Load(), accepted.Load())
		}
		// After close+drain the queue must be verifiably empty.
		if q.Len() != 0 || q.InFlight() != 0 {
			t.Fatalf("residual state after drain: len=%d inflight=%d", q.Len(), q.InFlight())
		}
	}
}

// TestConcurrentDrainersAllReleased: many simultaneous Drain callers must
// all be released by one emptiness event.
func TestConcurrentDrainersAllReleased(t *testing.T) {
	q := New()
	release := make(chan struct{})
	if err := q.Enqueue(func(any) { <-release }, WithKey(1)); err != nil {
		t.Fatal(err)
	}
	e, ok := q.TryDequeue()
	if !ok {
		t.Fatal("entry should dispatch")
	}
	go func() {
		m := e.Message()
		m.Handler(m.Data)
		q.Complete(e)
	}()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); q.Drain() }()
	}
	time.Sleep(5 * time.Millisecond) // let drainers register
	close(release)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("not all Drain callers were released")
	}
}

// TestRefusedRingEnqueueWakesConsumers is the regression for a wedge
// TestDrainCloseEnqueueWaitRace hit about once in a hundred -race runs:
// a ring-path Enqueue refused by Close counts itself pending for a
// moment, a consumer's close+drain check sees that count and parks, and
// the refused enqueue backed out without waking anyone, so every worker
// slept forever on a closed, empty queue. The test pins the consumer in
// that state — it parks after Close while a transient pending count is
// visible — and then requires the refused enqueue's backout to wake it.
func TestRefusedRingEnqueueWakesConsumers(t *testing.T) {
	q := New()
	done := make(chan error, 1)
	go func() {
		_, err := q.DequeueContext(context.Background())
		done <- err
	}()
	waitParked(t, q, 1)
	s := &q.shards[0]
	s.npending.Add(1) // the refused producer's transient count
	before := q.Stats().Waits
	q.Close()
	// The consumer wakes on Close, fails its close+drain check against
	// the transient count, and parks again.
	deadline := time.Now().Add(10 * time.Second)
	for q.Stats().Waits == before {
		if time.Now().After(deadline) {
			t.Fatal("consumer never re-parked after Close")
		}
		time.Sleep(time.Millisecond)
	}
	waitParked(t, q, 1)
	s.npending.Add(-1)
	// A producer that passed admission's closed check just before Close
	// reaches the ring's backout path, which must wake the consumer into
	// a close+drain check that now succeeds.
	m := Message{Keys: []Key{1}, Handler: func(any) {}}
	if err := q.enqueueReserved(&m, 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("ring enqueue after Close: %v, want ErrClosed", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("DequeueContext returned %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("consumer stayed parked on a closed, drained queue")
	}
}
