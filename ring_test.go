package pdq

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestIntakeRingResolve pins the WithIntakeRing size mapping surfaced
// through Stats.IntakeRing.
func TestIntakeRingResolve(t *testing.T) {
	cases := []struct{ in, want int }{
		{-1, 0}, {0, 0}, {1, 2}, {2, 2}, {5, 8}, {256, 256}, {1 << 20, 1 << 16},
	}
	for _, c := range cases {
		q := New(WithIntakeRing(c.in))
		if got := q.Stats().IntakeRing; got != c.want {
			t.Errorf("WithIntakeRing(%d): ring %d, want %d", c.in, got, c.want)
		}
		q.Close()
	}
	if got := New().Stats().IntakeRing; got != DefaultIntakeRing {
		t.Errorf("default ring %d, want %d", got, DefaultIntakeRing)
	}
}

// TestIntakeRingConcurrentEnqueueDrainClose hammers the lock-free
// admission path from many producers while consumers serve the queue,
// Drain runs in a loop, and Close lands mid-stream. Exactly the messages
// whose Enqueue returned nil must run — an accepted entry can neither be
// lost in the ring at close (the npending/closed Dekker handshake) nor
// double-run — and Drain must never return while accepted work is
// outstanding. Run with -race; the ring publish/drain and pool get/put
// protocols are the subject.
func TestIntakeRingConcurrentEnqueueDrainClose(t *testing.T) {
	for _, ring := range []int{2, 8, DefaultIntakeRing} {
		ring := ring
		t.Run(fmt.Sprintf("ring=%d", ring), func(t *testing.T) {
			q := New(WithShards(4), WithIntakeRing(ring))
			p := Serve(context.Background(), q, 4)

			var handled atomic.Int64
			var accepted atomic.Int64
			const producers = 8
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for g := 0; g < producers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; ; i++ {
						err := q.Enqueue(func(any) { handled.Add(1) },
							WithKey(Key(g*31+i%7)))
						if err == ErrClosed {
							return
						}
						if err != nil {
							t.Errorf("producer %d: %v", g, err)
							return
						}
						accepted.Add(1)
						select {
						case <-stop:
							return
						default:
						}
					}
				}(g)
			}
			// Drain concurrently with the producers: it must always return
			// (consumers are running) and never deadlock against ring
			// publishes.
			var dwg sync.WaitGroup
			dwg.Add(1)
			go func() {
				defer dwg.Done()
				for i := 0; i < 20; i++ {
					q.Drain()
				}
			}()
			time.Sleep(20 * time.Millisecond)
			close(stop)
			wg.Wait()
			q.Close()
			p.Wait()
			dwg.Wait()
			if h, a := handled.Load(), accepted.Load(); h != a {
				t.Fatalf("handled %d of %d accepted messages", h, a)
			}
			s := q.Stats()
			if s.Enqueued != uint64(accepted.Load()) || s.Dispatched != s.Completed {
				t.Fatalf("inconsistent stats: %s", s)
			}
			if ring > 0 && s.RingPublished+s.RingFallbacks == 0 {
				t.Fatalf("no intake-ring publishes recorded: %s", s)
			}
		})
	}
}

// TestIntakeRingFallbackFIFO forces the ring-full fallback path — a
// 2-slot ring with no consumer running while thousands of entries are
// admitted — and asserts per-key enqueue-order FIFO holds across the
// mixture of lock-free publishes and fallback (under-lock) publishes.
func TestIntakeRingFallbackFIFO(t *testing.T) {
	q := New(WithShards(2), WithIntakeRing(2))
	const producers = 4
	const perProducer = 1000

	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				// One key per producer: the producer's program order IS the
				// key's required dispatch order.
				if err := q.Enqueue(func(any) {}, WithKey(Key(g)), WithData(i)); err != nil {
					t.Errorf("producer %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// No consumer ran during admission, so a 2-slot ring guarantees the
	// producers drained it themselves through the TryLock fallback.
	if s := q.Stats(); s.RingFallbacks == 0 {
		t.Fatalf("expected ring-full fallbacks with a 2-slot ring: %s", s)
	}

	last := make([]int, producers)
	for g := range last {
		last[g] = -1
	}
	var mu sync.Mutex
	var bad atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			e, ok := q.Dequeue()
			if !ok {
				return
			}
			g := int(e.Message().Keys[0])
			i := e.Message().Data.(int)
			mu.Lock()
			if i != last[g]+1 {
				bad.Add(1)
			}
			last[g] = i
			mu.Unlock()
			q.Complete(e)
		}
	}()
	q.Close()
	<-done
	if bad.Load() != 0 {
		t.Fatalf("per-key FIFO violated across ring/fallback publishes: last=%v", last)
	}
	for g, l := range last {
		if l != perProducer-1 {
			t.Fatalf("key %d: dispatched through %d, want %d", g, l, perProducer-1)
		}
	}
}

// TestIntakeRingMatchesMutexScan feeds one deterministic single-producer
// workload — mixed priorities, delays, multi-key sets, nosync — to a
// ring-enabled single-shard queue and a mutex-only one, and requires the
// two to dispatch in exactly the same order: with the whole backlog
// admitted before the first dequeue, the intake ring must be invisible
// to scan semantics (WithShards(1) + ring ≡ the seed scan).
func TestIntakeRingMatchesMutexScan(t *testing.T) {
	run := func(ring int) []int {
		q := New(WithShards(1), WithIntakeRing(ring))
		defer q.Close()
		for i := 0; i < 200; i++ {
			opts := []EnqueueOption{WithData(i), WithPriority(i % NumPriorities)}
			switch i % 5 {
			case 0:
				opts = append(opts, WithKeys(Key(i%3), Key(i%7)))
			case 1:
				opts = append(opts, NoSync())
			default:
				opts = append(opts, WithKey(Key(i%11)))
			}
			if err := q.Enqueue(func(any) {}, opts...); err != nil {
				t.Fatalf("enqueue %d (ring=%d): %v", i, ring, err)
			}
		}
		var order []int
		for {
			e, ok := q.TryDequeue()
			if !ok {
				break
			}
			order = append(order, e.Message().Data.(int))
			q.Complete(e)
		}
		if len(order) != 200 {
			t.Fatalf("dispatched %d of 200 (ring=%d)", len(order), ring)
		}
		return order
	}
	withRing := run(DefaultIntakeRing)
	mutexOnly := run(0)
	for i := range mutexOnly {
		if withRing[i] != mutexOnly[i] {
			t.Fatalf("dispatch order diverges at %d: ring=%v mutex=%v",
				i, withRing[:i+1], mutexOnly[:i+1])
		}
	}
}

// TestIntakeRingBarrierFlush interleaves ring-path enqueues with
// Sequential barriers under concurrent consumers: every barrier must
// observe the handlers of all entries enqueued before it as completed,
// even though those entries may still be sitting unsequenced in intake
// rings when the barrier is enqueued (enqueueSequential's flush is the
// mechanism under test).
func TestIntakeRingBarrierFlush(t *testing.T) {
	q := New(WithShards(4), WithIntakeRing(8))
	p := Serve(context.Background(), q, 4)
	var count atomic.Int64
	var bad atomic.Int32
	expect := int64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			if err := q.Enqueue(func(any) { count.Add(1) }, WithKey(Key(i))); err != nil {
				t.Fatalf("enqueue: %v", err)
			}
		}
		expect += 20
		want := expect
		if err := q.Enqueue(func(any) {
			if count.Load() < want {
				bad.Add(1) // a pre-barrier entry had not completed
			}
		}, Sequential()); err != nil {
			t.Fatalf("barrier: %v", err)
		}
	}
	q.Close()
	p.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d barriers ran before earlier ring entries completed", bad.Load())
	}
	if count.Load() != expect {
		t.Fatalf("ran %d of %d keyed handlers", count.Load(), expect)
	}
}

// TestIntakeRingDelayedAndDeadline checks that scheduling state computed
// on the producer side survives the ring: a delayed entry admitted
// through the ring matures no earlier than its instant, and a
// born-expired entry dead-letters instead of running.
func TestIntakeRingDelayedAndDeadline(t *testing.T) {
	var dead atomic.Int64
	q := New(WithShards(2), WithIntakeRing(8),
		WithDeadLetter(func(Message, error) { dead.Add(1) }))
	p := Serve(context.Background(), q, 2)
	var early atomic.Int32
	var ran atomic.Int64
	start := time.Now()
	const delay = 5 * time.Millisecond
	for i := 0; i < 40; i++ {
		var err error
		if i%4 == 0 {
			err = q.Enqueue(func(any) { ran.Add(1) }, WithKey(Key(i)), WithTTL(-time.Nanosecond))
		} else {
			err = q.Enqueue(func(any) {
				if time.Since(start) < delay {
					early.Add(1)
				}
				ran.Add(1)
			}, WithKey(Key(i)), WithNotBefore(start.Add(delay)))
		}
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	q.Close()
	p.Wait()
	if early.Load() != 0 {
		t.Fatalf("%d ring-path delayed entries dispatched before maturity", early.Load())
	}
	if ran.Load() != 30 || dead.Load() != 10 {
		t.Fatalf("ran=%d dead=%d, want 30/10: %s", ran.Load(), dead.Load(), q.Stats())
	}
}

// TestEpochPoolExclusive drives the node pool from many goroutines and
// asserts no node is ever held by two of them at once — the property the
// epoch stamps exist to provide. Run with -race.
func TestEpochPoolExclusive(t *testing.T) {
	var p epochPool
	p.init(8) // tiny: constant wraparound and overflow
	var inUse sync.Map
	var wg sync.WaitGroup
	var bad atomic.Int32
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				n := p.get()
				flag, _ := inUse.LoadOrStore(n, new(atomic.Int32))
				if !flag.(*atomic.Int32).CompareAndSwap(0, 1) {
					bad.Add(1) // node handed to two holders
				}
				n.seq = uint64(i) // touch it, so -race sees any overlap
				flag.(*atomic.Int32).Store(0)
				p.put(n)
			}
		}()
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d double-held nodes", bad.Load())
	}
	if p.reclaimed.Load() == 0 {
		t.Fatal("no nodes reclaimed through the pool")
	}
}

// TestNodePoolCounters checks that pool recycling surfaces in Stats after
// a burst larger than the pool: nodes are reclaimed, and the overflow of
// a burst drop-drains to the GC as capped nodes rather than growing the
// pool (the fix for the old free list's unbounded growth).
func TestNodePoolCounters(t *testing.T) {
	q := New(WithShards(1))
	p := Serve(context.Background(), q, 2)
	const burst = 4 * nodePoolSize
	var wg sync.WaitGroup
	wg.Add(1)
	// Hold one key busy so a deep backlog builds, then release it: the
	// drain recycles far more nodes than the pool can hold.
	block := make(chan struct{})
	if err := q.Enqueue(func(any) { wg.Done(); <-block }, WithKey(0)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := 0; i < burst; i++ {
		if err := q.Enqueue(func(any) {}, WithKey(0)); err != nil {
			t.Fatal(err)
		}
	}
	close(block)
	q.Close()
	p.Wait()
	s := q.Stats()
	if s.NodesReclaimed == 0 {
		t.Fatalf("no node reclamation recorded: %s", s)
	}
	if s.Enqueued != burst+1 || s.Dispatched != burst+1 {
		t.Fatalf("burst accounting off: %s", s)
	}
}
