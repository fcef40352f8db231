package pdq

import (
	"runtime"
	"testing"
	"time"
)

// checkDoubling is the doubling test for structures a caller can grow:
// run(n) performs n operations against a backlog of n and returns how
// long they took. The per-operation cost at 2n must stay within 1.5x the
// cost at n — a linear structure stays near 1x, a quadratic one
// approaches 2x. Each size takes the best of several runs, and a failing
// comparison is re-measured before it counts, so a noisy host does not
// fail a linear structure while a super-linear one fails every attempt.
func checkDoubling(t *testing.T, name string, n int, run func(n int) time.Duration) {
	t.Helper()
	perOp := func(n int) float64 {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			runtime.GC()
			if d := run(n); d < best {
				best = d
			}
		}
		return float64(best) / float64(n)
	}
	var c1, c2 float64
	for attempt := 0; attempt < 3; attempt++ {
		c1, c2 = perOp(n), perOp(2*n)
		if c2 <= 1.5*c1 {
			return
		}
	}
	t.Fatalf("%s is super-linear: %.0f ns/op at n=%d, %.0f ns/op at n=%d (%.2fx, limit 1.5x)",
		name, c1, n, c2, 2*n, c2/c1)
}

// The sequential-barrier queue pops from its head: draining a backlog of
// n barriers must cost O(n), not the O(n^2) of shifting the queue down
// on every pop.
func TestBarrierQueueLinear(t *testing.T) {
	h := func(any) {}
	checkDoubling(t, "barrier queue drain", 8192, func(n int) time.Duration {
		q := New()
		for i := 0; i < n; i++ {
			mustEnqueue(t, q.Enqueue(h, Sequential()))
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			e, ok := q.TryDequeue()
			if !ok {
				t.Fatalf("barrier %d of %d not dispatchable", i, n)
			}
			q.Complete(e)
		}
		return time.Since(start)
	})
}
