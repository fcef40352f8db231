package main

import (
	"testing"
	"time"
)

func TestSeriesPercentilesWithCount(t *testing.T) {
	s := newSeries()
	for i := 100; i >= 1; i-- { // out of order on purpose
		s.add(int64(i))
	}
	q := s.summarize()
	if q.count != 100 || q.p50 != 50 || q.p99 != 99 {
		t.Fatalf("summarize = %+v, want count 100, p50 50, p99 99", q)
	}
	s.reset()
	for i := 1; i <= 10; i++ {
		s.add(int64(i * 10))
	}
	if w := s.window(0, 4); w.count != 4 || w.p50 != 20 || w.p99 != 40 {
		t.Fatalf("window(0,4) = %+v, want count 4, p50 20, p99 40", w)
	}
	if w := s.window(4, 99); w.count != 6 || w.p50 != 70 {
		t.Fatalf("window(4,99) = %+v, want count 6 (clamped), p50 70", w)
	}
}

func TestSeriesClampsAndSaturates(t *testing.T) {
	s := newSeries()
	s.add(-5)
	s.add(1 << 40)
	v := s.values()
	if len(v) != 2 || v[0] != 0 || v[1] != 1<<32-1 {
		t.Fatalf("values = %v, want [0 %d]", v, uint32(1<<32-1))
	}
}

func TestQuantileAndMedian(t *testing.T) {
	if got := quantile([]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}, 0.1); got != 1 {
		t.Errorf("p10 = %v, want 1", got)
	}
	if got := quantile([]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if quantile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty quantiles should be 0")
	}
}

func TestRatioBase(t *testing.T) {
	if ratio(3, 0) != 0 {
		t.Error("a ratio over an empty base must be 0")
	}
	if ratio(1, 4) != 0.25 {
		t.Error("ratio(1, 4) != 0.25")
	}
}

// A message's latency runs from its due time, so a late generator shows
// in dispatch and rtt, and gen.late records how late it was.
func TestDueTimeLatencyIncludesLateness(t *testing.T) {
	b := newBench(opts{}, 4, 1, 0)
	const late = 3 * time.Millisecond
	r := &rec{}
	r.reset(1, 0, msgSpec{keys: [2]uint32{1}, nkeys: 1}, phaseMeasure)
	r.due = now() - int64(late)
	b.handle(r)
	d, rt := b.s.dispatch.values(), b.s.rtt.values()
	if len(d) != 1 || len(rt) != 1 {
		t.Fatalf("got %d dispatch and %d rtt samples, want 1 each", len(d), len(rt))
	}
	if time.Duration(d[0]) < late || rt[0] < d[0] {
		t.Fatalf("dispatch %v, rtt %v: want dispatch >= %v and rtt >= dispatch",
			time.Duration(d[0]), time.Duration(rt[0]), late)
	}
	if b.completed.Load() != 1 || r.state.Load() != recDone {
		t.Fatal("handled message not counted as completed")
	}

	// Warm-up messages feed no metric.
	w := &rec{}
	w.reset(2, 0, msgSpec{keys: [2]uint32{2}, nkeys: 1}, phaseWarm)
	b.handle(w)
	if b.s.dispatch.n.Load() != 1 || b.completed.Load() != 1 {
		t.Fatal("a warm-up message was measured")
	}
}

func TestPaceNeverEarly(t *testing.T) {
	setTimerSlack()
	for i := 0; i < 50; i++ {
		due := now() + int64(20*time.Microsecond)
		pace(due)
		if now() < due {
			t.Fatal("pace returned before the due time")
		}
	}
}

func TestBlockThroughputAndWindowLatency(t *testing.T) {
	b := newBench(opts{}, 4, 1, 0)
	b.block = 10
	for i := 1; i <= 8; i++ {
		b.s.dispatch.add(int64(i * 1000))
	}
	// Blocks of 10 completions: three take 1 ms each, one is stalled for
	// 10 ms. Stamps arrive out of order, as concurrent workers leave them.
	for _, ts := range []int64{0, 2e6, 1e6, 3e6, 13e6} {
		b.s.blocks.add(ts)
	}
	u := usage{wallNs: 4e9, marks: []mark{
		{t: 0, dispatch: 0},
		{t: 1e9, dispatch: 4},
		{t: 2e9, dispatch: 8},
	}}
	if got := b.blockTput(u, 40); got != 10000 {
		t.Errorf("blockTput = %v, want 10000 (the median block, not the stalled one)", got)
	}
	p50, n := windowP50(b.s.dispatch, u, func(m mark) int64 { return m.dispatch }, 0.1)
	if n != 2 || p50 != 2000 {
		t.Errorf("windowP50(0.1) = %v over %d windows, want 2000 over 2", p50, n)
	}
	if p50, _ := windowP50(b.s.dispatch, u, func(m mark) int64 { return m.dispatch }, 0.5); p50 != 2000 {
		t.Errorf("windowP50(0.5) = %v, want 2000 (nearest rank of the two windows' 2000 and 6000)", p50)
	}
	b.s.blocks.reset()
	if got := b.blockTput(usage{wallNs: 2e9}, 300); got != 150 {
		t.Errorf("blockTput without blocks = %v, want 150", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{kind: spanRun, start: 0, end: 100},
		{kind: spanHandler, parent: 1, start: 10, end: 40},
		{kind: spanHandler, parent: 1, start: 50, end: 70},
		{kind: spanDequeue, start: 100, end: 130},
		{kind: spanClusterEnqueue, start: 200, end: 210},
		{kind: spanHandler, parent: 5, start: 205, end: 230}, // caused, not nested
	}
	self := selfTime(spans)
	if self[spanRun] != 50 || self[spanHandler] != 75 || self[spanDequeue] != 30 || self[spanClusterEnqueue] != 5 {
		t.Fatalf("selfTime = %v, want run 50, handler 75, dequeue 30, cluster enqueue 5", self)
	}
}

func TestSpanLogOffRecordsNothing(t *testing.T) {
	var l *spanLog
	if id := l.record(spanRun, 1, 0, 0, 1); id != 0 {
		t.Fatalf("a nil log returned span id %d", id)
	}
}
