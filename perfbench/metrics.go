package main

import (
	"fmt"
	"slices"

	"pdq"
)

// metricDef names one reported metric; the lists below are the ones
// BENCHMARK.json declares (a test keeps the two in step).
type metricDef struct {
	name, unit, better string
}

var endToEndDefs = []metricDef{
	{"throughput_msgs_per_s", "msg/s", "higher"},
	{"dispatch_p50_us", "us", "lower"},
	{"rtt_p50_us", "us", "lower"},
	{"cpu_us_per_msg", "us", "lower"},
	{"allocs_per_msg", "count", "lower"},
	{"bytes_per_msg", "B", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayerDefs = []metricDef{
	{"dispatch_p99_us", "us", "lower"},
	{"rtt_p99_us", "us", "lower"},
	{"gen.late_p50_us", "us", "lower"},
	{"gen.late_p99_us", "us", "lower"},
	{"gen.send_busy_frac", "frac", "lower"},
	{"gen.cpu_us_per_msg", "us", "lower"},
	{"pdq.enqueue_ns_p50", "ns", "lower"},
	{"pdq.enqueue_ns_p99", "ns", "lower"},
	{"pdq.ring_fallback_frac", "frac", "lower"},
	{"pdq.dequeue_ns_p50", "ns", "lower"},
	{"pdq.dequeue_ns_p99", "ns", "lower"},
	{"pdq.dequeue_wait_frac", "frac", "lower"},
	{"pdq.queue_wait_us_p50", "us", "lower"},
	{"pdq.queue_wait_us_p99", "us", "lower"},
	{"pdq.key_conflicts_per_msg", "1/msg", "lower"},
	{"pdq.order_conflicts_per_msg", "1/msg", "lower"},
	{"pdq.window_stalls_per_msg", "1/msg", "lower"},
	{"pdq.waits_per_msg", "1/msg", "lower"},
	{"pdq.batch_mean", "count", "higher"},
	{"pdq.max_pending", "count", "lower"},
	{"pdq.band0.dispatch_p99_us", "us", "lower"},
	{"pdq.band1.dispatch_p99_us", "us", "lower"},
	{"pdq.band2.dispatch_p99_us", "us", "lower"},
	{"pdq.band3.dispatch_p99_us", "us", "lower"},
	{"pdq.timer_wakeups_per_msg", "1/msg", "lower"},
	{"pdq.seq_stalls_per_msg", "1/msg", "lower"},
	{"pdq.barrier_stalls_per_msg", "1/msg", "lower"},
	{"pdq.complete_ns_p50", "ns", "lower"},
	{"pdq.complete_ns_p99", "ns", "lower"},
	{"pdq.chain_handoff_frac", "frac", "higher"},
	{"pdq.pool_capped_frac", "frac", "lower"},
	{"pdq.handler_busy_frac", "frac", "higher"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"runtime.gc_per_mmsg", "1/Mmsg", "lower"},
	{"pdqhttp.serve_us_p50", "us", "lower"},
	{"pdqhttp.serve_us_p99", "us", "lower"},
	{"pdqhttp.net_us_p50", "us", "lower"},
	{"pdqhttp.ingest_wait_us_p50", "us", "lower"},
	{"pdqhttp.ingest_wait_us_p99", "us", "lower"},
	{"pdqhttp.shed_frac", "frac", "lower"},
	{"cluster.enqueue_ns_p50", "ns", "lower"},
	{"cluster.enqueue_ns_p99", "ns", "lower"},
	{"cluster.wire_msgs_per_msg", "1/msg", "lower"},
	{"cluster.recv_ns_p50", "ns", "lower"},
	{"cluster.recv_ns_p99", "ns", "lower"},
	{"cluster.forwarded_frac", "frac", "lower"},
	{"cluster.spanning_frac", "frac", "lower"},
	{"cluster.redelivered_frac", "frac", "lower"},
	{"cluster.node_skew", "ratio", "lower"},
	{"cluster.quiesce_ms", "ms", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// unitOf returns a declared metric's unit.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// count records a series' sample count in the detail line, next
// to the percentiles computed from it.
func (r *report) count(name string, q quantiles) { r.detail[name+".count"] = q.count }

// endToEnd fills the end-to-end metrics from one untraced phase.
//
// Other tenants of a shared host stall the benchmark's virtual CPUs for
// milliseconds at a time, many times a second, and how often changes from
// run to run. The figures are read off a run so that those stalls move
// them little while a change to the program moves them fully:
//
//   - throughput is the median completion rate over blocks of b.block
//     consecutive completions (blockTput). A stall slows the few blocks it
//     falls in, where it slows every longer time window it overlaps. On
//     flood, which keeps both CPUs busy, stalls fall everywhere: a block
//     is a batch, and the run reports the 90th percentile (see runFlood);
//   - latency percentiles are exact within each window, and the run
//     reports the b.latQ quantile of the windows' p50s. On http and
//     cluster, where a few messages are in flight, a stall delays only
//     those, and the median window repeats. On flood and paced a message
//     waits behind a backlog (its batch, or the schedule it fell behind
//     on), so a stall delays every message behind it; those runs report
//     their quieter windows, the 10th percentile.
//
// The detail line gives the sample, block and window counts.
func (b *bench) endToEnd(rep *report, p phase, setup float64) {
	set := rep.set
	msgs := float64(p.msgs)
	d50, dw := windowP50(b.s.dispatch, p.u, func(m mark) int64 { return m.dispatch }, b.latQ)
	r50, rw := windowP50(b.s.rtt, p.u, func(m mark) int64 { return m.rtt }, b.latQ)
	rep.detail["dispatch.count"] = len(b.s.dispatch.values())
	rep.detail["dispatch.windows"] = dw
	rep.detail["rtt.count"] = len(b.s.rtt.values())
	rep.detail["rtt.windows"] = rw
	rep.detail["latency.window_quantile"] = b.latQ
	rep.detail["throughput.block_msgs"] = b.block
	rep.detail["throughput.block_quantile"] = b.tputQ
	rep.detail["throughput.blocks"] = max(len(b.s.blocks.values())-1, 0)
	rep.detail["throughput.run_msgs_per_s"] = ratio(msgs, float64(p.u.wallNs)/1e9)
	set("throughput_msgs_per_s", p.tput)
	set("dispatch_p50_us", d50/1e3)
	set("rtt_p50_us", r50/1e3)
	set("cpu_us_per_msg", ratio(float64(p.u.cpuNs)/1e3, msgs))
	set("allocs_per_msg", ratio(float64(p.u.allocs), msgs))
	set("bytes_per_msg", ratio(float64(p.u.bytes), msgs))
	set("peak_heap_mb", median(p.u.windowed(func(_, m mark) float64 { return float64(m.peak) }))/(1<<20))
	set("setup_s", setup)
	rep.detail["completed"] = p.msgs
	rep.detail["wall_s"] = float64(p.u.wallNs) / 1e9
	// The generator's own figures, to tell a slow program from a slow
	// generator.
	late := b.s.late.summarize()
	rep.detail["gen.late_p50_us"] = late.p50 / 1e3
	rep.detail["gen.late_p99_us"] = late.p99 / 1e3
	rep.detail["gen.cpu_us_per_msg"] = ratio(float64(p.genCPU)/1e3, msgs)
}

// windowP50 returns the q quantile, over u's windows, of each window's
// exact median of s, and the number of windows; idx reads a mark's sample
// count for s.
func windowP50(s *series, u usage, idx func(mark) int64, q float64) (float64, int) {
	var xs []float64
	for i := 1; i < len(u.marks); i++ {
		if w := s.window(idx(u.marks[i-1]), idx(u.marks[i])); w.count > 0 {
			xs = append(xs, w.p50)
		}
	}
	return quantile(xs, q), len(xs)
}

// blockTput is the b.tputQ quantile, over the phase's blocks of b.block
// consecutive completions, of each block's completion rate, or the whole
// interval's rate when the phase completed fewer than two blocks. A block
// runs from the completion that closed the block before it to its own
// last one.
func (b *bench) blockTput(u usage, msgs int64) float64 {
	ts := b.s.blocks.values()
	slices.Sort(ts) // workers stamp concurrently
	var rates []float64
	for i := 1; i < len(ts); i++ {
		if d := ts[i] - ts[i-1]; d > 0 {
			rates = append(rates, float64(b.block)*1e9/float64(d))
		}
	}
	if len(rates) == 0 {
		return ratio(float64(msgs), float64(u.wallNs)/1e9)
	}
	return quantile(rates, b.tputQ)
}

// perLayer fills the per-layer metrics every workload shares from the
// traced phase p; untraced is the same workload's untraced phase, the
// base of trace.overhead_frac. st is the queue counters' delta over p.
// Metrics of layers the workload does not reach stay 0.
func (b *bench) perLayer(rep *report, p, untraced phase, st pdq.Stats, workers, generators int) {
	for _, d := range perLayerDefs {
		rep.set(d.name, 0)
	}
	set := rep.set
	pct := func(prefix, unitSuffix string, s *series, div float64) {
		q := s.summarize()
		rep.count(prefix, q)
		set(prefix+"_"+unitSuffix+"_p50", q.p50/div)
		set(prefix+"_"+unitSuffix+"_p99", q.p99/div)
	}
	msgs := float64(p.msgs)
	wall := float64(p.u.wallNs)
	// The run's p99s repeat too poorly across runs on a shared host to
	// gate on; they are reported here, pooled over the traced phase.
	for _, x := range []struct {
		name string
		s    *series
	}{{"dispatch", b.s.dispatch}, {"rtt", b.s.rtt}} {
		q := x.s.summarize()
		rep.count(x.name, q)
		set(x.name+"_p99_us", q.p99/1e3)
	}
	late := b.s.late.summarize()
	rep.count("gen.late", late)
	set("gen.late_p50_us", late.p50/1e3)
	set("gen.late_p99_us", late.p99/1e3)
	set("gen.send_busy_frac", ratio(float64(b.sendNs.Load()), wall*float64(generators)))
	set("gen.cpu_us_per_msg", ratio(float64(p.genCPU)/1e3, msgs))
	pct("pdq.enqueue", "ns", b.s.enqueue, 1)
	pct("pdq.dequeue", "ns", b.s.dequeue, 1)
	pct("pdq.queue_wait", "us", b.s.queueWait, 1e3)
	pct("pdq.complete", "ns", b.s.complete, 1)
	set("pdq.dequeue_wait_frac", ratio(float64(b.dequeueNs.Load()), wall*float64(workers)))
	set("pdq.handler_busy_frac", ratio(float64(b.handlerNs.Load()), wall*float64(workers)))
	for i, s := range b.s.band {
		q := s.summarize()
		name := fmt.Sprintf("pdq.band%d.dispatch_p99_us", i)
		rep.count(name, q)
		set(name, q.p99/1e3)
	}

	disp := float64(st.Dispatched)
	rep.detail["pdq.dispatched"] = st.Dispatched
	set("pdq.ring_fallback_frac", ratio(float64(st.RingFallbacks), float64(st.RingPublished+st.RingFallbacks)))
	rep.detail["pdq.ring_fallback_frac.base"] = st.RingPublished + st.RingFallbacks
	set("pdq.key_conflicts_per_msg", ratio(float64(st.KeyConflicts), disp))
	set("pdq.order_conflicts_per_msg", ratio(float64(st.OrderConflicts), disp))
	set("pdq.window_stalls_per_msg", ratio(float64(st.WindowStalls), disp))
	set("pdq.waits_per_msg", ratio(float64(st.Waits), disp))
	set("pdq.batch_mean", ratio(float64(st.BatchEntries), float64(st.Batches)))
	rep.detail["pdq.batch_mean.base"] = st.Batches
	set("pdq.max_pending", float64(st.MaxPending))
	set("pdq.timer_wakeups_per_msg", ratio(float64(st.TimerWakeups), disp))
	set("pdq.seq_stalls_per_msg", ratio(float64(st.SeqStalls), disp))
	set("pdq.barrier_stalls_per_msg", ratio(float64(st.BarrierStalls), disp))
	set("pdq.chain_handoff_frac", ratio(float64(st.ChainHandoffs), disp))
	set("pdq.pool_capped_frac", ratio(float64(st.NodesCapped), float64(st.NodesCapped+st.NodesReclaimed)))
	rep.detail["pdq.pool_capped_frac.base"] = st.NodesCapped + st.NodesReclaimed

	set("runtime.gc_cpu_frac", ratio(p.u.gcCPU, p.u.totalCPU))
	set("runtime.gc_per_mmsg", ratio(float64(p.u.gcCycles), msgs/1e6))
	rep.detail["runtime.gc_cycles"] = p.u.gcCycles
	rep.detail["traced.completed"] = p.msgs
	rep.detail["untraced.throughput_msgs_per_s"] = untraced.tput
	rep.detail["traced.throughput_msgs_per_s"] = p.tput
	set("trace.overhead_frac", 1-ratio(p.tput, untraced.tput))
}
