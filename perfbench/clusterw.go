package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"pdq"
	"pdq/cluster"
)

// cluster: a closed loop over a 4-node cluster on the in-process
// ChanTransport (no loss), one worker per node. One producer sends to the
// origins round-robin and keeps at most clusterWindow messages
// outstanding per origin, as the paper's processors bound their
// outstanding misses. 10% of operations span two keys.
//
// The window is the largest whose latency repeats from run to run on a
// shared host. With 16 or more outstanding per origin, a host stall piles
// messages up at their owner nodes, and a run's median latency lands
// anywhere in a 1.5x range. Far above that is a known defect (ROADMAP
// item 3: a fixed retransmit timeout, and a retransmit scan under the
// node lock); see README.md for the overload cliff.
const (
	clusterNodes  = 4
	clusterWindow = 8
	clusterKeys   = 1024
	clusterWork   = 200 // handler spin, ns
	clusterWarm   = 20_000
	clusterRing   = 1 << 12 // > clusterNodes*clusterWindow records in flight
	clusterBlock  = 64      // completions per throughput block: ~0.5 ms at the seed's rate
)

var clusterMix = mix{keys: clusterKeys, twoKey: 0.10}

type clusterw struct {
	*bench
	g      *gen
	ord    *ordinals
	ring   *recRing
	nextID uint64
	c      *cluster.Cluster
	tr     *wireTap // traced runs only: the benchmark's transport wrapper
	tokens []chan struct{}
	cs0    cluster.Stats
	sends0 int64

	sent      int64 // operations admitted in the current phase
	quiesceNs int64 // the last drive's Quiesce time
}

func runCluster(o opts) (*report, error) {
	w := &clusterw{
		bench: newBench(o, clusterKeys, clusterNodes, clusterWork),
		g:     newGen(o.seed, clusterMix),
		ord:   newOrdinals(clusterKeys, clusterNodes),
		ring:  newRecRing(clusterRing),
	}
	w.block = clusterBlock
	return runWorkload(w.bench, w, map[string]any{"nodes": clusterNodes, "window_per_origin": clusterWindow})
}

func (w *clusterw) startTrace() { w.cs0, w.sends0 = w.c.Stats(), w.tr.sends.Load() }

func (w *clusterw) layers(rep *report, p, untraced phase) {
	cs1 := w.c.Stats()
	var qs0, qs1 []pdq.Stats
	for i := range cs1.PerNode {
		qs0 = append(qs0, w.cs0.PerNode[i].Queue)
		qs1 = append(qs1, cs1.PerNode[i].Queue)
	}
	w.perLayer(rep, p, untraced, pdqDelta(pdqSum(qs0...), pdqSum(qs1...)), clusterNodes, 1)
	w.clusterLayer(rep, w.cs0, cs1, w.tr.sends.Load()-w.sends0)
}

// clusterLayer fills the cluster tier's per-layer metrics from the
// counters' delta over the traced phase.
func (w *clusterw) clusterLayer(rep *report, a, b cluster.Stats, sends int64) {
	ops := float64(w.sent)
	for _, x := range []struct {
		name string
		s    *series
	}{{"cluster.enqueue_ns", w.s.clEnqueue}, {"cluster.recv_ns", w.s.recv}} {
		q := x.s.summarize()
		rep.count(x.name, q)
		rep.set(x.name+"_p50", q.p50)
		rep.set(x.name+"_p99", q.p99)
	}
	rep.set("cluster.wire_msgs_per_msg", ratio(float64(sends), ops))
	rep.set("cluster.forwarded_frac", ratio(float64(b.Forwarded-a.Forwarded), ops))
	rep.set("cluster.spanning_frac", ratio(float64(b.Spanning-a.Spanning), ops))
	sent := b.MsgsSent - a.MsgsSent
	rep.set("cluster.redelivered_frac", ratio(float64(b.Redelivered-a.Redelivered), float64(sent)))
	rep.detail["cluster.ops"] = w.sent
	rep.detail["cluster.msgs_sent"] = sent
	var most, total uint64
	for i := range b.PerNode {
		e := b.PerNode[i].Executed - a.PerNode[i].Executed
		most = max(most, e)
		total += e
	}
	rep.set("cluster.node_skew", ratio(float64(most), float64(total)/float64(len(b.PerNode))))
	rep.set("cluster.quiesce_ms", float64(w.quiesceNs)/1e6)
}

func (w *clusterw) build() error {
	// One semaphore per origin: a token per message it may have
	// outstanding.
	w.tokens = make([]chan struct{}, clusterNodes)
	for i := range w.tokens {
		w.tokens[i] = make(chan struct{}, clusterWindow)
		for j := 0; j < clusterWindow; j++ {
			w.tokens[i] <- struct{}{}
		}
	}
	var tr cluster.Transport = cluster.NewChanTransport(clusterNodes)
	if w.o.trace {
		w.tr = &wireTap{inner: tr, w: w}
		tr = w.tr
	}
	c, err := cluster.New(clusterNodes, cluster.WithWorkers(1), cluster.WithTransport(tr),
		cluster.WithDeadLetter(w.deadLetter))
	if err != nil {
		return err
	}
	w.c = c
	if err := c.Register("bench", func(d any) {
		r := d.(*rec)
		w.handle(r)
		w.tokens[r.stream] <- struct{}{}
	}); err != nil {
		return err
	}
	_, err = w.drive(phaseWarm, 0, clusterWarm)
	return err
}

func (w *clusterw) teardown() { w.c.Close() }

func (w *clusterw) deadLetter(node int, m pdq.Message, err error) {
	if r, ok := m.Data.(*rec); ok {
		if r.phase != phaseWarm {
			w.failOp("message %d dead-lettered on node %d: %v", r.id, node, err)
		}
		r.state.Store(recDead)
		w.tokens[r.stream] <- struct{}{}
	}
}

func (w *clusterw) measure(ph uint8, seconds float64) (phase, error) {
	w.resetPhase()
	m := startMeter(w.bench, true)
	genCPU, err := w.drive(ph, int64(seconds*1e9), 0)
	u := m.stop()
	if err != nil {
		return phase{}, err
	}
	msgs := w.completed.Load()
	return phase{msgs: msgs, tput: w.blockTput(u, msgs), u: u, genCPU: genCPU}, nil
}

// drive runs the closed loop for dur nanoseconds (or count messages, when
// count > 0), then quiesces the cluster and checks that it executed
// exactly what was sent.
func (w *clusterw) drive(ph uint8, dur int64, count int) (int64, error) {
	lockGenerator()
	defer runtime.UnlockOSThread()
	cpu0 := cpuNanos(rusageThread)
	tr := ph == phaseTraced
	stats0 := w.c.Stats()
	w.sent = 0
	start := now()
	for n := 0; count > 0 && n < count || count == 0 && now() < start+dur; n++ {
		origin := int(w.nextID % clusterNodes)
		<-w.tokens[origin]
		free := now() // the origin may send: lateness runs from here
		w.nextID++
		r, err := w.ring.take(w.nextID, w.chk)
		if err != nil {
			return 0, err
		}
		r.reset(w.nextID, origin, w.g.next(), ph)
		w.ord.assign(r)
		var sid uint32
		if tr {
			sid = w.log.open()
			r.span = sid
		}
		t := now()
		r.due = t
		err = w.c.Enqueue(origin, "bench", r, r.keySlice()...)
		ret := now()
		if ph != phaseWarm {
			w.attempted.Add(1)
			w.s.late.add(t - free)
			w.sendNs.Add(ret - t)
		}
		if err != nil {
			if ph != phaseWarm {
				w.failOp("enqueue message %d: %v", r.id, err)
			}
			r.runs.Store(1)
			r.state.Store(recDone)
			w.tokens[origin] <- struct{}{}
			continue
		}
		w.sent++
		if tr {
			w.s.clEnqueue.add(ret - t)
			w.log.close(sid, spanClusterEnqueue, r.id, 0, t, ret)
		}
	}
	cpu := cpuNanos(rusageThread) - cpu0
	q0 := now()
	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := w.c.Quiesce(ctx); err != nil {
		return 0, fmt.Errorf("quiesce: %w", err)
	}
	w.quiesceNs = now() - q0
	st := w.c.Stats()
	if exec := st.Executed - stats0.Executed; ph != phaseWarm && int64(exec) != w.sent {
		w.chk.fail("cluster executed %d messages, %d were sent", exec, w.sent)
	}
	w.ring.settleAll(w.chk)
	return cpu, nil
}

// wireTap is the traced runs' Transport: it forwards to a ChanTransport,
// counting sends and, in the traced phase, timing each node's receive
// callback.
type wireTap struct {
	inner cluster.Transport
	w     *clusterw
	sends atomic.Int64
}

func (t *wireTap) Send(from, to int, m cluster.WireMsg) {
	t.sends.Add(1)
	t.inner.Send(from, to, m)
}

func (t *wireTap) Bind(node int, recv func(from int, m cluster.WireMsg)) {
	t.inner.Bind(node, func(from int, m cluster.WireMsg) {
		if !t.w.tracing.Load() {
			recv(from, m)
			return
		}
		st := now()
		recv(from, m)
		en := now()
		t.w.s.recv.add(en - st)
		t.w.log.record(spanWireRecv, 0, 0, st, en)
	})
}

func (t *wireTap) Close() { t.inner.Close() }
