package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"pdq"
)

// BENCHMARK.json declares the metrics the program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEndDefs) || len(spec.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics; the program prints %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	for i, d := range endToEndDefs {
		m := spec.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	for i, d := range perLayerDefs {
		if m := spec.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program lacks", w.Name)
		}
	}
}

func TestPdqDeltaAndSum(t *testing.T) {
	a := pdq.Stats{Dispatched: 10, NodesCapped: 1, MaxPending: 7}
	b := pdq.Stats{Dispatched: 25, NodesCapped: 4, MaxPending: 3}
	d := pdqDelta(a, b)
	if d.Dispatched != 15 || d.NodesCapped != 3 || d.MaxPending != 3 {
		t.Fatalf("delta = %+v", d)
	}
	s := pdqSum(a, b)
	if s.Dispatched != 35 || s.NodesCapped != 5 || s.MaxPending != 7 {
		t.Fatalf("sum = %+v", s)
	}
}

// Counter ratios are reported with their base in the detail line.
func TestPerLayerRatiosAndBases(t *testing.T) {
	b := newBench(opts{}, 4, 1, 0)
	rep := &report{metrics: map[string]metric{}, detail: map[string]any{}}
	st := pdq.Stats{Dispatched: 200, KeyConflicts: 50, NodesCapped: 56, NodesReclaimed: 44,
		RingPublished: 90, RingFallbacks: 10, Batches: 4, BatchEntries: 48}
	p := phase{msgs: 200, tput: 90, u: usage{wallNs: 1e9}}
	b.perLayer(rep, p, phase{tput: 100}, st, 2, 1)
	for name, want := range map[string]float64{
		"pdq.key_conflicts_per_msg": 0.25,
		"pdq.pool_capped_frac":      0.56,
		"pdq.ring_fallback_frac":    0.1,
		"pdq.batch_mean":            12,
		"trace.overhead_frac":       0.1,
	} {
		if got := rep.metrics[name].Value; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if rep.detail["pdq.pool_capped_frac.base"] != uint64(100) || rep.detail["pdq.dispatched"] != uint64(200) {
		t.Errorf("bases missing from detail: %v", rep.detail)
	}
	if len(rep.metrics) != len(perLayerDefs) {
		t.Errorf("perLayer printed %d metrics, want every one of %d", len(rep.metrics), len(perLayerDefs))
	}
}

func TestGenDeterministicAndShaped(t *testing.T) {
	a, b := newGen(7, floodMix), newGen(7, floodMix)
	var seq, two, hot int
	const n = 200_000
	for i := 0; i < n; i++ {
		x, y := a.next(), b.next()
		if x != y {
			t.Fatalf("draw %d differs for one seed: %+v vs %+v", i, x, y)
		}
		switch {
		case x.seq:
			seq++
		case x.nkeys == 2:
			two++
			if x.keys[0] == x.keys[1] {
				t.Fatal("a two-key set repeats its key")
			}
		}
		if !x.seq && x.keys[0] == 0 {
			hot++
		}
	}
	// 1 in 200 Sequential; 10% of the rest two-key; Zipf(1) over 1024
	// puts ~13% of draws on rank 0.
	if seq < n/250 || seq > n/160 || two < n/12 || two > n/8 || hot < n/10 || hot > n/6 {
		t.Fatalf("seq %d, two-key %d, rank-0 %d of %d", seq, two, hot, n)
	}
	if newGen(8, floodMix).next() == newGen(7, floodMix).next() && newGen(9, floodMix).next() == newGen(7, floodMix).next() {
		t.Fatal("different seeds give the same inputs")
	}
}

func TestClientReadsReplies(t *testing.T) {
	replies := "HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\r\nabcde" +
		"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 2\r\n\r\n{}" +
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
	c := &client{br: bufio.NewReader(strings.NewReader(replies))}
	for _, want := range []int{202, 429} {
		if got, err := c.readReply(); err != nil || got != want {
			t.Fatalf("readReply = %d, %v; want %d", got, err, want)
		}
	}
	if _, err := c.readReply(); err == nil {
		t.Fatal("a reply without Content-Length must be an error")
	}
	if id, span := parseIDHeader("123/45"); id != 123 || span != 45 {
		t.Fatalf("parseIDHeader = %d, %d", id, span)
	}
	if parseID([]byte("987 ")) != 987 {
		t.Fatal("parseID")
	}
}

// Each workload runs briefly end to end, traced and not, and passes its
// own output checks.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, fn := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := fn(opts{workload: name, seed: 3, seconds: 0.6, trace: trace, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d failed: %s", name, trace, rep.failed, rep.attempted, rep.failure)
			}
			want := endToEndDefs
			if trace {
				want = perLayerDefs
			}
			for _, d := range want {
				if _, ok := rep.metrics[d.name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.name)
				}
			}
		}
	}
}
