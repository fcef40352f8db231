// Command perfbench is the repository's benchmark. It runs one named
// workload against the public APIs of pdq, pdqhttp and cluster, checks
// every output, and prints its metrics as the last line of stdout:
//
//	perfbench --workload flood --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload once untraced and once traced and prints the per-layer
// metrics, timed around the calls into each layer from this package. See
// README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // where traced runs write their spans
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run measured and checked.
type report struct {
	attempted int64
	failed    int64
	failure   string            // first failure seen, "" when none
	metrics   map[string]metric // end-to-end or per-layer, per --trace
	detail    map[string]any    // sample counts and ratio bases
}

// set records a declared metric; its unit comes from the declaration.
func (r *report) set(name string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// fail records n failed operations and keeps the first description.
func (r *report) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	if r.failure == "" {
		r.failure = fmt.Sprintf(format, args...)
	}
}

var workloads = map[string]func(opts) (*report, error){
	"flood":   runFlood,
	"paced":   runPaced,
	"http":    runHTTP,
	"cluster": runCluster,
}

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: flood, paced, http or cluster")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured interval")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	o.trace = trace == 1
	o.outDir = os.Getenv("CARGO_TARGET_DIR")
	if o.outDir == "" {
		o.outDir = ".bench_build"
	}
	fn, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", o.workload, o.seconds, trace)
		os.Exit(2)
	}
	// Every workload runs with GOMAXPROCS equal to the host's CPU count.
	runtime.GOMAXPROCS(runtime.NumCPU())

	rep, err := fn(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		// A run that fails a check reports the failure, not numbers.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed; first: %s\n",
			o.workload, rep.failed, rep.attempted, rep.failure)
		printJSON(map[string]any{"correct": false, "attempted": rep.attempted, "failed": rep.failed, "metrics": map[string]metric{}})
		os.Exit(1)
	}
	printJSON(map[string]any{"workload": o.workload, "seed": o.seed, "trace": trace, "detail": rep.detail})
	printJSON(map[string]any{"correct": true, "attempted": rep.attempted, "failed": 0, "metrics": rep.metrics})
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
