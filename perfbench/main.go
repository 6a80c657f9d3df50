// Command perfbench is the repository benchmark. It runs one named workload
// for a fixed wall-clock budget, checks the program's outputs, and prints
// its metrics; the last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload sim-websearch --seed 1 --seconds 20 --trace 0
//
// Workloads (see METRICS.md for why each exists and what each metric means):
//
//	sim-websearch  legacy single-Simulator engine, 11 schemes on the asymmetric testbed
//	sim-k16-storm  sharded sim.Engine on the 1024-host fat-tree-k16-mixed storm, clove-ecn
//	dp-small       two datapath.Endpoints on 127.0.0.1, closed loop, 64-B payloads
//	dp-mtu         the same with 1400-B payloads
//
// --trace 0 reports the end-to-end metrics with no instrumentation
// installed. --trace 1 is a separate run of the same inputs that reports the
// per-layer metrics: spans around the benchmark's calls into each layer, a
// counting packet.Observer, a CPU profile attributed by package, and layer
// benches that time public functions directly. Spans are written to
// .bench_build/spans/ when the run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one invocation shares across its phases.
type run struct {
	seed    int64
	budget  time.Duration
	trace   bool
	tr      *tracer // nil unless trace
	rep     report
	notes   []string // output-check failures, printed before the result
	started time.Time
	// stopProfile ends the CPU profile beginTraced started and returns it.
	stopProfile func() []byte
}

func (r *run) set(name, unit string, v float64) {
	r.rep.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records an output-check failure; the result is then incorrect.
func (r *run) fail(format string, a ...any) {
	r.rep.Correct = false
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

var workloads = map[string]func(*run){
	"sim-websearch": runWebSearch,
	"sim-k16-storm": runK16Storm,
	"dp-small":      runDPSmall,
	"dp-mtu":        runDPMTU,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: sim-websearch, sim-k16-storm, dp-small or dp-mtu")
		seed     = flag.Int64("seed", 1, "workload seed; the inputs are a function of it alone")
		seconds  = flag.Int("seconds", 20, "measurement budget in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	r := &run{
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		rep:     report{Correct: true, Metrics: map[string]metric{}},
		started: time.Now(),
	}
	endToEnd, perLayer, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (run from the root of a checkout)\n", err)
		os.Exit(2)
	}
	printStamp(*workload, r)
	if r.trace {
		r.tr = newTracer()
		fn(r)
		if r.stopProfile != nil {
			r.reportProfile(r.stopProfile())
		}
		r.runLayerBenches()
		r.completeMetrics(perLayer)
		if err := r.tr.write(*workload, r.seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	} else {
		fn(r)
		r.set("max_rss_mb", "MB", maxRSSMB())
	}
	if r.rep.Attempted < 1 {
		r.fail("no operation attempted")
		r.rep.Attempted = 1
		r.rep.Failed = 1
	}
	if !r.trace {
		r.set("completed_frac", "fraction", float64(r.rep.Attempted-r.rep.Failed)/float64(r.rep.Attempted))
		r.completeMetrics(endToEnd)
	}
	names := make([]string, 0, len(r.rep.Metrics))
	for n := range r.rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.rep.Metrics[n]
		fmt.Printf("%-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Printf("CHECK FAILED: %s\n", n)
	}
	line, err := json.Marshal(&r.rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.rep.Correct {
		os.Exit(1)
	}
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// printStamp records the runner so that no number is read against another
// machine's.
func printStamp(workload string, r *run) {
	stamp := map[string]any{
		"workload":   workload,
		"seed":       r.seed,
		"seconds":    r.budget.Seconds(),
		"trace":      r.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go":         runtime.Version(),
		"kernel":     kernelRelease(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
	line, _ := json.Marshal(stamp) // map of plain values: cannot fail
	fmt.Printf("runner %s\n", line)
}
