// Package experiments regenerates every table and figure in the paper's
// evaluation (Secs. 5 and 6): the testbed load sweeps on symmetric and
// asymmetric topologies (Figs. 4b, 4c), the FCT breakdowns (Figs. 5a–5c),
// the Clove-ECN parameter sensitivity study (Fig. 6), the incast workload
// (Fig. 7), the simulation comparison against Clove-INT and CONGA
// (Figs. 8a, 8b), the mice-FCT CDF (Fig. 9), and the headline summary
// ratios. Each experiment runs at a configurable Scale so the same code
// drives quick benchmarks and paper-scale runs.
package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"

	"clove/internal/cluster"
	"clove/internal/netem"
	"clove/internal/sim"
	"clove/internal/stats"
	"clove/internal/telemetry"
)

// Scale trades fidelity for runtime. Link rates are always the paper's
// (10G/40G): simulation cost depends on packet count, so the knobs are
// host count, flow-size scale, and job count.
type Scale struct {
	Name           string
	HostsPerLeaf   int       // paper: 16
	SizeScale      float64   // flow-size multiplier (paper: 1.0)
	TotalJobs      int       // jobs per run (testbed: 50K/conn; sim: 20K)
	ConnsPerClient int       // paper testbed: 1; NS2: 3
	Seeds          []int64   // paper: 3 random seeds, averaged
	Loads          []float64 // load sweep points
	IncastRequests int
	IncastBytes    int64
	MaxSimTime     sim.Time

	// DomainWorkers is the engine worker count inside each sharded
	// (leaves > 2) scenario run; 0/1 runs the conservative windows
	// serially. Orthogonal to Parallelism (workers across runs) and, like
	// it, never changes output bytes.
	DomainWorkers int

	// Parallelism bounds the worker pool running independent (scheme,
	// load, seed) jobs: 0 means GOMAXPROCS, 1 forces a serial run. Any
	// value produces byte-identical FormatRows output for the same seeds
	// (see runner.go); it only changes wall-clock time.
	Parallelism int

	// Oracle installs the correctness oracle (internal/oracle) on every
	// run; any detected invariant violation panics with the verdict.
	// Observation never changes results — output stays byte-identical.
	Oracle bool

	// Telemetry, when non-nil, traces every run and exports each run's
	// streams under Telemetry.Dir. Tracing reads simulation state but never
	// perturbs it, and every run's trace directory is written by exactly one
	// job, so trace bytes — like FormatRows output — are identical for the
	// same seeds at any Parallelism.
	Telemetry *TraceSpec
}

// TraceSpec asks every run of an experiment for a telemetry trace
// (internal/telemetry). Each run exports into its own subdirectory of Dir
// named <figure>_<scheme>[_<variant>]_load<NNN>_seed<N> (incast runs use
// fanout<NN> instead of load<NNN>).
type TraceSpec struct {
	// Dir is the root output directory (created if missing).
	Dir string
	// Interval is the sampling interval for the polled streams
	// (0 = telemetry.DefaultInterval).
	Interval sim.Time
	// MaxSamples bounds each stream's ring buffer
	// (0 = telemetry.DefaultMaxSamples).
	MaxSamples int
}

// config converts the spec into the cluster-level telemetry config.
func (ts *TraceSpec) config() *telemetry.Config {
	if ts == nil {
		return nil
	}
	return &telemetry.Config{Interval: ts.Interval, MaxSamples: ts.MaxSamples}
}

// runDir names one run's trace subdirectory. point is "load070" or
// "fanout05"; the variant label (Fig. 6) is folded to lowercase
// alphanumerics and dashes so it is filesystem-safe.
func traceRunDir(figure string, scheme cluster.Scheme, variant, point string, seed int64) string {
	name := fmt.Sprintf("%s_%s", figure, scheme)
	if v := sanitizeLabel(variant); v != "" {
		name += "_" + v
	}
	return fmt.Sprintf("%s_%s_seed%d", name, point, seed)
}

func sanitizeLabel(s string) string {
	out := make([]byte, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			out = append(out, byte(r))
		case r >= 'A' && r <= 'Z':
			out = append(out, byte(r-'A'+'a'))
		}
	}
	return string(out)
}

// Quick is sized for CI and `go test -bench`: one seed, few load points,
// small flows. Shapes (scheme ordering, crossover direction) already hold.
func Quick() Scale {
	return Scale{
		Name: "quick", HostsPerLeaf: 4, SizeScale: 0.1,
		TotalJobs: 1000, ConnsPerClient: 1, Seeds: []int64{1, 2},
		Loads:          []float64{0.3, 0.5, 0.7},
		IncastRequests: 8, IncastBytes: 1_000_000,
		MaxSimTime: 300 * sim.Second,
	}
}

// Standard is the CLI default: full load sweeps, three seeds, eight hosts
// per leaf. Minutes of wall time on one core.
func Standard() Scale {
	return Scale{
		Name: "standard", HostsPerLeaf: 8, SizeScale: 0.1,
		TotalJobs: 2000, ConnsPerClient: 1, Seeds: []int64{1, 2, 3},
		Loads:          []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
		IncastRequests: 30, IncastBytes: 4_000_000,
		MaxSimTime: 600 * sim.Second,
	}
}

// Paper is the full-fidelity configuration (hours of wall time).
func Paper() Scale {
	return Scale{
		Name: "paper", HostsPerLeaf: 16, SizeScale: 1.0,
		TotalJobs: 20000, ConnsPerClient: 3, Seeds: []int64{1, 2, 3},
		Loads:          []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		IncastRequests: 200, IncastBytes: 10_000_000,
		MaxSimTime: 3600 * sim.Second,
	}
}

// Row is one data point of a regenerated figure.
type Row struct {
	Figure  string
	Scheme  string
	Load    float64 // offered load fraction (load sweeps)
	Fanout  int     // incast only
	Variant string  // parameter-sensitivity label (Fig. 6)

	MeanFCTSec   float64
	P99FCTSec    float64
	MiceFCTSec   float64
	ElephFCTSec  float64
	GoodputBps   float64
	CDF          []stats.CDFPoint // Fig. 9 only
	Samples      int
	TimedOutRuns int

	// Cross-seed replication statistics: each metric above is the mean
	// over Replicates seed runs; the stderr fields carry the standard
	// error of that mean (0 with a single seed), so every grid point
	// reports mean ± stderr rather than a bare average.
	Replicates       int
	MeanFCTStderrSec float64
	P99FCTStderrSec  float64
	GoodputStderrBps float64
}

// sweepOpts configures one load-sweep experiment.
type sweepOpts struct {
	figure     string
	schemes    []cluster.Scheme
	asym       bool
	prestoGood bool // grant Presto ideal weights (asym runs)
	// mutate tweaks the cluster config per run (Fig. 6 variants).
	mutate  func(*cluster.Config)
	variant string
	maxLoad float64 // skip sweep points above this (paper stops asym at 0.8)
}

// runOne executes one (scheme, load, seed) run and returns its recorder.
func runOne(sc Scale, opts sweepOpts, scheme cluster.Scheme, load float64, seed int64) (*stats.FCTRecorder, bool) {
	cfg := cluster.Config{
		Seed:               seed,
		Topo:               netem.ScaledTestbed(1.0, sc.HostsPerLeaf),
		Scheme:             scheme,
		AsymmetricFailure:  opts.asym,
		PrestoIdealWeights: opts.prestoGood && scheme == cluster.SchemePresto,
		Oracle:             sc.Oracle,
		Telemetry:          sc.Telemetry.config(),
	}
	if opts.mutate != nil {
		opts.mutate(&cfg)
	}
	c := cluster.New(cfg)
	res := c.RunWebSearch(cluster.WebSearchParams{
		Load:           load,
		TotalJobs:      sc.TotalJobs,
		ConnsPerClient: sc.ConnsPerClient,
		SizeScale:      sc.SizeScale,
		MaxSimTime:     sc.MaxSimTime,
	})
	if err := c.CheckOracle(); err != nil {
		panic(fmt.Sprintf("%s %s load=%.2f seed=%d: %v", opts.figure, scheme, load, seed, err))
	}
	if sc.Telemetry != nil {
		point := fmt.Sprintf("load%03d", int(load*100+0.5))
		dir := filepath.Join(sc.Telemetry.Dir, traceRunDir(opts.figure, scheme, opts.variant, point, seed))
		if err := c.ExportTraces(dir); err != nil {
			panic(fmt.Sprintf("%s %s load=%.2f seed=%d: trace export: %v", opts.figure, scheme, load, seed, err))
		}
	}
	return c.Recorder, res.TimedOut
}

// sweep runs the cross product schemes x loads x seeds and aggregates.
func sweep(sc Scale, opts sweepOpts, progress io.Writer) []Row {
	return sweepMany(sc, []sweepOpts{opts}, progress)
}

// sweepPoint is one grid point of a sweep: every seed replicate of it is
// an independent job.
type sweepPoint struct {
	opts   *sweepOpts
	scheme cluster.Scheme
	load   float64
}

// runOutcome is what one (point, seed) job contributes to its row.
type runOutcome struct {
	sum      stats.Summary
	timedOut bool
}

// sweepMany expands every opts' schemes x loads grid (in order) into
// seed-replicated jobs, runs them on the worker pool, and aggregates each
// grid point's replicates into one Row. Rows come back in the same order
// the serial nested loops produced, whatever the parallelism.
func sweepMany(sc Scale, optsList []sweepOpts, progress io.Writer) []Row {
	var pts []sweepPoint
	for oi := range optsList {
		opts := &optsList[oi]
		for _, scheme := range opts.schemes {
			for _, load := range sc.Loads {
				if opts.maxLoad > 0 && load > opts.maxLoad {
					continue
				}
				pts = append(pts, sweepPoint{opts: opts, scheme: scheme, load: load})
			}
		}
	}
	seeds := sc.Seeds
	outs := make([]runOutcome, len(pts)*len(seeds))
	tracker := newProgressTracker(progress, len(outs))
	runJobs(sc.Workers(), len(outs), func(i int) {
		p := pts[i/len(seeds)]
		seed := seeds[i%len(seeds)]
		start := time.Now()
		rec, timedOut := runOne(sc, *p.opts, p.scheme, p.load, seed)
		outs[i] = runOutcome{sum: rec.Summarize(), timedOut: timedOut}
		tracker.jobDone(fmt.Sprintf("%s %s load=%.0f%% seed=%d",
			p.opts.figure, p.scheme, p.load*100, seed), time.Since(start))
	})

	rows := make([]Row, 0, len(pts))
	for pi, p := range pts {
		row := Row{
			Figure: p.opts.figure, Scheme: string(p.scheme), Load: p.load,
			Variant: p.opts.variant, Replicates: len(seeds),
		}
		means := make([]float64, 0, len(seeds))
		p99s := make([]float64, 0, len(seeds))
		mices := make([]float64, 0, len(seeds))
		elephs := make([]float64, 0, len(seeds))
		for si := range seeds {
			o := outs[pi*len(seeds)+si]
			if o.timedOut {
				row.TimedOutRuns++
			}
			means = append(means, o.sum.MeanSec)
			p99s = append(p99s, o.sum.P99Sec)
			mices = append(mices, o.sum.MiceMeanSec)
			elephs = append(elephs, o.sum.ElephMeanSec)
			row.Samples += o.sum.Count
		}
		row.MeanFCTSec, row.MeanFCTStderrSec = stats.MeanStderr(means)
		row.P99FCTSec, row.P99FCTStderrSec = stats.MeanStderr(p99s)
		row.MiceFCTSec, _ = stats.MeanStderr(mices)
		row.ElephFCTSec, _ = stats.MeanStderr(elephs)
		rows = append(rows, row)
		tracker.rowf("%s %-13s load=%.0f%% mean=%.4fs±%.4f p99=%.4fs n=%d\n",
			p.opts.figure, row.Scheme, p.load*100, row.MeanFCTSec, row.MeanFCTStderrSec,
			row.P99FCTSec, row.Samples)
	}
	return rows
}

// testbedSchemes are the deployable schemes of the hardware evaluation
// (Sec. 5). CONGA and Clove-INT need new switch features and only appear in
// the simulation figures (Sec. 6).
func testbedSchemes() []cluster.Scheme {
	return []cluster.Scheme{
		cluster.SchemeECMP, cluster.SchemeEdgeFlowlet, cluster.SchemeCloveECN,
		cluster.SchemeMPTCP, cluster.SchemePresto,
	}
}

// simSchemes are the simulation-only sweeps: the paper's set plus the two
// contrast points added here — stateless Concury and in-network Charon —
// which, like CONGA and Clove-INT, need features a commodity edge or
// fabric of the testbed era did not have.
func simSchemes() []cluster.Scheme {
	return []cluster.Scheme{
		cluster.SchemeECMP, cluster.SchemeEdgeFlowlet, cluster.SchemeCloveECN,
		cluster.SchemeCloveINT, cluster.SchemeCONGA,
		cluster.SchemeConcury, cluster.SchemeCharon,
	}
}

// Fig4b regenerates "Symmetric topology - avg FCT" (testbed, Fig. 4b).
func Fig4b(sc Scale, progress io.Writer) []Row {
	return sweep(sc, sweepOpts{figure: "fig4b", schemes: testbedSchemes()}, progress)
}

// Fig4c regenerates "Asymmetric topology - avg FCT" (testbed, Fig. 4c);
// Presto receives the ideal static path weights, as in the paper.
func Fig4c(sc Scale, progress io.Writer) []Row {
	return sweep(sc, sweepOpts{
		figure: "fig4c", schemes: testbedSchemes(),
		asym: true, prestoGood: true, maxLoad: 0.8,
	}, progress)
}

// Fig5a regenerates "Avg FCTs for <100KB flows" on the asymmetric testbed.
func Fig5a(sc Scale, progress io.Writer) []Row {
	rows := sweep(sc, sweepOpts{
		figure: "fig5a", schemes: testbedSchemes(),
		asym: true, prestoGood: true, maxLoad: 0.8,
	}, progress)
	return rows
}

// Fig5b regenerates "Avg FCTs for >10MB flows" on the asymmetric testbed.
// (With SizeScale < 1 the elephant bucket scales with it; the Row carries
// the elephant-bucket mean.)
func Fig5b(sc Scale, progress io.Writer) []Row {
	return sweep(sc, sweepOpts{
		figure: "fig5b", schemes: testbedSchemes(),
		asym: true, prestoGood: true, maxLoad: 0.8,
	}, progress)
}

// Fig5c regenerates "99th percentile FCTs" on the asymmetric testbed.
func Fig5c(sc Scale, progress io.Writer) []Row {
	return sweep(sc, sweepOpts{
		figure: "fig5c", schemes: testbedSchemes(),
		asym: true, prestoGood: true, maxLoad: 0.8,
	}, progress)
}

// Fig6 regenerates the Clove-ECN parameter-sensitivity study: variants of
// (flowlet gap, ECN threshold) on the asymmetric topology.
func Fig6(sc Scale, progress io.Writer) []Row {
	variants := []struct {
		label   string
		gapMult float64
		ecnK    int
	}{
		{"clove-best (1*RTT, 20pkts)", 1, 20},
		{"clove (0.2*RTT, 20pkts)", 0.2, 20},
		{"clove (5*RTT, 20pkts)", 5, 20},
		{"clove (1*RTT, 40pkts)", 1, 40},
	}
	var optsList []sweepOpts
	for _, v := range variants {
		v := v
		optsList = append(optsList, sweepOpts{
			figure:  "fig6",
			schemes: []cluster.Scheme{cluster.SchemeCloveECN},
			asym:    true, maxLoad: 0.8,
			variant: v.label,
			mutate: func(cfg *cluster.Config) {
				cfg.Topo.ECNK = v.ecnK
				// The gap multiple is in units of the effective (loaded)
				// RTT, matching the cluster default of 1x effective RTT.
				rtt := netem.BuildLeafSpine(sim.New(0), cfg.Topo).BaseRTT()
				cfg.FlowletGap = sim.Time(float64(rtt) * v.gapMult)
			},
		})
	}
	// One pool across all variants: a variant is just more grid columns.
	return sweepMany(sc, optsList, progress)
}

// Fig7 regenerates the incast experiment: client goodput vs request fanout
// for Clove-ECN, Edge-Flowlet, and MPTCP.
func Fig7(sc Scale, progress io.Writer) []Row {
	schemes := []cluster.Scheme{cluster.SchemeCloveECN, cluster.SchemeEdgeFlowlet, cluster.SchemeMPTCP}
	fanouts := []int{1, 3, 5, 7, 9, 11, 13, 15}
	type point struct {
		scheme cluster.Scheme
		fanout int
	}
	var pts []point
	for _, scheme := range schemes {
		for _, fanout := range fanouts {
			if fanout > sc.HostsPerLeaf {
				continue
			}
			pts = append(pts, point{scheme, fanout})
		}
	}
	type incastOutcome struct {
		goodput   float64
		completed int
		timedOut  bool
	}
	seeds := sc.Seeds
	outs := make([]incastOutcome, len(pts)*len(seeds))
	tracker := newProgressTracker(progress, len(outs))
	runJobs(sc.Workers(), len(outs), func(i int) {
		p := pts[i/len(seeds)]
		seed := seeds[i%len(seeds)]
		start := time.Now()
		c := cluster.New(cluster.Config{
			Seed:      seed,
			Topo:      netem.ScaledTestbed(1.0, sc.HostsPerLeaf),
			Scheme:    p.scheme,
			Oracle:    sc.Oracle,
			Telemetry: sc.Telemetry.config(),
		})
		res := c.RunIncast(cluster.IncastParams{
			Fanout:        p.fanout,
			ResponseBytes: sc.IncastBytes,
			Requests:      sc.IncastRequests,
			MaxSimTime:    sc.MaxSimTime,
		})
		if err := c.CheckOracle(); err != nil {
			panic(fmt.Sprintf("fig7 %s fanout=%d seed=%d: %v", p.scheme, p.fanout, seed, err))
		}
		if sc.Telemetry != nil {
			point := fmt.Sprintf("fanout%02d", p.fanout)
			dir := filepath.Join(sc.Telemetry.Dir, traceRunDir("fig7", p.scheme, "", point, seed))
			if err := c.ExportTraces(dir); err != nil {
				panic(fmt.Sprintf("fig7 %s fanout=%d seed=%d: trace export: %v", p.scheme, p.fanout, seed, err))
			}
		}
		outs[i] = incastOutcome{goodput: res.GoodputBps, completed: res.Completed, timedOut: res.TimedOut}
		tracker.jobDone(fmt.Sprintf("fig7 %s fanout=%d seed=%d", p.scheme, p.fanout, seed), time.Since(start))
	})
	rows := make([]Row, 0, len(pts))
	for pi, p := range pts {
		row := Row{Figure: "fig7", Scheme: string(p.scheme), Fanout: p.fanout, Replicates: len(seeds)}
		goodputs := make([]float64, 0, len(seeds))
		for si := range seeds {
			o := outs[pi*len(seeds)+si]
			if o.timedOut {
				row.TimedOutRuns++
			}
			goodputs = append(goodputs, o.goodput)
			row.Samples += o.completed
		}
		row.GoodputBps, row.GoodputStderrBps = stats.MeanStderr(goodputs)
		rows = append(rows, row)
		tracker.rowf("fig7 %-13s fanout=%-2d goodput=%.2f±%.2f Gbps\n",
			row.Scheme, p.fanout, row.GoodputBps/1e9, row.GoodputStderrBps/1e9)
	}
	return rows
}

// Fig8a regenerates the NS2 symmetric comparison including Clove-INT and
// CONGA.
func Fig8a(sc Scale, progress io.Writer) []Row {
	return sweep(sc, sweepOpts{figure: "fig8a", schemes: simSchemes()}, progress)
}

// Fig8b regenerates the NS2 asymmetric comparison.
func Fig8b(sc Scale, progress io.Writer) []Row {
	return sweep(sc, sweepOpts{
		figure: "fig8b", schemes: simSchemes(),
		asym: true, maxLoad: 0.7,
	}, progress)
}

// Fig9 regenerates the CDF of mice-flow FCTs at 70% load on the asymmetric
// topology for ECMP, Clove-ECN, and CONGA.
func Fig9(sc Scale, progress io.Writer) []Row {
	schemes := []cluster.Scheme{cluster.SchemeECMP, cluster.SchemeCloveECN, cluster.SchemeCONGA}
	seeds := sc.Seeds
	// Each job extracts its run's mice samples; the CDF aggregation
	// happens afterwards in deterministic (scheme, seed) index order.
	mice := make([][]stats.Sample, len(schemes)*len(seeds))
	tracker := newProgressTracker(progress, len(mice))
	runJobs(sc.Workers(), len(mice), func(i int) {
		scheme := schemes[i/len(seeds)]
		seed := seeds[i%len(seeds)]
		start := time.Now()
		rec, _ := runOne(sc, sweepOpts{figure: "fig9", asym: true}, scheme, 0.7, seed)
		mice[i] = rec.Mice().Samples()
		tracker.jobDone(fmt.Sprintf("fig9 %s seed=%d", scheme, seed), time.Since(start))
	})
	var rows []Row
	for si, scheme := range schemes {
		agg := &stats.FCTRecorder{}
		for j := si * len(seeds); j < (si+1)*len(seeds); j++ {
			for _, s := range mice[j] {
				agg.Add(s.Size, s.FCT)
			}
		}
		row := Row{
			Figure: "fig9", Scheme: string(scheme), Load: 0.7,
			Samples: agg.Count(), CDF: agg.CDF(20),
			MeanFCTSec: agg.Mean(), Replicates: len(seeds),
		}
		if agg.Count() > 0 {
			row.P99FCTSec = agg.Percentile(0.99)
		}
		rows = append(rows, row)
		tracker.rowf("fig9 %-13s mice n=%d p99=%.4fs\n", row.Scheme, row.Samples, row.P99FCTSec)
	}
	return rows
}

// FormatRows renders rows as an aligned text table, grouped by figure.
func FormatRows(rows []Row) string {
	sorted := append([]Row(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Figure < sorted[j].Figure })
	out := ""
	lastFig := ""
	for _, r := range sorted {
		if r.Figure != lastFig {
			out += fmt.Sprintf("== %s ==\n", r.Figure)
			lastFig = r.Figure
		}
		switch {
		case r.Fanout > 0:
			out += fmt.Sprintf("  %-28s fanout=%-2d goodput=%8.3f%s Gbps  (n=%d)\n",
				r.Scheme, r.Fanout, r.GoodputBps/1e9, stderrSuffixf("±%.3f", r.Replicates, r.GoodputStderrBps/1e9), r.Samples)
		case len(r.CDF) > 0:
			out += fmt.Sprintf("  %-28s mice CDF (n=%d):", r.Scheme, r.Samples)
			for _, pt := range r.CDF {
				out += fmt.Sprintf(" %.0f%%@%.4fs", pt.P*100, pt.Seconds)
			}
			out += "\n"
		default:
			label := r.Scheme
			if r.Variant != "" {
				label = r.Variant
			}
			out += fmt.Sprintf("  %-28s load=%2.0f%% mean=%8.4fs%s p99=%8.4fs%s mice=%8.4fs eleph=%8.4fs (n=%d)\n",
				label, r.Load*100,
				r.MeanFCTSec, stderrSuffix(r.Replicates, r.MeanFCTStderrSec),
				r.P99FCTSec, stderrSuffix(r.Replicates, r.P99FCTStderrSec),
				r.MiceFCTSec, r.ElephFCTSec, r.Samples)
		}
	}
	return out
}

// stderrSuffix renders "±x.xxxx" for multi-seed rows and nothing for
// single-replicate rows (where a standard error is undefined), keeping
// single-seed output byte-compatible with the pre-replication format.
func stderrSuffix(replicates int, stderr float64) string {
	return stderrSuffixf("±%.4f", replicates, stderr)
}

func stderrSuffixf(format string, replicates int, stderr float64) string {
	if replicates < 2 {
		return ""
	}
	return fmt.Sprintf(format, stderr)
}
