package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"clove/internal/cluster"
	"clove/internal/netem"
	"clove/internal/scenario"
	"clove/internal/stats"
)

// Workload sizes. The timed run repeats run calls until the budget is
// spent, each on inputs drawn from its own sub-seed, so the inputs of one
// run are a function of --seed alone and a longer budget sees more of them.
const (
	// webJobs per RunWebSearch call (~1 s per scheme on one core). At this
	// size the paper's clove-ecn < ecmp ordering held on every seed tried;
	// at 1000 jobs one seed in 24 inverted it.
	webJobs = 2000
	// k16Jobs per RunMix call. RunMix floors TotalJobs/hosts per client,
	// so this is a multiple of the spec's 1024 hosts.
	k16Jobs = 2048
	// k16Workers is the sharded engine's DomainWorkers.
	k16Workers = 2
)

// subSeed is the input seed of call i: call 0 runs on the seed itself, so
// the committed reference digests apply to it.
func subSeed(seed int64, i int) int64 { return seed + int64(i)<<32 }

// simCall is the outcome of one run call (one scheme, or one RunMix).
type simCall struct {
	name      string
	round     int
	setup     time.Duration // process CPU time in cluster.New (+ InstallEvents)
	wall      time.Duration // the run call alone
	cpu       time.Duration // process CPU time during the run call
	issued    int
	completed int
	events    uint64
	poolGets  int64
	meanFCT   float64
	digest    uint64
	counts    []*obsCounts // nil unless traced
	rt        rtSnap       // run-call runtime deltas
}

// sampleDigest hashes the recorder's samples in completion order.
func sampleDigest(samples []stats.Sample) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, s := range samples {
		binary.LittleEndian.PutUint64(b[:8], uint64(s.Size))
		binary.LittleEndian.PutUint64(b[8:], uint64(s.FCT))
		h.Write(b[:])
	}
	return h.Sum64()
}

// simSpec is one simulator workload: its calls, reference digests and
// whether the paper's ordering is checked on it.
type simSpec struct {
	// calls is the number of calls in one round; every call of a round is
	// one scheme (sim-websearch) or the only call (sim-k16-storm).
	calls int
	call  func(round, k int, traced bool) simCall
	ref   map[string]uint64 // round-0 digests for refSeed, by call name
	order bool              // check clove-ecn mean FCT < ecmp, pooled over rounds
}

// webSearchCall runs scheme k of round i on the asymmetric testbed. Each
// call draws its own inputs, except that clove-ecn reuses ecmp's, so the
// paper's ordering is checked on identical jobs.
func (r *run) webSearchCall(i, k int, traced bool) simCall {
	schemes := cluster.AllSchemes()
	scheme := schemes[k]
	idx := k
	if scheme == cluster.SchemeCloveECN {
		idx = 0 // ecmp
	}
	seed := subSeed(r.seed, i*len(schemes)+idx)
	call := simCall{name: string(scheme), round: i}
	tr := r.tr.on(traced)
	runtime.GC() // each call starts on a heap holding no earlier cluster
	t0 := cpuTime()
	sp := tr.begin("cluster.new", 0)
	c := cluster.New(cluster.Config{
		Seed:              seed,
		Topo:              netem.ScaledTestbed(1.0, 8),
		Scheme:            scheme,
		AsymmetricFailure: true,
	})
	tr.end(sp)
	call.setup = cpuTime() - t0
	if traced {
		call.counts = observe(c)
	}
	rt0, cpu0 := readRT(), cpuTime()
	t1 := time.Now()
	sp = tr.begin("cluster.run."+string(scheme), 0)
	res := c.RunWebSearch(cluster.WebSearchParams{Load: 0.7, TotalJobs: webJobs, SizeScale: 0.1})
	tr.end(sp)
	call.wall = time.Since(t1)
	call.cpu = cpuTime() - cpu0
	call.rt = rt0.to(readRT())
	finishCall(c, &call, res.Issued, res.Completed, res.TimedOut)
	return call
}

// k16Spec returns the embedded storm scenario.
func k16Spec() *scenario.Spec {
	return scenario.Library()["fat-tree-k16-mixed"].Clone()
}

// k16Call runs clove-ecn once on the full-size sharded storm scenario.
func (r *run) k16Call(sp *scenario.Spec, i int, traced bool) simCall {
	call := simCall{name: "clove-ecn", round: i}
	tr := r.tr.on(traced)
	runtime.GC()
	t0 := cpuTime()
	s := tr.begin("cluster.new", 0)
	c := cluster.New(sp.ClusterConfig("clove-ecn", subSeed(r.seed, i), false, nil, k16Workers))
	tr.end(s)
	s = tr.begin("scenario.install", 0)
	sp.InstallEvents(c)
	tr.end(s)
	call.setup = cpuTime() - t0
	if traced {
		call.counts = observe(c)
	}
	mp := sp.MixParams()
	mp.TotalJobs = k16Jobs
	rt0, cpu0 := readRT(), cpuTime()
	t1 := time.Now()
	s = tr.begin("cluster.runmix", 0)
	res := c.RunMix(mp)
	tr.end(s)
	call.wall = time.Since(t1)
	call.cpu = cpuTime() - cpu0
	call.rt = rt0.to(readRT())
	finishCall(c, &call, res.Issued, res.Completed, res.TimedOut)
	return call
}

// finishCall fills the outcome fields every sim call shares.
func finishCall(c *cluster.Cluster, call *simCall, issued, completed int, timedOut bool) {
	call.issued, call.completed = issued, completed
	if timedOut && completed >= issued {
		call.completed = issued - 1
	}
	call.meanFCT = c.Recorder.Mean()
	call.digest = sampleDigest(c.Recorder.Samples())
	if c.Eng != nil {
		call.events = c.Eng.Processed()
	} else {
		call.events = c.Sim.Processed()
	}
	for _, p := range c.LS.Pools() {
		call.poolGets += p.Gets()
	}
}

func runWebSearch(r *run) {
	d := simSpec{calls: len(cluster.AllSchemes()), call: r.webSearchCall, order: true}
	if r.seed == refSeed {
		d.ref = refWebSearch
	}
	r.simWorkload(d)
}

func runK16Storm(r *run) {
	sp := k16Spec()
	d := simSpec{calls: 1, call: func(i, _ int, traced bool) simCall { return r.k16Call(sp, i, traced) }}
	if r.seed == refSeed {
		d.ref = refK16Storm
	}
	r.simWorkload(d)
}

// checkCalls applies the output checks and accounts for failures: a job
// issued but not completed fails, and so does every job of a call whose
// check fails. The paper's ordering is checked on ecmp/clove-ecn pairs of
// complete rounds, pooled over the run.
func (r *run) checkCalls(calls []simCall, d simSpec) {
	for _, c := range calls {
		r.rep.Attempted += int64(c.issued)
		ok := c.issued > 0 && c.completed == c.issued
		if !ok {
			r.fail("round %d %s: %d of %d jobs completed", c.round, c.name, c.completed, c.issued)
		}
		if want, has := d.ref[c.name]; has && c.round == 0 && c.digest != want {
			r.fail("round 0 %s: FCT digest %016x, reference %016x", c.name, c.digest, want)
			ok = false
		}
		if ok {
			r.rep.Failed += int64(c.issued - c.completed)
		} else {
			r.rep.Failed += int64(c.issued)
		}
	}
	if !d.order {
		return
	}
	sum := map[string]float64{}
	n := map[string]int{}
	pair := map[int]int{}
	for _, c := range calls {
		if c.name == string(cluster.SchemeECMP) || c.name == string(cluster.SchemeCloveECN) {
			pair[c.round]++
		}
	}
	for _, c := range calls {
		if pair[c.round] == 2 && (c.name == string(cluster.SchemeECMP) || c.name == string(cluster.SchemeCloveECN)) {
			sum[c.name] += c.meanFCT * float64(c.completed)
			n[c.name] += c.completed
		}
	}
	ecmp, cloveECN := sum["ecmp"]/float64(n["ecmp"]), sum["clove-ecn"]/float64(n["clove-ecn"])
	if !(cloveECN < ecmp) {
		r.fail("paper ordering: clove-ecn mean FCT %.6fs not below ecmp %.6fs", cloveECN, ecmp)
	}
}

// simWorkload drives the calls: untraced until the budget is spent (and at
// least one full round), or in a traced run round 0 twice, untraced then
// traced, which must agree exactly.
func (r *run) simWorkload(d simSpec) {
	if r.trace {
		var base, traced []simCall
		for k := 0; k < d.calls; k++ {
			base = append(base, d.call(0, k, false))
		}
		r.beginTraced()
		cpu0, t0 := cpuTime(), time.Now()
		for k := 0; k < d.calls; k++ {
			r.tr.newRun()
			traced = append(traced, d.call(0, k, true))
		}
		r.reportCPU(cpu0, t0)
		r.checkCalls(base, d)
		r.checkCalls(traced, d)
		var bw, tw time.Duration
		for k := range base {
			b, t := base[k], traced[k]
			if b.digest != t.digest || b.events != t.events {
				r.fail("%s: traced run (digest %016x, %d events) differs from untraced (%016x, %d)",
					b.name, t.digest, t.events, b.digest, b.events)
			}
			bw += b.wall
			tw += t.wall
		}
		r.set("trace.overhead_frac", "fraction", tw.Seconds()/bw.Seconds()-1)
		r.set("sim.wall_us_per_job", "us", wallPerJob(base))
		r.reportSimLayers(traced)
		return
	}
	var calls []simCall
	deadline := r.started.Add(r.budget)
	for j := 0; j < d.calls || time.Now().Before(deadline); j++ {
		calls = append(calls, d.call(j/d.calls, j%d.calls, false))
	}
	r.checkCalls(calls, d)
	fmt.Printf("round 0 digests:")
	for _, c := range calls[:d.calls] {
		fmt.Printf(" %s=%016x", c.name, c.digest)
	}
	fmt.Printf("\n%d calls\n", len(calls))

	// ops_per_cpu_s: jobs per process CPU second for one full round, from
	// each call kind's (scheme's) median CPU seconds per job, so that
	// neither a partial last round nor a cold first call weights the result.
	// Wall time is printed, not gated: see METRICS.md.
	cpuPerJob := make([][]float64, d.calls)
	var setups []float64
	for j, c := range calls {
		k := j % d.calls
		cpuPerJob[k] = append(cpuPerJob[k], c.cpu.Seconds()/float64(c.completed))
		setups = append(setups, c.setup.Seconds())
	}
	var sweep float64
	for _, xs := range cpuPerJob {
		sweep += median(xs)
	}
	r.set("ops_per_cpu_s", "1/s", float64(d.calls)/sweep)
	fmt.Printf("wall time: %.1f us per job (median over call kinds)\n", wallPerJob(calls))
	r.set("setup_s", "s", median(setups)*float64(d.calls))
}

// wallPerJob is the median over call kinds of each kind's median host µs per
// job. Calls are in round order, one kind after another.
func wallPerJob(calls []simCall) float64 {
	kinds := map[string][]float64{}
	for _, c := range calls {
		kinds[c.name] = append(kinds[c.name], c.wall.Seconds()/float64(c.completed)*1e6)
	}
	var per []float64
	for _, xs := range kinds {
		per = append(per, median(xs))
	}
	return median(per)
}
