package cluster

import (
	"fmt"
	"math/rand"

	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/stats"
	"clove/internal/telemetry"
	"clove/internal/workload"
)

// MixParams configures a blended workload: every arriving job is one of four
// components — a web-search flow, an RPC (cache-follower) flow, an ML
// all-to-all transfer, or an incast partition–aggregate request — drawn with
// the configured probabilities. The blend is what scenario specs run: the
// paper's load sweep is the special case FracWebSearch=1.
type MixParams struct {
	// Load is the offered load as a fraction of the bisection bandwidth.
	Load float64
	// TotalJobs across all clients (composite ML/incast jobs count as one).
	TotalJobs int
	// SizeScale multiplies all component sizes (flow-size CDFs, MLBytes,
	// IncastBytes); smaller values keep packet-level simulation cheap.
	SizeScale float64

	// Component fractions; they must be non-negative and sum to 1 (the
	// scenario validator enforces the exact sum, this driver re-checks).
	FracWebSearch float64
	FracRPC       float64
	FracML        float64
	FracIncast    float64

	// IncastFanout servers answer each incast request (clamped to the
	// server count); IncastBytes is the total response size per request.
	IncastFanout int
	IncastBytes  int64
	// MLBytes is the total bytes one all-to-all job pushes from its client,
	// split evenly across every server.
	MLBytes int64

	// MaxSimTime guards non-converging runs (default 10 min sim time).
	MaxSimTime sim.Time
	// Warmup delays the first arrivals (prober path installation).
	Warmup sim.Time
}

// MixResult is the outcome of one blended run.
type MixResult struct {
	Completed int
	Issued    int
	// TimedOut reports that MaxSimTime elapsed before all jobs finished
	// (expected under unrecovered failures, which strand in-flight jobs).
	TimedOut bool
}

// job component indices, in cumulative-probability order.
const (
	mixWeb = iota
	mixRPC
	mixML
	mixIncast
)

// RunMix drives the blended workload to completion and records every job in
// c.Recorder. On a single-sim cluster clients are the hosts of leaf 1,
// servers of leaf 2; each client keeps a persistent connection to every
// server (and, when incast is in the mix, each server one back to every
// client), so ML all-to-all and incast use the same cached transports as
// the singleton flows. A sharded cluster runs runMixDomains instead.
//
// Scenario event scripts schedule their link flaps, switch failures, and
// load ramps (ScheduleControl) before calling RunMix; SetLoadScale takes
// effect on every inter-arrival gap drawn after the ramp fires.
func (c *Cluster) RunMix(p MixParams) MixResult {
	if c.Eng != nil {
		return c.runMixDomains(p)
	}
	nHosts := c.Cfg.Topo.HostsPerLeaf
	plan := c.planMix(p, nHosts, nHosts)

	// Persistent connection meshes. The forward mesh carries web, RPC, and
	// ML traffic; the reverse mesh (servers answering clients) exists only
	// when incast is in the blend.
	fwd := make([][]*Conn, nHosts)
	rev := make([][]*Conn, nHosts)
	var pairs [][2]packet.HostID
	for ci := 0; ci < nHosts; ci++ {
		fwd[ci] = make([]*Conn, nHosts)
		for si := 0; si < nHosts; si++ {
			client, server := packet.HostID(ci), packet.HostID(nHosts+si)
			fwd[ci][si] = c.OpenConn(client, server, 0)
			pairs = append(pairs, [2]packet.HostID{client, server}, [2]packet.HostID{server, client})
		}
	}
	if p.FracIncast > 0 {
		for ci := 0; ci < nHosts; ci++ {
			rev[ci] = make([]*Conn, nHosts)
			for si := 0; si < nHosts; si++ {
				rev[ci][si] = c.OpenConn(packet.HostID(nHosts+si), packet.HostID(ci), 0)
			}
		}
	}
	c.SetupPaths(pairs)

	var cnt mixCount
	stop := func() {
		if cnt.completed == plan.target {
			c.Sim.Stop()
		}
	}
	for ci := 0; ci < nHosts; ci++ {
		m := c.newMixClient(plan, packet.HostID(ci), fwd[ci], rev[ci], c.Recorder, &cnt)
		m.incast, m.onDone = (*Conn).StartJob, stop
		m.start()
	}
	c.Sim.RunUntil(plan.MaxSimTime)
	return plan.result(cnt.completed, cnt.issued)
}

// mixPlan is what both mix drivers derive from MixParams before opening
// connections: the defaulted parameters, the scaled component sizes, and
// the per-client arrival rate.
type mixPlan struct {
	MixParams
	web, rpc             *workload.EmpiricalCDF
	mlBytes, incastBytes int64
	servers              int     // persistent servers per client
	rate                 float64 // per-client arrivals/s at load scale 1
	jobsPerClient        int
	target               int // jobs across all clients
}

// planMix defaults and checks p for clients each talking to servers hosts,
// and sets the recorder's size scale.
func (c *Cluster) planMix(p MixParams, clients, servers int) *mixPlan {
	if p.SizeScale == 0 {
		p.SizeScale = 1
	}
	if p.MaxSimTime == 0 {
		p.MaxSimTime = 600 * sim.Second
	}
	fracSum := p.FracWebSearch + p.FracRPC + p.FracML + p.FracIncast
	if p.FracWebSearch < 0 || p.FracRPC < 0 || p.FracML < 0 || p.FracIncast < 0 ||
		fracSum < 0.999 || fracSum > 1.001 {
		panic(fmt.Sprintf("cluster: mix fractions must be >= 0 and sum to 1, got %v", fracSum))
	}
	if p.IncastFanout <= 0 || p.IncastFanout > servers {
		p.IncastFanout = servers
	}
	if p.IncastBytes == 0 {
		p.IncastBytes = 1e6
	}
	if p.MLBytes == 0 {
		p.MLBytes = 1e6
	}
	plan := &mixPlan{MixParams: p, web: workload.WebSearch(), rpc: workload.CacheFollower(), servers: servers}
	if p.SizeScale != 1 {
		plan.web = plan.web.Scaled(p.SizeScale)
		plan.rpc = plan.rpc.Scaled(p.SizeScale)
	}
	plan.mlBytes = max(int64(float64(p.MLBytes)*p.SizeScale), 1)
	plan.incastBytes = max(int64(float64(p.IncastBytes)*p.SizeScale), 1)
	c.Recorder.SetSizeScale(p.SizeScale)

	// Arrival rate per client, from the blend's mean job footprint.
	meanJob := p.FracWebSearch*plan.web.Mean() + p.FracRPC*plan.rpc.Mean() +
		p.FracML*float64(plan.mlBytes) + p.FracIncast*float64(plan.incastBytes)
	plan.rate = workload.ArrivalRateForLoad(p.Load, c.LS.BisectionBps(), clients, meanJob)
	plan.jobsPerClient = max(p.TotalJobs/clients, 1)
	plan.target = plan.jobsPerClient * clients
	return plan
}

// result reports a finished run against the plan's job target.
func (plan *mixPlan) result(completed, issued int) MixResult {
	return MixResult{Completed: completed, Issued: issued, TimedOut: completed < plan.target}
}

// mixCount is one event loop's job tally. Each is written only by its
// owning loop; the padding keeps sharded mode's per-domain tallies off
// shared cache lines.
type mixCount struct {
	completed, issued int
	_                 [48]byte
}

// mixClient issues one client's jobs on the client's event loop: the
// arrival chain, the component pick, web/RPC/ML issue, composite-shard
// accounting, and FCT tracing.
type mixClient struct {
	c    *Cluster
	plan *mixPlan
	s    *sim.Simulator
	rng  *rand.Rand
	rec  *stats.FCTRecorder
	tr   *telemetry.Tracer
	cnt  *mixCount
	// fwd[k] is the connection to the client's k-th server; rev[k], present
	// only with incast in the blend, the one back from it.
	fwd, rev []*Conn
	// incast starts one incast shard on the reverse connection conn; finish
	// must run on the client's loop when the shard lands.
	incast func(conn *Conn, shard int64, finish func(sim.Time))
	// onDone, if set, runs after each completed job.
	onDone func()
}

func (c *Cluster) newMixClient(plan *mixPlan, client packet.HostID, fwd, rev []*Conn, rec *stats.FCTRecorder, cnt *mixCount) *mixClient {
	s := c.simFor(client)
	return &mixClient{c: c, plan: plan, s: s, rng: s.Rand(), rec: rec, tr: c.traceFor(client),
		cnt: cnt, fwd: fwd, rev: rev}
}

// start schedules the client's arrival chain. The inter-arrival gap is
// drawn at schedule time so a mid-run SetLoadScale bends the process
// immediately.
func (m *mixClient) start() {
	var issue func(remaining int)
	issue = func(remaining int) {
		if remaining == 0 {
			return
		}
		m.issue()
		m.s.After(m.nextGap(), func() { issue(remaining - 1) })
	}
	m.s.After(m.plan.Warmup+m.nextGap(), func() { issue(m.plan.jobsPerClient) })
}

func (m *mixClient) nextGap() sim.Time {
	return sim.FromSeconds(m.rng.ExpFloat64() / (m.plan.rate * m.c.loadScale))
}

func (m *mixClient) jobDone() {
	m.cnt.completed++
	if m.onDone != nil {
		m.onDone()
	}
}

// recordFlow finishes a singleton (web/RPC) job.
func (m *mixClient) recordFlow(conn *Conn, size int64) func(sim.Time) {
	return func(fct sim.Time) {
		m.rec.Add(size, fct)
		if m.tr != nil {
			m.tr.FCT(m.s.Now(), conn.Client, conn.Server, size, fct)
		}
		m.jobDone()
	}
}

// composite is one ML or incast job in flight: it completes when its last
// shard lands.
type composite struct {
	pending int
	total   int64
	start   sim.Time
}

// recordShard traces one shard of a composite job and completes the job
// when the last shard lands: the recorder sees one sample whose FCT spans
// issue → slowest shard, the paper's partition–aggregate metric.
func (m *mixClient) recordShard(conn *Conn, comp *composite, shard int64) func(sim.Time) {
	return func(sim.Time) {
		if m.tr != nil {
			m.tr.FCT(m.s.Now(), conn.Client, conn.Server, shard, m.s.Now()-comp.start)
		}
		comp.pending--
		if comp.pending == 0 {
			m.rec.Add(comp.total, m.s.Now()-comp.start)
			m.jobDone()
		}
	}
}

// pick draws the next job's component.
func (m *mixClient) pick() int {
	p := m.plan
	u := m.rng.Float64()
	switch {
	case u < p.FracWebSearch:
		return mixWeb
	case u < p.FracWebSearch+p.FracRPC:
		return mixRPC
	case u < p.FracWebSearch+p.FracRPC+p.FracML:
		return mixML
	default:
		return mixIncast
	}
}

// issue starts one job.
func (m *mixClient) issue() {
	p, n := m.plan, m.plan.servers
	m.cnt.issued++
	switch m.pick() {
	case mixWeb:
		k := m.rng.Intn(n)
		size := p.web.Sample(m.rng)
		m.fwd[k].StartJob(size, m.recordFlow(m.fwd[k], size))
	case mixRPC:
		k := m.rng.Intn(n)
		size := p.rpc.Sample(m.rng)
		m.fwd[k].StartJob(size, m.recordFlow(m.fwd[k], size))
	case mixML:
		shard := max(p.mlBytes/int64(n), 1)
		comp := &composite{pending: n, total: shard * int64(n), start: m.s.Now()}
		for k := 0; k < n; k++ {
			m.fwd[k].StartJob(shard, m.recordShard(m.fwd[k], comp, shard))
		}
	case mixIncast:
		shard := max(p.incastBytes/int64(p.IncastFanout), 1)
		perm := m.rng.Perm(n)[:p.IncastFanout]
		comp := &composite{pending: p.IncastFanout, total: shard * int64(p.IncastFanout), start: m.s.Now()}
		for _, k := range perm {
			m.incast(m.rev[k], shard, m.recordShard(m.rev[k], comp, shard))
		}
	}
}

// AbortOpenConns tears down the transport of every open connection (see
// Conn.Abort); used by teardown tests and scenario runs that end with
// unrecovered failures, so the event queue can drain for the oracle's
// conservation audit.
func (c *Cluster) AbortOpenConns() {
	for _, conn := range c.connList {
		conn.Abort()
	}
}
