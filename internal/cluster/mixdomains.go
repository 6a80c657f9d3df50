package cluster

import (
	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/stats"
)

// runMixDomains is the sharded counterpart of RunMix: every host is a
// client, its servers are hosts on other leaves (capped by
// Config.ServersPerClient — the legacy full mesh would be quadratic at 1024
// hosts), and each client's arrival chain runs entirely inside its own
// event domain using that domain's RNG stream. Web, RPC, and ML jobs are
// domain-local at issue time (their senders live on the client host); only
// incast crosses domains — the request to each responding server, and each
// shard's completion notification back, travel as cross-domain posts with
// the engine lookahead as the modeled control latency.
//
// Completions are counted per domain and summed by the engine's stop
// predicate at barriers, and FCT samples land in per-domain recorders
// merged in domain order afterwards — so the figure tables, like
// everything else, are bit-identical at any worker count.
func (c *Cluster) runMixDomains(p MixParams) MixResult {
	hostsPerLeaf := c.Cfg.Topo.HostsPerLeaf
	nHosts := c.Cfg.Topo.Leaves * hostsPerLeaf
	spc := c.Cfg.ServersPerClient
	maxSpc := nHosts - hostsPerLeaf // hosts on other leaves
	if spc <= 0 {
		spc = 32
	}
	if spc > maxSpc {
		spc = maxSpc
	}
	plan := c.planMix(p, nHosts, spc)

	// Per-domain run state. Each slot is written only by its owning domain
	// (mid-window) and read at barriers / after the run.
	nd := c.Eng.NumDomains()
	cnt := make([]mixCount, nd)
	recs := make([]*stats.FCTRecorder, nd)
	for i := range recs {
		recs[i] = &stats.FCTRecorder{}
		recs[i].SetSizeScale(plan.SizeScale)
	}

	// Persistent connections: servers for client ci are hosts on other
	// leaves in host order, rotated by ci so load spreads evenly.
	fwd := make([][]*Conn, nHosts)
	rev := make([][]*Conn, nHosts)
	var pairs [][2]packet.HostID
	for ci := 0; ci < nHosts; ci++ {
		leaf := ci / hostsPerLeaf
		cand := make([]packet.HostID, 0, maxSpc)
		for h := 0; h < nHosts; h++ {
			if h/hostsPerLeaf != leaf {
				cand = append(cand, packet.HostID(h))
			}
		}
		fwd[ci] = make([]*Conn, spc)
		if p.FracIncast > 0 {
			rev[ci] = make([]*Conn, spc)
		}
		client := packet.HostID(ci)
		for k := 0; k < spc; k++ {
			server := cand[(ci+k)%len(cand)]
			fwd[ci][k] = c.OpenConn(client, server, 0)
			pairs = append(pairs, [2]packet.HostID{client, server}, [2]packet.HostID{server, client})
			if rev[ci] != nil {
				rev[ci][k] = c.OpenConn(server, client, 0)
			}
		}
	}
	c.SetupPaths(pairs)

	// Per-client arrival chains, entirely inside the client's domain.
	for ci := 0; ci < nHosts; ci++ {
		client := packet.HostID(ci)
		d := c.domFor(client)
		m := c.newMixClient(plan, client, fwd[ci], rev[ci], recs[d.ID()], &cnt[d.ID()])
		// The responding sender lives on the server host, in another
		// domain: ship the request over as a post (one lookahead of modeled
		// request latency), and the shard completion back the same way.
		// finish then runs in this domain, where the job's state lives.
		m.incast = func(conn *Conn, shard int64, finish func(sim.Time)) {
			req := &incastReq{c: c, conn: conn, shard: shard, clientDom: d.ID(), finish: finish}
			d.Post(c.domFor(conn.Client).ID(), d.Now()+c.Eng.Lookahead(), incastStart, req, nil)
		}
		m.start()
	}

	workers := c.Cfg.DomainWorkers
	if workers <= 0 {
		workers = 1
	}
	c.Eng.Run(plan.MaxSimTime, workers, func() bool {
		tot := 0
		for i := range cnt {
			tot += cnt[i].completed
		}
		return tot >= plan.target
	})

	completed, issued := 0, 0
	for i := range cnt {
		completed += cnt[i].completed
		issued += cnt[i].issued
		c.Recorder.Merge(recs[i])
	}
	return plan.result(completed, issued)
}

// incastReq carries one incast shard across domains: incastStart fires in
// the responding server's domain and starts the reverse-connection job;
// when that job completes (still in the server's domain), the notification
// posts back and finish — a client-domain closure — runs at the client.
type incastReq struct {
	c         *Cluster
	conn      *Conn // reverse conn: sender on the responding server host
	shard     int64
	clientDom int
	finish    func(sim.Time)
}

// incastStart runs in the server's domain.
func incastStart(a, _ any) {
	req := a.(*incastReq)
	sd := req.c.domFor(req.conn.Client) // conn.Client is the responding server
	req.conn.StartJob(req.shard, func(sim.Time) {
		sd.Post(req.clientDom, sd.Now()+req.c.Eng.Lookahead(), incastFinish, req, nil)
	})
}

// incastFinish runs back in the client's domain.
func incastFinish(a, _ any) {
	req := a.(*incastReq)
	req.finish(0)
}
