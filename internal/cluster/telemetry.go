package cluster

import (
	"clove/internal/clove"
	"clove/internal/netem"
	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/tcp"
	"clove/internal/telemetry"
)

// tableVisitor is implemented by the Clove policies that keep per-destination
// weight tables (CloveECN, CloveINT); other schemes simply have no weight
// stream.
type tableVisitor interface {
	VisitTables(func(packet.HostID, *clove.WeightTable))
}

// setupTelemetry builds and arms one tracer per event loop when
// Config.Telemetry is set; in single-sim mode that is the one tracer exposed
// as c.Trace. Each tracer samples only state its loop owns (links by source
// node, weight tables and senders by host), so sampling is race-free inside
// the owner's windows in sharded mode. All polled streams iterate
// deterministic structures — the topology's link list, the host-indexed
// vswitch slice, sorted destination tables, the connection open-order lists
// — never Go maps, so the captured records (and the exported trace bytes)
// are a pure function of the seed regardless of worker count or process.
// When Config.Telemetry is nil this is a no-op and every telemetry call site
// in the hot path stays behind its single nil check.
func (c *Cluster) setupTelemetry() {
	if c.Cfg.Telemetry == nil {
		return
	}
	loops := c.loops()
	c.traces = make([]*telemetry.Tracer, len(loops))
	c.loopConns = make([][]*Conn, len(loops))
	for i, s := range loops {
		c.traces[i] = telemetry.NewTracer(s, *c.Cfg.Telemetry)
	}
	if c.Eng == nil {
		c.Trace = c.traces[0]
	}

	loopLinks := make([][]*netem.Link, len(loops))
	for _, l := range c.LS.Links() {
		i := c.nodeLoop(l.From())
		loopLinks[i] = append(loopLinks[i], l)
		l.SetTrace(c.traces[i])
	}
	loopHosts := make([][]int, len(loops))
	for hi, v := range c.VSwitches {
		i := c.hostLoop(packet.HostID(hi))
		loopHosts[i] = append(loopHosts[i], hi)
		v.SetTrace(c.traces[i])
	}

	for i, tr := range c.traces {
		tr, links, hosts, loop := tr, loopLinks[i], loopHosts[i], i

		// Stream: link queue occupancy plus cumulative ECN marks and drops,
		// for every link in topology build order.
		tr.AddSampler(func(now sim.Time) {
			for _, l := range links {
				st := l.Stats()
				tr.QueueSample(now, l.ID(), l.Name(), l.QueueLen(), st.ECNMarks, st.Drops+st.DownDrops)
			}
		})

		// Stream: per-destination path weights, INT utilizations, and
		// congestion ages for every source hypervisor running a weight-table
		// policy.
		tr.AddSampler(func(now sim.Time) {
			for _, hi := range hosts {
				tv, ok := c.VSwitches[hi].Policy().(tableVisitor)
				if !ok {
					continue
				}
				srcID := packet.HostID(hi)
				tv.VisitTables(func(dst packet.HostID, t *clove.WeightTable) {
					t.VisitStates(func(p clove.PathState) {
						age := sim.Time(-1) // never congested
						if p.LastCongested > 0 {
							age = now - p.LastCongested
						}
						tr.WeightSample(now, srcID, dst, p.Port, p.Weight, p.Util, age)
					})
				})
			}
		})

		// Stream: sender cwnd/ssthresh/RTO/outstanding for every open
		// connection (MPTCP samples each subflow), in open order.
		tr.AddSampler(func(now sim.Time) {
			for _, conn := range c.loopConns[loop] {
				if conn.mp != nil {
					for _, sub := range conn.mp.Subflows() {
						sampleSender(tr, now, sub)
					}
					continue
				}
				sampleSender(tr, now, conn.snd)
			}
		})

		tr.Start()
	}
}

func sampleSender(tr *telemetry.Tracer, now sim.Time, s *tcp.Sender) {
	tr.CwndSample(now, s.Flow(), s.Cwnd(), s.Ssthresh(), s.RTO(), s.Outstanding())
}
