package cluster

import (
	"fmt"
	"path/filepath"

	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/telemetry"
)

// Mode helpers. A sharded (domain-mode) cluster places everything a host
// schedules on its own domain's Simulator; the only cross-domain
// interactions are trunk-link propagation (netem) and the sharded mix
// driver's incast request/response hand-offs (mixdomains.go), both via
// Domain.Post. The helpers below resolve a host to its event loop, so that
// the construction and workload code is the same in both modes.
//
// Results are bit-identical at any Config.DomainWorkers, but a sharded run
// is a *different* simulation than a single-sim run of the same seed: the
// engine defines its own same-timestamp event order and per-domain RNG
// streams. Determinism guarantees therefore hold within a mode, not across
// modes.

// domFor returns the event domain owning host h, nil in single-sim mode.
func (c *Cluster) domFor(h packet.HostID) *sim.Domain { return c.LS.Host(h).Domain() }

// simFor returns the Simulator everything on host h must schedule on.
func (c *Cluster) simFor(h packet.HostID) *sim.Simulator {
	if c.Eng != nil {
		return c.domFor(h).Simulator
	}
	return c.Sim
}

// poolFor returns the packet pool endpoints on host h must use. In legacy
// mode this is the topology-wide shared pool, so using it uniformly keeps
// single-sim behavior unchanged.
func (c *Cluster) poolFor(h packet.HostID) *packet.Pool { return c.LS.Host(h).Pool() }

// loops returns the cluster's event loops in order: the one Simulator in
// single-sim mode, every domain's in sharded mode.
func (c *Cluster) loops() []*sim.Simulator {
	if c.Eng == nil {
		return []*sim.Simulator{c.Sim}
	}
	out := make([]*sim.Simulator, c.Eng.NumDomains())
	for i := range out {
		out[i] = c.Eng.Domain(i).Simulator
	}
	return out
}

// nodeLoop returns the index in loops() of the loop owning node id.
func (c *Cluster) nodeLoop(id packet.NodeID) int {
	if d := c.LS.NodeDomain(id); d != nil {
		return d.ID()
	}
	return 0
}

// hostLoop returns the index in loops() of the loop owning host h.
func (c *Cluster) hostLoop(h packet.HostID) int {
	if d := c.domFor(h); d != nil {
		return d.ID()
	}
	return 0
}

// traceFor returns the tracer events on host h must report to: its event
// loop's. Nil when telemetry is disabled.
func (c *Cluster) traceFor(h packet.HostID) *telemetry.Tracer {
	if c.traces == nil {
		return nil
	}
	return c.traces[c.hostLoop(h)]
}

// ScheduleControl schedules a control-plane action (scenario link flaps,
// load ramps) at absolute time at: an ordinary event in legacy mode, a
// global barrier event in sharded mode (control actions touch state in many
// domains, so they must run while all domains are paused).
func (c *Cluster) ScheduleControl(at sim.Time, fn func()) {
	if c.Eng != nil {
		c.Eng.GlobalAt(at, fn)
		return
	}
	c.Sim.After(at-c.Sim.Now(), fn)
}

// ExportTraces writes the run's trace files under dir: the single tracer's
// files directly (legacy), or one domain-NN subdirectory per domain
// (sharded). No-op when telemetry is disabled.
func (c *Cluster) ExportTraces(dir string) error {
	if c.Eng == nil {
		return c.Trace.Export(dir)
	}
	for i, tr := range c.traces {
		if err := tr.Export(filepath.Join(dir, fmt.Sprintf("domain-%02d", i))); err != nil {
			return err
		}
	}
	return nil
}
