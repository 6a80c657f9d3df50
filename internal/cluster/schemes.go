package cluster

import (
	"fmt"

	"clove/internal/clove"
	"clove/internal/conga"
	"clove/internal/sim"
	"clove/internal/vswitch"
)

// schemeSpec is everything the cluster knows about one scheme. schemeTable
// is the only place a scheme is defined: New, SetupPaths, OpenConn, the
// oracle wiring, AllSchemes, and scenario validation all read it, so adding
// a scheme means adding its policy to internal/vswitch and one entry here.
type schemeSpec struct {
	name Scheme
	// policy builds one host's path policy from the cluster's weight-table
	// config and the Simulator the host schedules on.
	policy func(wt clove.WeightTableConfig, s *sim.Simulator) vswitch.PathPolicy
	// Virtual-switch flags (vswitch.Config.MaskECN, RequestINT,
	// MeasureLatency); measureLatency also enables Config.AdaptiveFlowletGap.
	maskECN, requestINT, measureLatency bool
	// fabric installs the scheme's in-network half (CONGA tables, LetFlow
	// switches, Charon load stamping); nil for pure edge schemes.
	fabric func(c *Cluster)
	// needsPaths: the policy consumes discovered path sets (SetupPaths).
	needsPaths bool
	// connConsistent: the scheme promises per-connection path stability,
	// so the oracle's conn-consistency invariant is armed.
	connConsistent bool
	// mptcp: connections carry MPTCP subflows instead of one TCP flow.
	mptcp bool
	// listed: the scheme is in AllSchemes; false for the hidden
	// differential-reference twins.
	listed bool
	// sharded: the scheme runs on a domain-mode (more than two leaves)
	// cluster; New panics otherwise.
	sharded bool
}

// schemeTable lists every scheme: AllSchemes' presentation order, then the
// reference twins.
var schemeTable = []schemeSpec{
	{name: SchemeECMP, policy: ecmpPolicy, listed: true, sharded: true},
	{name: SchemeEdgeFlowlet, listed: true, sharded: true,
		policy: func(clove.WeightTableConfig, *sim.Simulator) vswitch.PathPolicy { return vswitch.NewEdgeFlowlet() }},
	{name: SchemeCloveECN, maskECN: true, needsPaths: true, listed: true, sharded: true,
		policy: cloveECNPolicy},
	{name: SchemeCloveINT, maskECN: true, requestINT: true, needsPaths: true, listed: true, sharded: true,
		policy: cloveINTPolicy},
	{name: SchemePresto, needsPaths: true, listed: true, sharded: true,
		policy: func(_ clove.WeightTableConfig, s *sim.Simulator) vswitch.PathPolicy { return vswitch.NewPresto(s) }},
	{name: SchemeMPTCP, policy: ecmpPolicy, mptcp: true, listed: true, sharded: true},
	// CONGA's leaf-to-leaf congestion tables span event domains.
	{name: SchemeCONGA, policy: ecmpPolicy, fabric: installCONGA, listed: true},
	{name: SchemeLetFlow, policy: ecmpPolicy, fabric: installLetFlow, listed: true, sharded: true},
	// Clove-latency shares Clove-INT's "least reflected metric" policy; the
	// vswitch reflects one-way delay instead of link utilization.
	{name: SchemeCloveLatency, maskECN: true, measureLatency: true, needsPaths: true, listed: true, sharded: true,
		policy: cloveINTPolicy},
	{name: SchemeConcury, needsPaths: true, connConsistent: true, listed: true, sharded: true,
		policy: func(clove.WeightTableConfig, *sim.Simulator) vswitch.PathPolicy { return vswitch.NewConcury() }},
	// Charon's load stamping reads only the local egress link's DRE, so
	// unlike CONGA it is domain-safe: each leaf stamps inside its own window.
	{name: SchemeCharon, fabric: installCharonStamping, needsPaths: true, listed: true, sharded: true,
		policy: func(wt clove.WeightTableConfig, s *sim.Simulator) vswitch.PathPolicy {
			return vswitch.NewCharon(wt.UtilAge, s.Now)
		}},
	{name: SchemeCloveUniform, maskECN: true, needsPaths: true, sharded: true,
		policy: func(clove.WeightTableConfig, *sim.Simulator) vswitch.PathPolicy { return vswitch.NewCloveUniform() }},
	{name: SchemeConcuryRef, needsPaths: true, connConsistent: true, sharded: true,
		policy: func(clove.WeightTableConfig, *sim.Simulator) vswitch.PathPolicy { return vswitch.NewConcuryRef() }},
	{name: SchemeCharonRef, fabric: installCharonStamping, needsPaths: true, sharded: true,
		policy: func(wt clove.WeightTableConfig, s *sim.Simulator) vswitch.PathPolicy {
			return vswitch.NewCharonRef(wt.UtilAge, s.Now)
		}},
}

func ecmpPolicy(clove.WeightTableConfig, *sim.Simulator) vswitch.PathPolicy { return vswitch.NewECMP() }

func cloveECNPolicy(wt clove.WeightTableConfig, _ *sim.Simulator) vswitch.PathPolicy {
	return vswitch.NewCloveECN(wt)
}

func cloveINTPolicy(wt clove.WeightTableConfig, s *sim.Simulator) vswitch.PathPolicy {
	return vswitch.NewCloveINT(wt, s.Now)
}

// installCONGA attaches the in-network CONGA fabric. Hardware flowlet
// detection runs at a finer timescale than the software edge (the CONGA
// ASIC reroutes within a fraction of an RTT); a quarter of the edge gap
// reproduces its advantage.
func installCONGA(c *Cluster) {
	c.Conga = conga.Attach(c.Sim, c.LS, conga.Config{FlowletGap: c.Cfg.FlowletGap / 4})
}

// installCharonStamping turns on fabric-initiated load stamping at every
// leaf. The first-hop leaf enables INT on a data packet, and the ordinary
// stamping then records the max egress utilization across that hop and
// every later one — the same telemetry Clove-INT requests from the edge,
// initiated by the switches instead.
func installCharonStamping(c *Cluster) {
	for _, sw := range c.LS.Leaves {
		sw.SetLoadStamp(true)
	}
}

// lookupScheme returns s's table entry, nil when s is not a scheme.
func lookupScheme(s Scheme) *schemeSpec {
	for i := range schemeTable {
		if schemeTable[i].name == s {
			return &schemeTable[i]
		}
	}
	return nil
}

// spec returns s's table entry and panics on an unknown scheme.
func (s Scheme) spec() *schemeSpec {
	sp := lookupScheme(s)
	if sp == nil {
		panic(fmt.Sprintf("cluster: unknown scheme %q", s))
	}
	return sp
}

// Known reports whether s names a scheme the cluster can build, including
// the reference twins absent from AllSchemes.
func (s Scheme) Known() bool { return lookupScheme(s) != nil }

// Shardable reports whether s runs on a domain-mode cluster (a topology of
// more than two leaves). False for unknown schemes.
func (s Scheme) Shardable() bool {
	sp := lookupScheme(s)
	return sp != nil && sp.sharded
}

// AllSchemes lists every scheme in presentation order (the paper's eight,
// the Sec. 7 latency-feedback extension, and the two non-paper contenders —
// stateless Concury and switch-assisted Charon).
func AllSchemes() []Scheme {
	var out []Scheme
	for _, sp := range schemeTable {
		if sp.listed {
			out = append(out, sp.name)
		}
	}
	return out
}
