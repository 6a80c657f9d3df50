package main

import (
	"fmt"
	"time"

	"clove/internal/clove"
	"clove/internal/cluster"
	"clove/internal/discovery"
	"clove/internal/netem"
	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/vswitch"
	"clove/internal/wire"
)

// Layer benches call one public function at a time on seeded inputs shaped
// like the workloads: 4 paths per destination and a population of flows.
const (
	benchBatches = 7
	benchFlows   = 64
	benchDsts    = 8
)

// timeOp runs f n times per batch and returns the median ns per call.
func timeOp(n int, f func(i int)) float64 {
	ns := make([]float64, benchBatches)
	k := 0
	for b := range ns {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(k)
			k++
		}
		ns[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(ns)
}

// benchFlowSet returns the flow population, seeded by the run's seed.
func (r *run) benchFlowSet() []packet.FiveTuple {
	flows := make([]packet.FiveTuple, benchFlows)
	for i := range flows {
		flows[i] = packet.FiveTuple{
			Src:     packet.HostID(i % benchDsts),
			Dst:     packet.HostID(benchDsts + (i+int(r.seed))%benchDsts),
			SrcPort: uint16(10000 + i),
			DstPort: 80,
			Proto:   packet.ProtoTCP,
		}
	}
	return flows
}

type chain struct {
	s    *sim.Simulator
	left int
}

func chainStep(a, _ any) {
	c := a.(*chain)
	c.left--
	if c.left > 0 {
		c.s.AfterCall(sim.Microsecond, chainStep, c, nil)
	}
}

// runLayerBenches sets the layer-bench metrics. They do not depend on the
// workload, so every traced run reports them.
func (r *run) runLayerBenches() {
	t0 := time.Now()
	flows := r.benchFlowSet()
	ports := []uint16{33000, 33097, 33194, 33291}

	// sim: one event per AfterCall, drained by Run.
	s := sim.New(r.seed)
	ch := &chain{s: s}
	const chainLen = 1000
	r.set("sim.chain_ns", "ns", timeOp(200, func(int) {
		ch.left = chainLen
		s.AfterCall(0, chainStep, ch, nil)
		s.Run()
	})/chainLen)

	// netem: host uplink -> switch -> host downlink -> sink.
	hs := sim.New(r.seed)
	topo := netem.NewTopology(hs)
	sw := topo.AddSwitch("S")
	lcfg := netem.LinkConfig{RateBps: 40e9, Delay: 2 * sim.Microsecond}
	src := topo.AddHost("h0", sw, lcfg, lcfg)
	topo.AddHost("h1", sw, lcfg, lcfg)
	topo.ComputeRoutes()
	r.set("netem.hop_ns", "ns", timeOp(20000, func(i int) {
		pkt := topo.Pool().Get()
		pkt.Kind = packet.KindData
		pkt.Inner = packet.FiveTuple{Src: 0, Dst: 1, SrcPort: uint16(40000 + i%benchFlows), DstPort: 80, Proto: packet.ProtoTCP}
		pkt.PayloadLen = 1460
		src.Send(pkt)
		hs.Run()
	}))

	// vswitch: PickPort of every scheme's edge policy on installed paths.
	var now sim.Time
	clock := func() sim.Time { return now }
	ps := sim.New(r.seed)
	wt := clove.DefaultWeightTableConfig(50 * sim.Microsecond)
	policies := map[cluster.Scheme]vswitch.PathPolicy{
		cluster.SchemeECMP:         vswitch.NewECMP(),
		cluster.SchemeEdgeFlowlet:  vswitch.NewEdgeFlowlet(),
		cluster.SchemeCloveECN:     vswitch.NewCloveECN(wt),
		cluster.SchemeCloveINT:     vswitch.NewCloveINT(wt, clock),
		cluster.SchemePresto:       vswitch.NewPresto(ps),
		cluster.SchemeMPTCP:        vswitch.NewECMP(),
		cluster.SchemeCONGA:        vswitch.NewECMP(),
		cluster.SchemeLetFlow:      vswitch.NewECMP(),
		cluster.SchemeCloveLatency: vswitch.NewCloveINT(wt, clock),
		cluster.SchemeConcury:      vswitch.NewConcury(),
		cluster.SchemeCharon:       vswitch.NewCharon(wt.UtilAge, clock),
	}
	for _, scheme := range cluster.AllSchemes() {
		pol := policies[scheme]
		for d := 0; d < benchDsts; d++ {
			pol.SetPaths(packet.HostID(benchDsts+d), ports)
		}
		r.set("vswitch.pick_ns."+string(scheme), "ns", timeOp(20000, func(i int) {
			f := flows[i%benchFlows]
			now += sim.Microsecond
			pol.PickPort(f.Dst, f, uint32(i))
		}))
	}

	// clove: weight table feedback and WRR, flowlet table.
	tbl := clove.NewWeightTable(wt, ports)
	r.set("clove.on_congestion_ns", "ns", timeOp(20000, func(i int) {
		now += sim.Microsecond
		tbl.OnCongestion(ports[i%len(ports)], now)
	}))
	r.set("clove.next_port_ns", "ns", timeOp(20000, func(int) { tbl.NextPort() }))
	ft := clove.NewFlowletTable(50 * sim.Microsecond)
	r.set("clove.flowlet_touch_ns", "ns", timeOp(20000, func(i int) {
		now += 5 * sim.Microsecond
		ft.Touch(flows[i%benchFlows], now)
	}))

	// wire: the datapath's shim encoder and decoder.
	shim := wire.SttShim{Version: 1, FlowletID: 7, VNI: 42, PayloadLen: 64, PathPort: ports[1],
		Feedback: wire.Feedback{Valid: true, Port: ports[2], ECN: true}}
	buf := make([]byte, wire.SttShimLen)
	r.set("wire.shim_put_ns", "ns", timeOp(50000, func(int) { shim.Put(buf) }))
	var dec wire.SttShim
	r.set("wire.shim_unmarshal_ns", "ns", timeOp(50000, func(int) {
		if _, err := dec.Unmarshal(buf); err != nil {
			panic(err) // buf is a valid shim: a failure here is a bug
		}
	}))

	// Control plane at k16 scale: route computation and disjoint-path
	// selection on the storm scenario's topology.
	c := cluster.New(k16Spec().ClusterConfig("clove-ecn", r.seed, false, nil, 1))
	var routes []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		c.LS.ComputeRoutes()
		routes = append(routes, time.Since(t).Seconds()*1e3)
	}
	r.set("netem.compute_routes_ms", "ms", median(routes))
	hosts := len(c.LS.Hosts())
	paths := c.OraclePaths(0, packet.HostID(hosts-1), 16)
	if len(paths) == 0 {
		r.fail("layer bench: no oracle paths across the k16 fabric")
	}
	r.set("discovery.select_disjoint_us", "us", timeOp(2000, func(int) {
		discovery.SelectDisjoint(paths, 4)
	})/1e3)
	fmt.Printf("layer benches took %v\n", time.Since(t0).Round(time.Millisecond))
}
