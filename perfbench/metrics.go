package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"clove/internal/cluster"
)

// specMetric is one metric as BENCHMARK.json at the checkout root lists it.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadSpec reads the end-to-end and per-layer metric lists of
// BENCHMARK.json, the one place they are written down.
func loadSpec() (endToEnd, perLayer []specMetric, err error) {
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec.EndToEnd, spec.PerLayer, nil
}

// completeMetrics checks the reported metrics against the listed ones. A
// listed per-layer metric the workload did not exercise is reported as 0,
// and named; a listed end-to-end metric that is missing, a metric that is
// not listed, or one reported in another unit than its listed one is a bug
// in the benchmark and fails the run.
func (r *run) completeMetrics(listed []specMetric) {
	var unset []string
	names := map[string]bool{}
	for _, l := range listed {
		names[l.Name] = true
	}
	for n := range r.rep.Metrics {
		if !names[n] {
			r.fail("metric %s reported but not listed in BENCHMARK.json", n)
		}
	}
	for _, l := range listed {
		m, ok := r.rep.Metrics[l.Name]
		switch {
		case !ok && r.trace:
			r.set(l.Name, l.Unit, 0)
			unset = append(unset, l.Name)
		case !ok:
			r.fail("metric %s not measured", l.Name)
		case m.Unit != l.Unit:
			r.fail("metric %s reported in %s, listed in %s", l.Name, m.Unit, l.Unit)
		}
	}
	if len(unset) > 0 {
		fmt.Printf("not exercised by this workload (reported as 0): %s\n", strings.Join(unset, " "))
	}
}

// reportSimLayers sets the simulator per-layer metrics of a traced round.
func (r *run) reportSimLayers(calls []simCall) {
	var events uint64
	var gets int64
	var rt rtSnap
	var obs obsCounts
	var wall time.Duration
	for _, c := range calls {
		wall += c.wall
		events += c.events
		gets += c.poolGets
		rt.allocs += c.rt.allocs
		rt.allocBytes += c.rt.allocBytes
		rt.gcCPU += c.rt.gcCPU
		rt.totalCPU += c.rt.totalCPU
		s := sumCounts(c.counts)
		obs.add(&s)
	}
	ev := float64(max(events, 1))
	r.set("cluster.new_s", "s", r.tr.total("cluster.new"))
	r.set("scenario.install_s", "s", r.tr.total("scenario.install"))
	r.set("cluster.runmix_s", "s", r.tr.total("cluster.runmix"))
	for _, s := range cluster.AllSchemes() {
		r.set("cluster.run_s."+string(s), "s", r.tr.total("cluster.run."+string(s)))
	}
	r.set("sim.events", "count", float64(events))
	r.set("sim.ns_per_event", "ns", float64(wall.Nanoseconds())/ev)
	r.set("packet.pool_gets", "count", float64(gets))
	r.set("sim.allocs_per_event", "count", float64(rt.allocs)/ev)
	r.set("sim.bytes_per_event", "B", float64(rt.allocBytes)/ev)
	r.set("gc.cpu_frac", "fraction", ratio(rt.gcCPU, rt.totalCPU))
	r.set("netem.enqueues", "count", float64(obs.enqueues))
	r.set("netem.drop_frac", "fraction", ratio(float64(obs.drops), float64(obs.enqueues+obs.drops)))
	r.set("netem.ecn_marks", "count", float64(obs.ecnMarks))
	r.set("tcp.segments", "count", float64(obs.segments))
	r.set("tcp.rexmit_frac", "fraction", ratio(float64(obs.rexmits), float64(obs.segments)))
	r.set("vswitch.flowlet_picks", "count", float64(obs.flowletPicks))
	r.set("vswitch.path_installs", "count", float64(obs.pathInstall))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
