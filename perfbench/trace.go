package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"clove/internal/cluster"
	"clove/internal/packet"
)

// traceDir receives the span files of traced runs, inside the checkout.
const traceDir = ".bench_build/spans"

// span is one timed call into a layer, recorded by the benchmark itself.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // 1-based index of the enclosing span, 0 = none
	Run    int    `json:"run"`    // spans of one call share it
}

// tracer keeps spans in memory and writes them when the run ends. A nil
// *tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
	run   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// on returns t when the current round is traced, nil otherwise.
func (t *tracer) on(traced bool) *tracer {
	if !traced {
		return nil
	}
	return t
}

// newRun starts a new run id: the spans of one traced call or set-up share
// it.
func (t *tracer) newRun() {
	if t != nil {
		t.run++
	}
}

// begin opens a span and returns its 1-based id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Run: t.run})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// total returns the summed duration of every span named name, in seconds.
func (t *tracer) total(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans, with each span's self time, under traceDir.
func (t *tracer) write(workload string, seed int64) error {
	type out struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent-1] += s.End - s.Start
		}
	}
	spans := make([]out, len(t.spans))
	for i, s := range t.spans {
		spans[i] = out{span: s, SelfNs: s.End - s.Start - child[i]}
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	buf, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": spans})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(traceDir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Printf("spans written to %s (%d spans)\n", path, len(t.spans))
	return nil
}

// obsCounts is a counting packet.Observer. One is installed per pool; in
// the sharded engine each pool belongs to one event domain, and a domain
// runs on one worker at a time, so plain counters suffice.
type obsCounts struct {
	enqueues, drops, ecnMarks int64
	segments, rexmits         int64
	flowletPicks, pathInstall int64
}

func (o *obsCounts) PoolGet(*packet.Packet)        {}
func (o *obsCounts) PoolPut(*packet.Packet)        {}
func (o *obsCounts) PoolGetEncap(*packet.Encap)    {}
func (o *obsCounts) PoolPutEncap(*packet.Encap)    {}
func (o *obsCounts) LinkSetUp(packet.LinkID, bool) {}
func (o *obsCounts) LinkEnqueue(_ packet.LinkID, _ *packet.Packet, _, _, _ int, marked bool) {
	o.enqueues++
	if marked {
		o.ecnMarks++
	}
}
func (o *obsCounts) LinkDrop(packet.LinkID, *packet.Packet, packet.DropReason, int, int) {
	o.drops++
}
func (o *obsCounts) LinkDeliver(packet.LinkID, *packet.Packet) {}
func (o *obsCounts) HostDeliver(packet.HostID, *packet.Packet) {}
func (o *obsCounts) StreamSent(_ packet.FiveTuple, _, _ int64, rexmit bool) {
	o.segments++
	if rexmit {
		o.rexmits++
	}
}
func (o *obsCounts) StreamDeliver(packet.FiveTuple, int64, int64) {}
func (o *obsCounts) FlowletPick(packet.FiveTuple, uint32, uint16) { o.flowletPicks++ }
func (o *obsCounts) PolicyPaths(packet.HostID, packet.HostID, []uint16) {
	o.pathInstall++
}

func (o *obsCounts) add(p *obsCounts) {
	o.enqueues += p.enqueues
	o.drops += p.drops
	o.ecnMarks += p.ecnMarks
	o.segments += p.segments
	o.rexmits += p.rexmits
	o.flowletPicks += p.flowletPicks
	o.pathInstall += p.pathInstall
}

// observe installs a counting observer on every pool of c and returns the
// counters, summed when read with sumCounts.
func observe(c *cluster.Cluster) []*obsCounts {
	var set []*obsCounts
	for _, p := range c.LS.Pools() {
		o := &obsCounts{}
		p.SetObserver(o)
		set = append(set, o)
	}
	return set
}

func sumCounts(set []*obsCounts) obsCounts {
	var s obsCounts
	for _, o := range set {
		s.add(o)
	}
	return s
}

// rtSnap is a runtime/metrics reading: heap allocations and GC CPU time.
type rtSnap struct {
	allocs, allocBytes uint64
	gcCPU, totalCPU    float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRT() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnap{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// to returns the difference b - a.
func (a rtSnap) to(b rtSnap) rtSnap {
	return rtSnap{
		allocs:     b.allocs - a.allocs,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCPU:      b.gcCPU - a.gcCPU,
		totalCPU:   b.totalCPU - a.totalCPU,
	}
}

// reportCPU sets proc.cpu_util: process CPU time over wall time and
// GOMAXPROCS, from cpu0/t0 to now.
func (r *run) reportCPU(cpu0 time.Duration, t0 time.Time) {
	wall := time.Since(t0)
	r.set("proc.cpu_util", "fraction",
		(cpuTime()-cpu0).Seconds()/wall.Seconds()/float64(runtime.GOMAXPROCS(0)))
}
