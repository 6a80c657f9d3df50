package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"clove/internal/netem"
	"clove/internal/sim"
	"clove/internal/telemetry"
)

// shardedTopo is a 4-leaf fabric (the smallest where cross-leaf traffic can
// exercise more than one remote domain), non-oversubscribed like the paper
// testbed: 3 hosts/leaf at 10G, 2 spines x 1 trunk at 15G.
func shardedTopo() netem.LeafSpineConfig {
	return netem.LeafSpineConfig{
		Leaves:        4,
		Spines:        2,
		TrunksPerPair: 1,
		HostsPerLeaf:  3,
		HostRateBps:   10e9,
		TrunkRateBps:  15e9,
		LinkDelay:     5 * sim.Microsecond,
		QueueCap:      netem.DefaultQueueCap,
		ECNK:          20,
	}
}

func shardedMix() MixParams {
	return MixParams{
		Load: 0.3, TotalJobs: 48, SizeScale: 0.02,
		FracWebSearch: 0.5, FracRPC: 0.2, FracML: 0.15, FracIncast: 0.15,
		IncastFanout: 3,
		MaxSimTime:   120 * sim.Second,
	}
}

// traceTree reads every exported trace file under dir into relpath -> bytes.
func traceTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		tree[rel] = string(b)
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", dir, err)
	}
	return tree
}

type shardedOutcome struct {
	res     MixResult
	samples []string
	mean    float64
	traces  map[string]string
}

func runSharded(t *testing.T, seed int64, workers int, oracle bool) shardedOutcome {
	t.Helper()
	c := New(Config{
		Seed: seed, Topo: shardedTopo(), Scheme: SchemeCloveECN,
		DomainWorkers: workers, ServersPerClient: 4,
		Oracle:    oracle,
		Telemetry: &telemetry.Config{Interval: sim.Millisecond},
	})
	if c.Eng == nil {
		t.Fatal("4-leaf topology did not auto-enable domain mode")
	}
	res := c.RunMix(shardedMix())
	if res.Completed == 0 {
		t.Fatalf("workers=%d: nothing completed (issued %d)", workers, res.Issued)
	}
	if res.TimedOut {
		t.Fatalf("workers=%d: timed out at %d/%d", workers, res.Completed, res.Issued)
	}
	if oracle {
		if err := c.CheckOracle(); err != nil {
			t.Fatalf("workers=%d: oracle: %v", workers, err)
		}
	}
	// The figure tables experiments print are a pure function of the sample
	// stream, so pinning every (size, fct) pair pins the tables.
	out := shardedOutcome{res: res, mean: c.Recorder.Mean()}
	for _, s := range c.Recorder.Samples() {
		out.samples = append(out.samples, fmt.Sprintf("%d:%d", s.Size, int64(s.FCT)))
	}
	dir := t.TempDir()
	if err := c.ExportTraces(dir); err != nil {
		t.Fatalf("workers=%d: export: %v", workers, err)
	}
	out.traces = traceTree(t, dir)
	return out
}

// TestDomainModeDeterministicAcrossWorkers is the PR's core promise: the
// same seed produces byte-identical figure tables (the full FCT sample
// stream) AND byte-identical telemetry trace trees at every worker count,
// with the conservation oracle enabled and clean throughout.
func TestDomainModeDeterministicAcrossWorkers(t *testing.T) {
	base := runSharded(t, 31, 1, true)
	if len(base.traces) == 0 {
		t.Fatal("workers=1 exported no trace files")
	}
	for _, w := range []int{2, 4, 8} {
		got := runSharded(t, 31, w, true)
		if got.res != base.res {
			t.Errorf("workers=%d result %+v != workers=1 %+v", w, got.res, base.res)
		}
		if len(got.samples) != len(base.samples) {
			t.Fatalf("workers=%d: %d samples, want %d", w, len(got.samples), len(base.samples))
		}
		for i := range base.samples {
			if got.samples[i] != base.samples[i] {
				t.Fatalf("workers=%d sample %d diverged: %q != %q", w, i, got.samples[i], base.samples[i])
			}
		}
		if got.mean != base.mean {
			t.Errorf("workers=%d mean %v != %v", w, got.mean, base.mean)
		}
		if len(got.traces) != len(base.traces) {
			t.Fatalf("workers=%d: %d trace files, want %d", w, len(got.traces), len(base.traces))
		}
		for name, want := range base.traces {
			if got.traces[name] != want {
				t.Fatalf("workers=%d: trace file %s diverged", w, name)
			}
		}
	}
}

// TestDomainModeSeedPermutation checks the sharded path is genuinely seeded:
// each seed reproduces itself exactly, and permuting seeds permutes outputs
// (no hidden shared stream making all seeds collapse to one trajectory).
func TestDomainModeSeedPermutation(t *testing.T) {
	a1 := runSharded(t, 5, 2, false)
	b1 := runSharded(t, 6, 2, false)
	// Re-run in the opposite order: results must depend only on the seed.
	b2 := runSharded(t, 6, 2, false)
	a2 := runSharded(t, 5, 2, false)
	if a1.mean != a2.mean || a1.res != a2.res {
		t.Errorf("seed 5 not reproducible: %v/%+v vs %v/%+v", a1.mean, a1.res, a2.mean, a2.res)
	}
	if b1.mean != b2.mean || b1.res != b2.res {
		t.Errorf("seed 6 not reproducible: %v/%+v vs %v/%+v", b1.mean, b1.res, b2.mean, b2.res)
	}
	if a1.mean == b1.mean {
		t.Error("seeds 5 and 6 gave identical means (suspicious)")
	}
}

// TestDomainModeLegacyDriversPanic pins that the single-sim-only entry
// points refuse to run on a sharded cluster instead of dereferencing the
// nil legacy Simulator somewhere deep.
func TestDomainModeLegacyDriversPanic(t *testing.T) {
	c := New(Config{Seed: 1, Topo: shardedTopo(), Scheme: SchemeECMP})
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic in domain mode", name)
			}
		}()
		fn()
	}
	mustPanic("RunWebSearch", func() { c.RunWebSearch(WebSearchParams{}) })
	mustPanic("RunIncast", func() {
		c.RunIncast(IncastParams{Fanout: 1, Requests: 1, ResponseBytes: 1})
	})
	mustPanic("conga sharded", func() {
		New(Config{Seed: 1, Topo: shardedTopo(), Scheme: SchemeCONGA})
	})
}

// TestDomainModeSchemes walks the scheme table: every entry, the reference
// twins included, builds single-sim and smoke-runs end to end on the 4-leaf
// sharded fabric with 4 workers, or — where the table marks it not
// shardable — panics there. It also pins what the table feeds: Known (the
// scenario validator's scheme check) accepts exactly the table's names,
// and AllSchemes keeps the presentation order that figure rows and
// benchmark metric names depend on.
func TestDomainModeSchemes(t *testing.T) {
	for _, sp := range schemeTable {
		scheme := sp.name
		t.Run(string(scheme), func(t *testing.T) {
			if !scheme.Known() || scheme.Shardable() != sp.sharded {
				t.Fatalf("Known=%v Shardable=%v, table sharded=%v", scheme.Known(), scheme.Shardable(), sp.sharded)
			}
			if c := New(Config{Seed: 9, Topo: smallTopo(), Scheme: scheme}); c.Sim == nil || len(c.VSwitches) == 0 {
				t.Fatal("single-sim build incomplete")
			}
			build := func() *Cluster {
				return New(Config{
					Seed: 9, Topo: shardedTopo(), Scheme: scheme,
					DomainWorkers: 4, ServersPerClient: 3,
				})
			}
			if !sp.sharded {
				defer func() {
					if recover() == nil {
						t.Error("non-shardable scheme built in domain mode")
					}
				}()
				build()
				return
			}
			c := build()
			p := shardedMix()
			p.TotalJobs = 24
			res := c.RunMix(p)
			if res.Completed == 0 || res.TimedOut {
				t.Fatalf("%s: %+v", scheme, res)
			}
			if c.Recorder.Count() != res.Completed {
				t.Errorf("recorder has %d, completed %d", c.Recorder.Count(), res.Completed)
			}
		})
	}
	for _, name := range []Scheme{"", "bogus", "ECMP", "clove"} {
		if name.Known() || name.Shardable() {
			t.Errorf("%q: Known=%v Shardable=%v for a name outside the table", name, name.Known(), name.Shardable())
		}
	}
	want := []Scheme{SchemeECMP, SchemeEdgeFlowlet, SchemeCloveECN, SchemeCloveINT,
		SchemePresto, SchemeMPTCP, SchemeCONGA, SchemeLetFlow, SchemeCloveLatency,
		SchemeConcury, SchemeCharon}
	if got := AllSchemes(); !slices.Equal(got, want) {
		t.Errorf("AllSchemes() = %v, want %v", got, want)
	}
}
