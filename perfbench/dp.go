package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"clove/internal/datapath"
)

// Loopback workload shape.
const (
	dpPaths    = 2   // sockets per endpoint
	dpWindow   = 512 // closed-loop in-flight datagrams, ACK-clocked by delivery
	dpSetups   = 5   // pairs set up per segment; setup_s is their median
	dpWarmup   = 500 * time.Millisecond
	dpInterval = 250 * time.Millisecond // rate sample length; ops_per_cpu_s is their median
	// dpMaxSeq bounds the sequence space the receiver's duplicate bitmap
	// covers (8 MiB of bits); a segment stops sending when it is used up.
	dpMaxSeq = 1 << 26
	// dpStall is how long the sender waits on a full window before it
	// counts the missing datagrams as lost and re-opens the window.
	dpStall = 200 * time.Millisecond
	// dpSegments is how many fresh pairs one untraced run measures.
	dpSegments = 4
	// probeSeq marks set-up datagrams, which stay out of the accounting.
	probeSeq = ^uint64(0)
)

// payload layout: [0:8) sequence number, [8:16) send time in ns since the
// receiver's base, then 8-byte words derived from the sequence number.
// The words are the run's inputs, a function of the seed.
func fillPayload(p []byte, seed, seq uint64, sentNs int64) {
	binary.LittleEndian.PutUint64(p[0:8], seq)
	binary.LittleEndian.PutUint64(p[8:16], uint64(sentNs))
	for j := 16; j+8 <= len(p); j += 8 {
		binary.LittleEndian.PutUint64(p[j:], patternWord(seed, seq, j))
	}
}

func patternWord(seed, seq uint64, j int) uint64 {
	return (seq^seed)*0x9E3779B97F4A7C15 ^ uint64(j)
}

func checkPayload(p []byte, size int, seed, seq uint64) bool {
	if len(p) != size {
		return false
	}
	for j := 16; j+8 <= len(p); j += 8 {
		if binary.LittleEndian.Uint64(p[j:]) != patternWord(seed, seq, j) {
			return false
		}
	}
	return true
}

// latHist is a log-linear latency histogram over a whole phase: 2^histSub
// sub-buckets per power of two (under 0.4% error), updated atomically from
// the receiver's shard goroutines without allocating.
type latHist struct {
	b [64 << histSub]atomic.Uint64
}

const histSub = 8

// latBucket is exact below 2^(histSub+1) ns; above, it keeps the top
// histSub+1 bits of ns.
func latBucket(ns uint64) int {
	if ns < 1<<(histSub+1) {
		return int(ns)
	}
	e := bits.Len64(ns) - (histSub + 1) // ns >> e is in [2^histSub, 2^(histSub+1))
	return e<<histSub + int(ns>>e)
}

// bucketValue is the midpoint of bucket i in ns.
func bucketValue(i int) float64 {
	if i < 1<<(histSub+1) {
		return float64(i)
	}
	e := i>>histSub - 1
	m := i - e<<histSub
	return (float64(m) + 0.5) * float64(uint64(1)<<e)
}

func (h *latHist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.b[latBucket(uint64(ns))].Add(1)
}

func (h *latHist) reset() {
	for i := range h.b {
		h.b[i].Store(0)
	}
}

// quantile returns the q-quantile in µs and the sample count.
func (h *latHist) quantile(q float64) (us float64, n uint64) {
	for i := range h.b {
		n += h.b[i].Load()
	}
	if n == 0 {
		return 0, 0
	}
	rank := uint64(q * float64(n))
	var c uint64
	for i := range h.b {
		c += h.b[i].Load()
		if c > rank {
			return bucketValue(i) / 1e3, n
		}
	}
	return bucketValue(len(h.b)-1) / 1e3, n
}

// receiver checks and counts delivered payloads. Its callback runs on the
// endpoint's shard goroutines, concurrently, so every field is atomic.
type receiver struct {
	size      int
	seed      uint64
	base      time.Time
	seen      []atomic.Uint64 // duplicate bitmap over sequence numbers
	delivered atomic.Int64    // unique, intact payloads
	dups      atomic.Int64
	corrupt   atomic.Int64
	probes    atomic.Int64 // set-up datagrams (probeSeq) delivered
	lat       latHist
	record    atomic.Bool // latency samples are kept only while measuring
}

func newReceiver(size int, seed int64, base time.Time) *receiver {
	return &receiver{size: size, seed: uint64(seed), base: base, seen: make([]atomic.Uint64, dpMaxSeq/64)}
}

func (rc *receiver) onRecv(p []byte) {
	if len(p) < 16 {
		rc.corrupt.Add(1)
		return
	}
	seq := binary.LittleEndian.Uint64(p[0:8])
	if (seq >= dpMaxSeq && seq != probeSeq) || !checkPayload(p, rc.size, rc.seed, seq) {
		rc.corrupt.Add(1)
		return
	}
	if seq == probeSeq {
		rc.probes.Add(1)
		return
	}
	w, bit := &rc.seen[seq/64], uint64(1)<<(seq%64)
	for {
		old := w.Load()
		if old&bit != 0 {
			rc.dups.Add(1)
			return
		}
		if w.CompareAndSwap(old, old|bit) {
			break
		}
	}
	if rc.record.Load() {
		rc.lat.add(int64(time.Since(rc.base)) - int64(binary.LittleEndian.Uint64(p[8:16])))
	}
	rc.delivered.Add(1)
}

// dpPair is a connected sender/receiver endpoint pair.
type dpPair struct {
	a, b *datapath.Endpoint
}

func (p *dpPair) close() {
	p.a.Close()
	p.b.Close()
}

// setupPair builds both endpoints, starts them at each other, and returns
// once one datagram has been delivered end to end.
func setupPair(rc *receiver, tr *tracer) (*dpPair, error) {
	cfg := datapath.DefaultConfig()
	cfg.Paths = dpPaths
	s := tr.begin("datapath.new", 0)
	a, err := datapath.NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		return nil, err
	}
	b, err := datapath.NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		a.Close()
		return nil, err
	}
	tr.end(s)
	p := &dpPair{a: a, b: b}
	b.SetOnRecv(rc.onRecv)
	s = tr.begin("datapath.start", 0)
	if err := a.Start(fmt.Sprintf("127.0.0.1:%d", b.Ports()[0])); err != nil {
		p.close()
		return nil, err
	}
	if err := b.Start(fmt.Sprintf("127.0.0.1:%d", a.Ports()[0])); err != nil {
		p.close()
		return nil, err
	}
	tr.end(s)
	s = tr.begin("datapath.first_delivery", 0)
	buf := make([]byte, rc.size)
	deadline := time.Now().Add(2 * time.Second)
	for probes := rc.probes.Load(); rc.probes.Load() == probes; {
		if time.Now().After(deadline) {
			p.close()
			return nil, errors.New("no datagram delivered within 2s of start")
		}
		fillPayload(buf, rc.seed, probeSeq, int64(time.Since(rc.base)))
		if err := a.Send(buf); err != nil {
			p.close()
			return nil, err
		}
		time.Sleep(100 * time.Microsecond)
	}
	tr.end(s)
	return p, nil
}

// phaseStats is the outcome of one closed-loop phase.
type phaseStats struct {
	sent, delivered int64
	elapsed         time.Duration
	rates           []float64 // delivered/s per dpInterval after warm-up
	cpuRates        []float64 // delivered per process CPU second, same intervals
	waitNs          int64     // time the sender spent blocked on the window
	enqNs, enqCalls int64     // Enqueue time, timed per 64-call batch (traced)
	flushNs         int64     // explicit Flush time (traced)
	flushes         int64
}

// runPhase drives the closed loop for d: the sender keeps dpWindow
// datagrams in flight, flushing and sleeping when the window is full (a
// Gosched spin would keep the scheduler out of netpoll). Sequence numbers
// continue from *seq.
func runPhase(p *dpPair, rc *receiver, seq *uint64, d time.Duration, timed bool) (phaseStats, error) {
	var st phaseStats
	bufs := make([][]byte, 64)
	for i := range bufs {
		bufs[i] = make([]byte, rc.size)
	}
	var lost int64
	start := time.Now()
	sent0, del0 := int64(*seq), rc.delivered.Load()
	inflight := func() int64 { return int64(*seq) - sent0 - (rc.delivered.Load() - del0) - lost }
	next := start.Add(dpInterval)
	lastDel, lastCPU := del0, cpuTime()
	warm := false
	for {
		n := 0
		for ; n < len(bufs) && *seq < dpMaxSeq; n++ {
			fillPayload(bufs[n], rc.seed, *seq, int64(time.Since(rc.base)))
			*seq++
		}
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		for _, b := range bufs[:n] {
			if err := p.a.Enqueue(b); err != nil {
				return st, err
			}
		}
		if timed {
			st.enqNs += int64(time.Since(t0))
			st.enqCalls += int64(n)
		}
		if inflight() >= dpWindow || *seq >= dpMaxSeq {
			if timed {
				t0 = time.Now()
			}
			if err := p.a.Flush(); err != nil {
				return st, err
			}
			w0 := time.Now()
			if timed {
				st.flushNs += int64(w0.Sub(t0))
				st.flushes++
			}
			for inflight() >= dpWindow {
				time.Sleep(20 * time.Microsecond)
				if time.Since(w0) > dpStall {
					lost += inflight()
					break
				}
			}
			st.waitNs += int64(time.Since(w0))
		}
		now := time.Now()
		if now.After(next) {
			del, cpu := rc.delivered.Load(), cpuTime()
			if !warm && now.Sub(start) >= dpWarmup {
				warm = true
				rc.record.Store(true)
			} else if warm {
				st.rates = append(st.rates, float64(del-lastDel)/now.Sub(next.Add(-dpInterval)).Seconds())
				if cpu > lastCPU {
					st.cpuRates = append(st.cpuRates, float64(del-lastDel)/(cpu-lastCPU).Seconds())
				}
			}
			lastDel, lastCPU = del, cpu
			next = now.Add(dpInterval)
		}
		if now.Sub(start) >= d || *seq >= dpMaxSeq {
			break
		}
	}
	if err := p.a.Flush(); err != nil {
		return st, err
	}
	rc.record.Store(false)
	for wait := time.Now(); inflight() > 0 && time.Since(wait) < 200*time.Millisecond; {
		time.Sleep(50 * time.Microsecond)
	}
	st.elapsed = time.Since(start)
	st.sent = int64(*seq) - sent0
	st.delivered = rc.delivered.Load() - del0
	return st, nil
}

func runDPSmall(r *run) { r.loopback(64) }
func runDPMTU(r *run)   { r.loopback(1400) }

// loopback is the dp-* workload. The budget is split over dpSegments fresh
// pairs, so that no one pair's socket and scheduling placement sets the
// run's figures; each pair is the last of dpSetups set-ups, and setup_s is
// the median of all of them. Rates and latency pool over the segments. A
// traced run uses one pair for an untraced and then a traced phase.
func (r *run) loopback(size int) {
	rc := newReceiver(size, r.seed, time.Now())
	var setups, rates, cpuRates []float64
	segments := dpSegments
	if r.trace {
		segments = 1
	}
	for s := 0; s < segments; s++ {
		p := r.setupPairs(rc, &setups)
		if p == nil {
			return
		}
		// A fresh pair cannot receive an earlier pair's datagrams, so each
		// segment numbers its datagrams from 1 on a cleared bitmap.
		for i := range rc.seen {
			rc.seen[i].Store(0)
		}
		seq := uint64(1)
		d := (r.budget - time.Since(r.started)) / time.Duration(segments-s)
		if r.trace {
			r.tracedPhases(p, rc, &seq, d)
			p.close()
			return
		}
		st, err := runPhase(p, rc, &seq, max(d, 2*dpWarmup), false)
		if err != nil {
			p.close()
			r.fail("phase: %v", err)
			return
		}
		r.account(st, rc, p)
		p.close()
		rates = append(rates, st.rates...)
		cpuRates = append(cpuRates, st.cpuRates...)
		fmt.Printf("segment %d: %d sent, %d delivered in %v, median %.0f/s\n", s, st.sent, st.delivered, st.elapsed.Round(time.Millisecond), median(append([]float64(nil), st.rates...)))
	}
	p50, n := rc.lat.quantile(0.5)
	p99, _ := rc.lat.quantile(0.99)
	fmt.Printf("latency p50 %.1fus p99 %.1fus over %d samples; %.0f datagrams/s, %.3f Gbit/s payload\n",
		p50, p99, n, median(rates), median(rates)*float64(size)*8/1e9)
	r.set("setup_s", "s", median(setups))
	r.set("ops_per_cpu_s", "1/s", median(cpuRates))
}

// setupPairs sets up dpSetups pairs, closing all but the last, and appends
// each set-up's process CPU time to setups. It returns nil after recording a failure.
func (r *run) setupPairs(rc *receiver, setups *[]float64) *dpPair {
	var p *dpPair
	for i := 0; i < dpSetups; i++ {
		if p != nil {
			p.close()
			runtime.GC() // reclaim the closed pair's rings before the next
		}
		r.tr.newRun()
		t0 := cpuTime()
		var err error
		p, err = setupPair(rc, r.tr.on(r.trace))
		if err != nil {
			r.fail("setup: %v", err)
			return nil
		}
		*setups = append(*setups, (cpuTime() - t0).Seconds())
	}
	return p
}

// tracedPhases runs an untraced and then a traced phase of d/2 each on p.
func (r *run) tracedPhases(p *dpPair, rc *receiver, seq *uint64, d time.Duration) {
	d = max(d/2, 2*dpWarmup)
	base, err := runPhase(p, rc, seq, d, false)
	if err != nil {
		r.fail("phase: %v", err)
		return
	}
	r.account(base, rc, p)
	rc.lat.reset()
	r.beginTraced()
	r.tr.newRun()
	s := r.tr.begin("datapath.phase", 0)
	rt0, cpu0, t0 := readRT(), cpuTime(), time.Now()
	st, err := runPhase(p, rc, seq, d, true)
	r.reportCPU(cpu0, t0)
	rt := rt0.to(readRT())
	r.tr.end(s)
	if err != nil {
		r.fail("phase: %v", err)
		return
	}
	r.account(st, rc, p)
	r.reportDPLayers(rc.size, st, rt, p, rc)
	r.set("trace.overhead_frac", "fraction", median(base.rates)/median(st.rates)-1)
}

// account applies the loopback output checks: every datagram sent must be
// delivered once and intact; losses are failed operations, corruption,
// duplicates and endpoint errors make the result incorrect.
func (r *run) account(st phaseStats, rc *receiver, p *dpPair) {
	r.rep.Attempted += st.sent
	if lost := st.sent - st.delivered; lost > 0 {
		r.rep.Failed += lost
	}
	if n := rc.corrupt.Swap(0); n > 0 {
		r.fail("%d corrupt datagrams", n)
	}
	if n := rc.dups.Swap(0); n > 0 {
		r.fail("%d duplicate datagrams", n)
	}
	for _, e := range []*datapath.Endpoint{p.a, p.b} {
		s := e.Stats()
		if s.DecodeErrors != 0 || s.SocketErrors != 0 {
			r.fail("endpoint errors: %d decode, %d socket", s.DecodeErrors, s.SocketErrors)
		}
	}
	if len(st.rates) == 0 {
		r.fail("phase too short for a rate sample")
	}
}

// reportDPLayers sets the datapath per-layer metrics of a traced phase.
func (r *run) reportDPLayers(size int, st phaseStats, rt rtSnap, p *dpPair, rc *receiver) {
	sa, sb := p.a.Stats(), p.b.Stats()
	moved := st.sent + st.delivered
	r.set("datapath.enqueue_ns", "ns", float64(st.enqNs)/float64(max(st.enqCalls, 1)))
	r.set("datapath.flush_ns", "ns", float64(st.flushNs)/float64(max(st.flushes, 1)))
	r.set("datapath.pkts_per_flush", "count", float64(st.sent)/float64(max(st.flushes, 1)))
	r.set("datapath.tx_wait_frac", "fraction", float64(st.waitNs)/float64(st.elapsed))
	r.set("datapath.allocs_per_pkt", "count", float64(rt.allocs)/float64(max(moved, 1)))
	r.set("datapath.flowlets", "count", float64(sa.Flowlets))
	r.set("datapath.decode_errors", "count", float64(sa.DecodeErrors+sb.DecodeErrors))
	r.set("datapath.socket_errors", "count", float64(sa.SocketErrors+sb.SocketErrors))
	r.set("datapath.pps", "1/s", median(st.rates))
	r.set("datapath.gbps", "Gbit/s", median(st.rates)*float64(size)*8/1e9)
	p50, n := rc.lat.quantile(0.5)
	p99, _ := rc.lat.quantile(0.99)
	r.set("datapath.p50_us", "us", p50)
	r.set("datapath.p99_us", "us", p99)
	r.set("datapath.lat_samples", "count", float64(n))
	r.set("datapath.new_s", "s", r.tr.total("datapath.new")/dpSetups)
	r.set("datapath.start_s", "s", r.tr.total("datapath.start")/dpSetups)
	r.set("datapath.first_delivery_s", "s", r.tr.total("datapath.first_delivery")/dpSetups)
	r.set("gc.cpu_frac", "fraction", ratio(rt.gcCPU, rt.totalCPU))
}
