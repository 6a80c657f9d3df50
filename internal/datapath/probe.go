package datapath

import (
	"time"

	"clove/internal/wire"
)

// Shim flag bits used by the datapath's path-quality probing.
const (
	shimFlagProbe     = 1 << 6
	shimFlagProbeEcho = 1 << 7
)

// PathRTT is one path's latest probe measurement.
type PathRTT struct {
	Port    uint16
	RTT     time.Duration
	Age     time.Duration // since the sample was taken
	Samples int64
}

// probeState tracks one in-flight probe.
type probeState struct {
	port   uint16
	sentAt time.Time
}

// ProbePaths sends one RTT probe on every path. Echoes update the path
// metric table (the same table the latency-based selection reads), so a
// slow or congested path is deprioritized even without any data traffic —
// the real-network analogue of the simulator's Clove-Latency scheme.
func (e *Endpoint) ProbePaths() {
	if e.remoteAP.Load() == nil {
		return // receive-only: registering in-flight probes would leak them
	}
	seqs := make([]uint32, len(e.ports))
	now := time.Now()
	e.probeMu.Lock()
	// Prune probes that were lost on the wire; their entries would otherwise
	// accumulate forever.
	for seq, st := range e.probes {
		if now.Sub(st.sentAt) > probeExpiry {
			delete(e.probes, seq)
		}
	}
	for i, port := range e.ports {
		e.probeSeq++
		seqs[i] = e.probeSeq
		if e.probes == nil {
			e.probes = map[uint32]probeState{}
		}
		e.probes[e.probeSeq] = probeState{port: port, sentAt: now}
	}
	e.probeMu.Unlock()
	for i, port := range e.ports {
		// Counted only once on a socket, like Sent. A probe that fails to
		// send stays registered until a later call prunes it.
		if e.transmit(port, seqs[i], wire.Feedback{}, nil, shimFlagProbe) == nil {
			e.probesSent.Add(1)
		}
	}
}

// handleProbe answers an incoming probe: echo its sequence and the path
// port it arrived on, so the prober can attribute the RTT. Runs on the
// receiving shard's goroutine.
func (e *Endpoint) handleProbe(sh *pathShard, shim *wire.SttShim) {
	sh.stats.probesAnswered.Add(1)
	port := uint16(e.curPortA.Load())
	if port == 0 && len(e.ports) > 0 {
		port = e.ports[0]
	}
	// The echo carries the original probe's path port in the feedback
	// field (attribution) and the sequence in FlowletID.
	fb := wire.Feedback{Valid: true, Port: shim.PathPort}
	e.transmit(port, shim.FlowletID, fb, nil, shimFlagProbeEcho)
}

// handleProbeEcho resolves an in-flight probe and records the RTT sample.
func (e *Endpoint) handleProbeEcho(sh *pathShard, shim *wire.SttShim) {
	now := time.Now()
	e.probeMu.Lock()
	st, ok := e.probes[shim.FlowletID]
	if !ok {
		e.probeMu.Unlock()
		return
	}
	delete(e.probes, shim.FlowletID)
	rtt := now.Sub(st.sentAt)
	sh.stats.probeEchoes.Add(1)
	if e.rtts == nil {
		e.rtts = map[uint16]*rttSample{}
	}
	s := e.rtts[st.port]
	if s == nil {
		s = &rttSample{}
		e.rtts[st.port] = s
	}
	s.rtt = rtt
	s.at = now
	s.count++
	e.probeMu.Unlock()
	// Feed the weight table's metric channel so latency-based selection
	// and congestion weighting can both see it.
	e.wmu.Lock()
	e.weights.OnUtilization(st.port, rtt.Seconds(), e.now())
	e.wmu.Unlock()
}

type rttSample struct {
	rtt   time.Duration
	at    time.Time
	count int64
}

// PathRTTs returns the latest per-path RTT samples, sorted by port order.
func (e *Endpoint) PathRTTs() []PathRTT {
	e.probeMu.Lock()
	defer e.probeMu.Unlock()
	now := time.Now()
	out := make([]PathRTT, 0, len(e.ports))
	for _, port := range e.ports {
		s := e.rtts[port]
		if s == nil {
			out = append(out, PathRTT{Port: port})
			continue
		}
		out = append(out, PathRTT{Port: port, RTT: s.rtt, Age: now.Sub(s.at), Samples: s.count})
	}
	return out
}
