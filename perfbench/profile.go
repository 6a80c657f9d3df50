package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
)

// profPackages are the layers whose CPU-profile self time is reported as
// prof.<name>.self_frac: the leaf frame's package under clove/internal, plus
// syscall (any package path ending in /syscall or named syscall) and
// runtime_gc (any sample with a GC worker, assist or sweeper on its stack).
var profPackages = []string{
	"sim", "netem", "tcp", "vswitch", "clove", "conga", "packet", "cluster",
	"discovery", "datapath", "wire", "syscall", "runtime_gc",
}

// gcFrames mark a sample as garbage-collector work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot",
}

// beginTraced starts the CPU profile at the start of the traced part of a
// run, after its untraced twin; main stops it when the workload returns.
func (r *run) beginTraced() {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		r.fail("cpu profile: %v", err)
		return
	}
	r.stopProfile = func() []byte {
		pprof.StopCPUProfile()
		return buf.Bytes()
	}
}

// reportProfile attributes the profile's CPU time to profPackages.
func (r *run) reportProfile(data []byte) {
	self, total, err := selfTimeByLayer(data)
	if err != nil {
		r.fail("cpu profile: %v", err)
		return
	}
	for _, p := range profPackages {
		frac := 0.0
		if total > 0 {
			frac = float64(self[p]) / float64(total)
		}
		r.set("prof."+p+".self_frac", "fraction", frac)
	}
	r.set("prof.cpu_s", "s", float64(total)/1e9)
}

// selfTimeByLayer decodes a gzipped profile.proto and sums the CPU time of
// each sample into the layer of its leaf frame.
func selfTimeByLayer(data []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sample struct {
		locs []uint64
		val  int64
	}
	var (
		samples []sample
		locFunc = map[uint64][]uint64{} // location id -> function ids, innermost first
		funName = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbAppendUints(s.locs, v, b)
				case 2:
					vals := pbAppendUints(nil, v, b)
					if len(vals) > 0 {
						s.val = int64(vals[len(vals)-1]) // cpu nanoseconds
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	name := func(fn uint64) string {
		if i := funName[fn]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	self := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.val
		if len(s.locs) == 0 {
			continue
		}
		layer := ""
	stack:
		for _, l := range s.locs {
			for _, fn := range locFunc[l] {
				n := name(fn)
				for _, g := range gcFrames {
					if strings.HasPrefix(n, g) {
						layer = "runtime_gc"
						break stack
					}
				}
			}
		}
		if layer == "" {
			if fns := locFunc[s.locs[0]]; len(fns) > 0 {
				layer = leafLayer(name(fns[0]))
			}
		}
		self[layer] += s.val
	}
	return self, total, nil
}

// leafLayer maps a function name to its profPackages entry ("" if none).
func leafLayer(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		pkg = pkg[i+1:]
	}
	if i := strings.Index(pkg, "."); i >= 0 {
		pkg = pkg[:i]
	}
	if pkg == "syscall" {
		return "syscall"
	}
	if strings.HasPrefix(fn, "clove/internal/") {
		return pkg
	}
	return ""
}

var errPB = errors.New("malformed profile")

// pbFields walks the fields of one protobuf message, calling fn with the
// varint value (wire type 0) or the bytes (wire type 2) of each.
func pbFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errPB
		}
		b = b[n:]
		field, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errPB
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errPB
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errPB
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errPB
			}
			b = b[4:]
		default:
			return errPB
		}
	}
	return nil
}

// pbAppendUints appends a repeated uint64 field given either unpacked (v)
// or packed (b).
func pbAppendUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
