package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a pprof CPU profile the folding needs:
// each sample's CPU time and its stack of function names, innermost
// (leaf) first, with inlined calls expanded.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	cpuNs int64
	stack []string
}

// parseProfile decodes a pprof profile (profile.proto, gzipped as
// runtime/pprof writes it, or raw) with a minimal protobuf reader, so
// the benchmark needs nothing beyond the standard library.
func parseProfile(b []byte) (*cpuProfile, error) {
	if len(b) >= 2 && b[0] == 0x1f && b[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if b, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes []uint64 // string index of each value's type
		raws        []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id -> string index
		strs        []string
	)
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(sub, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(sub, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					return eachVarint(v, p, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, p, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(sub, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line; several mean inlining, innermost first
					return eachField(p, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(sub, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// A CPU profile carries [samples/count, cpu/nanoseconds].
	cpu := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	p := &cpuProfile{}
	for _, r := range raws {
		if cpu < 0 || cpu >= len(r.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := profSample{cpuNs: r.values[cpu]}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. For a varint or
// fixed-width field fn gets the value in v; for a length-delimited one
// it gets the payload in sub (and v is the wire type, 2).
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			v, sub = 2, b[n:n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, packed (payload
// p) or not (one value v).
func eachVarint(v uint64, p []byte, fn func(uint64)) error {
	if p == nil {
		fn(v)
		return nil
	}
	for len(p) > 0 {
		x, n := uvarint(p)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		p = p[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// The profile-folded layers: the repository's simulator and trainer
// packages, the two runtime costs the attribution rule names, and
// "other" for every sample without an internal package frame (the
// benchmark's own loop, the scaffe facade, the rest of the runtime).
var foldLayers = []string{
	"sim", "sched", "mpi", "coll", "topology", "gpu", "core",
	"tensor", "layers", "solver", "data", "fault", "chaos",
	"runtime.sched", "runtime.gc", "other",
}

// gcFrames mark a sample taken in GC work: a background mark worker, a
// mutator assist, or the background sweeper and scavenger.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge",
}

// schedFrames are goroutine and channel scheduling code: the proc baton
// of the simulator is two unbuffered channel operations per resume.
var schedFrames = map[string]bool{
	"runtime.chansend": true, "runtime.chansend1": true, "runtime.chanrecv": true,
	"runtime.chanrecv1": true, "runtime.chanrecv2": true, "runtime.selectgo": true,
	"runtime.send": true, "runtime.recv": true, "runtime.gopark": true,
	"runtime.goready": true, "runtime.ready": true, "runtime.park_m": true,
	"runtime.mcall": true, "runtime.schedule": true, "runtime.findRunnable": true,
	"runtime.execute": true, "runtime.gogo": true, "runtime.goschedImpl": true,
	"runtime.gosched_m": true, "runtime.goexit0": true, "runtime.stopm": true,
	"runtime.startm": true, "runtime.wakep": true, "runtime.notesleep": true,
	"runtime.notewakeup": true, "runtime.futex": true, "runtime.futexsleep": true,
	"runtime.futexwakeup": true, "runtime.runqget": true, "runtime.runqput": true,
	"runtime.runqsteal": true, "runtime.runqgrab": true, "runtime.stealWork": true,
	"runtime.netpoll": true, "runtime.usleep": true, "runtime.osyield": true,
	"runtime.casgstatus": true, "runtime.newproc": true, "runtime.newproc1": true,
	"runtime.acquireSudog": true, "runtime.releaseSudog": true,
}

// layerOf attributes one sample's stack (leaf first) to a layer:
// a stack holding a GC worker or assist goes to runtime.gc; a leaf in
// goroutine or channel scheduling code to runtime.sched; everything
// else to the innermost scaffe/internal/<pkg> frame, or "other".
func layerOf(stack []string) string {
	for _, f := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "runtime.gc"
			}
		}
	}
	// The leaf is the run of runtime frames at the top of the stack.
	for _, f := range stack {
		if !isRuntime(f) {
			break
		}
		if schedFrames[f] {
			return "runtime.sched"
		}
	}
	for _, f := range stack {
		if pkg, ok := internalPkg(f); ok {
			for _, l := range foldLayers {
				if l == pkg {
					return pkg
				}
			}
			return "other"
		}
	}
	return "other"
}

func isRuntime(f string) bool {
	return strings.HasPrefix(f, "runtime.") || strings.HasPrefix(f, "internal/runtime/") ||
		strings.HasPrefix(f, "runtime/internal/")
}

// internalPkg returns the package of a scaffe/internal function name,
// e.g. "sim" for "scaffe/internal/sim.(*Proc).park".
func internalPkg(f string) (string, bool) {
	const prefix = "scaffe/internal/"
	if !strings.HasPrefix(f, prefix) {
		return "", false
	}
	rest := f[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// fold sums the profile's CPU time per layer. Every sample lands in
// exactly one layer, so the values add up to the profile's total.
func fold(p *cpuProfile) (byLayer map[string]int64, total int64) {
	byLayer = make(map[string]int64, len(foldLayers))
	for _, s := range p.samples {
		byLayer[layerOf(s.stack)] += s.cpuNs
		total += s.cpuNs
	}
	return byLayer, total
}
