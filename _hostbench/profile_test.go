package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
)

// pb is a tiny protobuf writer for building profile fixtures.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, v []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(v)))
	p.b = append(p.b, v...)
	return p
}

func (p *pb) packed(num int, vs ...uint64) *pb {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	return p.bytes(num, q)
}

// fixture builds a CPU profile whose samples have the given stacks
// (leaf first) and CPU times. Each function gets its own location,
// except that an entry "a+b" is one location with a inlined into b.
// Odd samples use unpacked repeated fields, as older encoders did.
func fixture(stacks [][]string, cpuNs []int64) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	idx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	p := &pb{}
	p.bytes(1, (&pb{}).varint(1, 1).varint(2, 2).b) // samples/count
	p.bytes(1, (&pb{}).varint(1, 3).varint(2, 4).b) // cpu/nanoseconds
	funcs := map[string]uint64{}
	fn := func(name string) uint64 {
		if id, ok := funcs[name]; ok {
			return id
		}
		id := uint64(len(funcs) + 1)
		funcs[name] = id
		p.bytes(5, (&pb{}).varint(1, id).varint(2, idx(name)).b)
		return id
	}
	locs := map[string]uint64{}
	loc := func(frame string) uint64 {
		if id, ok := locs[frame]; ok {
			return id
		}
		id := uint64(len(locs) + 1)
		locs[frame] = id
		l := (&pb{}).varint(1, id)
		for _, name := range bytes.Split([]byte(frame), []byte("+")) {
			l.bytes(4, (&pb{}).varint(1, fn(string(name))).varint(2, 7).b)
		}
		p.bytes(4, l.b)
		return id
	}
	for i, st := range stacks {
		var ids []uint64
		for _, f := range st {
			ids = append(ids, loc(f))
		}
		s := &pb{}
		if i%2 == 0 {
			s.packed(1, ids...).packed(2, 1, uint64(cpuNs[i]))
		} else {
			for _, id := range ids {
				s.varint(1, id)
			}
			s.varint(2, 1).varint(2, uint64(cpuNs[i]))
		}
		p.bytes(2, s.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	return p.b
}

func TestFoldAttribution(t *testing.T) {
	cases := []struct {
		stack []string
		layer string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "scaffe/internal/mpi.(*Rank).Isend"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm",
			"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime.sched"},
		{[]string{"runtime.lock2", "runtime.chanrecv", "runtime.chanrecv1",
			"scaffe/internal/sim.(*Proc).park", "scaffe/internal/mpi.(*Rank).Wait"}, "runtime.sched"},
		// A runtime leaf that is not scheduling goes to the caller's layer.
		{[]string{"runtime.memmove", "runtime.growslice", "scaffe/internal/sched.(*Graph).runNode",
			"scaffe/internal/sim.(*Kernel).loopFrom"}, "sched"},
		// Inlined frames expand: tensor's kernel inlined into a layer.
		{[]string{"scaffe/internal/tensor.dot+scaffe/internal/layers.(*Conv).Forward", "scaffe/internal/core.run"}, "tensor"},
		{[]string{"scaffe/internal/coll.(*tunedReducer).Reduce.func1"}, "coll"},
		{[]string{"scaffe/internal/models.BuildTinyNet"}, "other"},
		{[]string{"main.runPasses", "main.main"}, "other"},
		{[]string{"runtime.sysmon", "runtime.mstart"}, "other"},
	}
	var stacks [][]string
	var cpu []int64
	want := map[string]int64{}
	var total int64
	for i, c := range cases {
		stacks = append(stacks, c.stack)
		ns := int64(10_000_000 * (i + 1))
		cpu = append(cpu, ns)
		want[c.layer] += ns
		total += ns
	}
	raw := fixture(stacks, cpu)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw)
	zw.Close()
	for name, b := range map[string][]byte{"raw": raw, "gzip": gz.Bytes()} {
		p, err := parseProfile(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(p.samples) != len(cases) {
			t.Fatalf("%s: %d samples, want %d", name, len(p.samples), len(cases))
		}
		if got := p.samples[5].stack; len(got) != 3 || got[0] != "scaffe/internal/tensor.dot" || got[1] != "scaffe/internal/layers.(*Conv).Forward" {
			t.Errorf("%s: inlined stack %v", name, got)
		}
		byLayer, sum := fold(p)
		if sum != total {
			t.Errorf("%s: folded total %d, want %d", name, sum, total)
		}
		var accounted int64
		for _, l := range foldLayers {
			accounted += byLayer[l]
			if byLayer[l] != want[l] {
				t.Errorf("%s: layer %s = %d, want %d", name, l, byLayer[l], want[l])
			}
		}
		if accounted != total {
			t.Errorf("%s: folded layers account for %d of %d ns", name, accounted, total)
		}
	}
}

// The decoder reads what runtime/pprof writes.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for i := 0; i < 5_000_000; i++ {
		x += i % 7
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range p.samples {
		if s.cpuNs <= 0 || len(s.stack) == 0 {
			t.Fatalf("bad sample %+v (x=%d)", s, x)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte{0x0a, 0xff}); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}
