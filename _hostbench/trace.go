package main

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scaffe/internal/data"
	"scaffe/internal/layers"
	"scaffe/internal/tensor"
)

// span is one timed call into a layer, made from the benchmark's own
// code. Spans nest through parent ids: a workload call is a root span
// (parent 0) and the layer calls made during it are its children.
type span struct {
	id, parent int64
	// name is the layer operation, e.g. "layers.conv.fwd"; label says
	// which instance or input, e.g. "conv2" or a workload call's key.
	name, label string
	// start and end are host nanoseconds since the tracer's origin.
	start, end int64
	// work is the span's useful work where it has a natural count: the
	// FLOPs of a layer pass, zero elsewhere.
	work float64
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// tracer keeps every span in memory until the run ends. It is safe for
// concurrent use: the parallel simulation kernel may run two ranks'
// layers at once.
type tracer struct {
	origin time.Time
	ids    atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newID reserves a span id, so children can name their parent before
// the parent span ends.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// end records span id, which began at start, as ending now.
func (t *tracer) end(id, parent int64, name, label string, start time.Time, work float64) {
	s := span{
		id: id, parent: parent, name: name, label: label,
		start: start.Sub(t.origin).Nanoseconds(),
		end:   time.Since(t.origin).Nanoseconds(),
		work:  work,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap each
// other (concurrent ranks), so the covered part is the length of the
// union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.id] = s.dur() - time.Duration(covered(s.start, s.end, kids[s.id]))
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of the
// children's intervals.
func covered(lo, hi int64, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, lo), min(c.end, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach int64 = 0, lo
	for _, x := range iv {
		if x[0] > reach {
			reach = x[0]
		}
		if x[1] > reach {
			total += x[1] - reach
			reach = x[1]
		}
	}
	return total
}

// layerKind is the short metric name of a layer type.
func layerKind(l layers.Layer) string {
	switch l.Kind() {
	case "Convolution":
		return "conv"
	case "Pooling":
		return "pool"
	case "InnerProduct":
		return "ip"
	}
	return strings.ToLower(l.Kind())
}

// timedLayer delegates to a layer and records a span around each
// forward and backward pass, carrying the pass's FLOPs as its work. It
// is installed after the net is set up, so Setup is never called on it.
type timedLayer struct {
	layers.Layer
	tr     *tracer
	parent int64
	kind   string
	fwd    float64 // FLOPs of one forward pass over the batch
	bwd    float64
}

func (l *timedLayer) Forward(in *tensor.Tensor) *tensor.Tensor {
	start := time.Now()
	out := l.Layer.Forward(in)
	l.tr.end(l.tr.newID(), l.parent, "layers."+l.kind+".fwd", l.Name(), start, l.fwd)
	return out
}

func (l *timedLayer) Backward(grad *tensor.Tensor) *tensor.Tensor {
	start := time.Now()
	out := l.Layer.Backward(grad)
	l.tr.end(l.tr.newID(), l.parent, "layers."+l.kind+".bwd", l.Name(), start, l.bwd)
	return out
}

// timedNet returns a RealNet builder that builds nets with build and
// wraps every layer but the terminal loss in a timedLayer whose spans
// are children of span parent.
func timedNet(build func(batch int, seed int64) *layers.Net, tr *tracer, parent int64) func(int, int64) *layers.Net {
	return func(batch int, seed int64) *layers.Net {
		n := build(batch, seed)
		shape := n.In
		for i, l := range n.Layers[:len(n.Layers)-1] {
			n.Layers[i] = &timedLayer{
				Layer: l, tr: tr, parent: parent, kind: layerKind(l),
				fwd: l.FwdFLOPs(shape) * float64(batch),
				bwd: l.BwdFLOPs(shape) * float64(batch),
			}
			shape = l.OutShape(shape)
		}
		return n
	}
}

// timedDataset delegates to a dataset that is also a data.Filler and
// records a span around each sample fill.
type timedDataset struct {
	data.Dataset
	filler data.Filler
	tr     *tracer
	parent int64
}

func (d *timedDataset) ReadInto(i int, img []float32) int {
	start := time.Now()
	label := d.filler.ReadInto(i, img)
	d.tr.end(d.tr.newID(), d.parent, "data.fill", "", start, 0)
	return label
}

// Compile-time checks: the wrappers keep the interfaces the engine
// uses, so it takes the allocation-free fill path through them.
var (
	_ layers.Layer = (*timedLayer)(nil)
	_ data.Filler  = (*timedDataset)(nil)
)
