// Package xprofix pins the interprocedural propagation semantics: an
// obligation annotated at a root flows through the call graph into
// unannotated callees, and the diagnostic that fires in the callee
// names the annotated root in its chain. stepMix and stepLeaf carry no
// annotation of their own — exactly the "leaf annotation deleted"
// state — so these wants prove deletion of a leaf annotation cannot
// silence callees reachable from an annotated root. The package also
// pins the two propagation cuts (//scaffe:coldpath on a declaration
// and on a call site) and the two indirect edge kinds (a callback
// stored into a struct field, interface dispatch).
package xprofix

type buf struct {
	data []float64
}

// rootIterate is the only hotpath annotation in the direct-call chain
// below: everything stepMix and stepLeaf owe, they owe through it.
//
//scaffe:hotpath
func rootIterate(b *buf) {
	stepMix(b)
	refill(4)
	// A call-site cut: the edge is cold, so drainEvents inherits
	// nothing from this root.
	//
	//scaffe:coldpath control transfer modelled on Proc.park; the loop has its own gates
	drainEvents(b)
}

// stepMix inherits the hotpath obligation from rootIterate.
func stepMix(b *buf) {
	b.data = append(b.data, 1) // want `append may grow.*via xprofix\.rootIterate → xprofix\.stepMix`
	stepLeaf()
}

// stepLeaf is two edges from the root; the chain names the whole path.
func stepLeaf() *buf {
	return &buf{} // want `&T\{\} escapes.*via xprofix\.rootIterate → xprofix\.stepMix → xprofix\.stepLeaf`
}

// refill models the pool-miss constructor idiom: the decl-level escape
// hatch stops propagation at the boundary, so its body stays silent.
//
//scaffe:coldpath pool-miss refill; steady state hits the pool
func refill(n int) []*buf {
	out := make([]*buf, n)
	for i := range out {
		out[i] = &buf{}
	}
	return out
}

// drainEvents is only reachable through the cold call site above:
// silent.
func drainEvents(b *buf) {
	b.data = append(b.data, 2)
}

// node/graph model sched.Graph: the callback is stored into a struct
// field at registration time and invoked through the field by the hot
// runner, so the obligation must flow parameter → field → closure.
type node struct {
	action func()
}

type graph struct {
	nodes []*node
}

func (g *graph) add(action func()) *node {
	n := &node{action: action}
	g.nodes = append(g.nodes, n)
	return n
}

// run is the hot root; n.action resolves to every callback registered
// through add.
//
//scaffe:hotpath
func (g *graph) run() {
	for _, n := range g.nodes {
		n.action()
	}
}

// register is cold construction — its own allocations are silent; the
// closure it registers runs under graph.run and is hot.
func register(g *graph, b *buf) {
	g.add(func() {
		b.data = append(b.data, 3) // want `append may grow.*via xprofix\.graph\.run → xprofix\.register\.func`
	})
}

// reducer/chainRed pin interface dispatch: the hot caller sees only
// the interface, the obligation lands on every module implementation.
type reducer interface {
	reduce(b *buf)
}

type chainRed struct{}

func (chainRed) reduce(b *buf) {
	b.data = append(b.data, 4) // want `append may grow.*via xprofix\.hotDispatch → xprofix\.chainRed\.reduce`
}

//scaffe:hotpath
func hotDispatch(r reducer, b *buf) {
	r.reduce(b)
}
