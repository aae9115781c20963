// Package sched executes one training iteration as a dependency graph
// of typed nodes on the simulator's cooperative kernel. Each design
// (SC-B, SC-OB, SC-OBR, and the baselines) becomes a graph-construction
// policy instead of a bespoke imperative loop: the nodes are the same
// compute and communication steps, and the edges encode exactly where
// communication is posted and waited relative to per-layer compute —
// the axis along which the paper's designs differ (Sections 4.1–4.3).
//
// A graph holds one or more lanes. Lane 0 runs inline on the rank's
// main proc; every additional lane becomes a simulated thread inside
// the rank (SC-OBR's backward helper). Within a lane, nodes run in
// insertion order; cross-lane edges (Node.After) and request gates
// (Node.Gated) add the explicit dependencies. Every node emits a trace
// span for its action and, separately, for any time it spent blocked on
// dependencies, so the timeline a graph produces is exactly the
// timeline the equivalent hand-written loop produced.
package sched

import (
	"fmt"

	"scaffe/internal/mpi"
	"scaffe/internal/sim"
)

// Kind classifies a node for tracing and diagnostics.
type Kind int

const (
	// Generic is control flow or zero-cost bookkeeping.
	Generic Kind = iota
	// DataWait blocks on the rank's data-reader queue.
	DataWait
	// Pack flattens parameters or gradients into a packed buffer.
	Pack
	// Unpack writes a packed buffer back into the model.
	Unpack
	// PostBcast posts non-blocking broadcasts (returns immediately).
	PostBcast
	// WaitBcast completes a broadcast the node's consumer needs.
	WaitBcast
	// ComputeForward runs one layer's forward kernel.
	ComputeForward
	// ComputeBackward runs one layer's backward kernel.
	ComputeBackward
	// Reduce runs a gradient reduction (per layer, bucket, or model).
	Reduce
	// DrainSends completes the root's outstanding broadcast sends.
	DrainSends
	// Update applies the solver update.
	Update
)

func (k Kind) String() string {
	switch k {
	case Generic:
		return "generic"
	case DataWait:
		return "data-wait"
	case Pack:
		return "pack"
	case Unpack:
		return "unpack"
	case PostBcast:
		return "post-bcast"
	case WaitBcast:
		return "wait-bcast"
	case ComputeForward:
		return "fwd"
	case ComputeBackward:
		return "bwd"
	case Reduce:
		return "reduce"
	case DrainSends:
		return "drain-sends"
	case Update:
		return "update"
	}
	return "unknown"
}

// Ctx is what a node's action receives: the rank the graph runs on,
// the proc executing this node (the rank's main proc for lane 0, the
// lane's own thread otherwise), and the iteration the graph is being
// executed for. Graphs are built once and executed per iteration, so
// anything iteration-dependent must come from It, not from values
// captured at construction time.
type Ctx struct {
	R  *mpi.Rank
	P  *sim.Proc
	It int
}

// Slot carries MPI requests from the node that creates them to the
// nodes gated on their completion. Requests exist only once the
// producing node has executed, so edges reference the slot, not the
// request.
type Slot struct {
	reqs []*mpi.Request
}

// NewSlot returns an empty slot.
func NewSlot() *Slot { return &Slot{} }

// Put appends a request; nil requests are ignored.
func (s *Slot) Put(req *mpi.Request) {
	if req != nil {
		//scaffe:nolint hotpath slots reset to [:0] each Execute; append reuses high-water capacity
		s.reqs = append(s.reqs, req)
	}
}

// Tracer receives one span per node execution: the action span under
// the node's phase, and a separate "<label>/wait" span for time spent
// blocked on dependencies or gates. Zero-length spans are not emitted.
type Tracer interface {
	NodeSpan(lane int, kind Kind, phase, label string, start, end sim.Time)
}

// Node is one step of the iteration graph.
type Node struct {
	g         *Graph
	kind      Kind
	label     string
	waitLabel string // label + "/wait", built lazily on first emission
	phase     string // phase charged for action time; "" = untraced
	waitPhase string // phase charged for dependency-wait time
	lane      int
	index     int
	action    func(*Ctx)
	deps      []*Node
	gates     []*Slot
	done      *sim.Completion
}

// After adds dependency edges. Same-lane edges to earlier nodes are
// implicit (lanes run in insertion order) and ignored; a same-lane edge
// to a later node would deadlock the lane and panics immediately.
func (n *Node) After(deps ...*Node) *Node {
	for _, d := range deps {
		if d == nil {
			continue
		}
		if d.lane == n.lane {
			if d.index >= n.index {
				panic(fmt.Sprintf("sched: node %q depends forward on %q within lane %d", n.label, d.label, n.lane))
			}
			continue
		}
		n.deps = append(n.deps, d)
	}
	return n
}

// Gated makes the node wait for every request in the slots before its
// action runs. Gates use Rank.Wait (which progresses CPU-deferred
// requests), so they are lane-0 only.
func (n *Node) Gated(slots ...*Slot) *Node {
	if n.lane != 0 {
		panic(fmt.Sprintf("sched: node %q gated on lane %d; request gates need the rank's main proc", n.label, n.lane))
	}
	n.gates = append(n.gates, slots...)
	n.g.slots = append(n.g.slots, slots...)
	return n
}

// WaitingIn charges the node's dependency-wait time to a different
// phase than its action (SC-OBR waits for a backward layer in
// "backward", then reduces in "aggregation").
func (n *Node) WaitingIn(phase string) *Node {
	n.waitPhase = phase
	return n
}

// Graph is one iteration's dependency graph for one rank. Building a
// graph is pure construction — it can be reused across iterations by
// calling Execute repeatedly with different iteration numbers.
type Graph struct {
	r         *mpi.Rank
	lanes     [][]*Node
	laneNames []string
	joins     []*sim.Completion // per-Execute scratch
	// slots lists every gated slot once per Gated registration, so
	// Execute's per-iteration reset touches only the slots instead of
	// walking every node.
	slots []*Slot
	// slab is the node arena: nodes are carved from fixed-size chunks
	// instead of allocated individually, so a built graph is a handful
	// of contiguous blocks — cheaper to allocate, cheaper for the
	// collector to scan, and laid out in execution order for the
	// per-iteration walk.
	slab []Node
}

// nodeSlab is the arena chunk size; chunks must never grow in place
// (returned *Node pointers are stable for the graph's lifetime).
const nodeSlab = 128

// New returns an empty graph for rank r with lane 0 (the rank's main
// proc) ready.
func New(r *mpi.Rank) *Graph {
	return &Graph{r: r, lanes: make([][]*Node, 1), laneNames: []string{"main"}}
}

// Lane allocates an additional lane, executed as a simulated thread
// inside the rank (mpi.Rank.SpawnThread), and returns its index.
func (g *Graph) Lane(name string) int {
	g.lanes = append(g.lanes, nil)
	g.laneNames = append(g.laneNames, name)
	return len(g.lanes) - 1
}

// Add appends a node to the lane. The action may be nil (a pure
// synchronization point). The wait phase defaults to the action phase;
// override with WaitingIn.
func (g *Graph) Add(lane int, kind Kind, phase, label string, action func(*Ctx)) *Node {
	if lane < 0 || lane >= len(g.lanes) {
		panic(fmt.Sprintf("sched: node %q on unknown lane %d", label, lane))
	}
	if len(g.slab) == cap(g.slab) {
		g.slab = make([]Node, 0, nodeSlab)
	}
	g.slab = append(g.slab, Node{
		g: g, kind: kind, label: label, phase: phase, waitPhase: phase,
		lane: lane, index: len(g.lanes[lane]), action: action,
	})
	n := &g.slab[len(g.slab)-1]
	g.lanes[lane] = append(g.lanes[lane], n)
	return n
}

// Execute runs the graph to completion on the rank's procs for
// iteration it: helper lanes are spawned as rank threads, lane 0 runs
// inline on the calling rank's main proc, and Execute returns only
// after every lane's last node has finished. tracer may be nil.
//
// A graph may be executed repeatedly (the engine caches one graph per
// rank and re-runs it every iteration): each Execute resets the gate
// slots, and — on multi-lane graphs — re-initializes the per-node
// completions, whose generation bump dissolves any reference left over
// from an abandoned (Revoked-unwound) previous execution. Single-lane
// graphs have no cross-lane edges and skip completions entirely.
func (g *Graph) Execute(tracer Tracer, it int) {
	k := g.r.W.K
	multiLane := len(g.lanes) > 1
	for _, s := range g.slots {
		s.reqs = s.reqs[:0]
	}
	if multiLane {
		for _, lane := range g.lanes {
			for _, n := range lane {
				if n.done == nil {
					n.done = k.NewCompletion()
				} else {
					n.done.Init(k)
				}
			}
		}
	}
	joins := g.joins[:0]
	for li := 1; li < len(g.lanes); li++ {
		nodes := g.lanes[li]
		if len(nodes) == 0 {
			continue
		}
		joins = append(joins, nodes[len(nodes)-1].done)
		g.r.SpawnThread(g.laneNames[li], func(p *sim.Proc) {
			// A revoked communicator unwinds helper lanes quietly:
			// recovery belongs to the main lane, which observes the
			// same revocation through its own waits.
			defer func() {
				if rec := recover(); rec != nil && !mpi.IsRevoked(rec) {
					panic(rec)
				}
			}()
			ctx := Ctx{R: g.r, P: p, It: it}
			for _, n := range nodes {
				g.runNode(n, &ctx, tracer)
			}
		})
	}
	g.joins = joins
	ctx := Ctx{R: g.r, P: g.r.Proc, It: it}
	for _, n := range g.lanes[0] {
		g.runNode(n, &ctx, tracer)
	}
	// Safety net: a well-formed graph orders lane 0 after its helpers
	// (SC-OBR's join node), making these waits free.
	for _, j := range joins {
		g.r.WaitDep(g.r.Proc, j)
	}
}

// runNode waits the node's dependencies and gates, runs its action,
// emits trace spans, and fires its completion. The untraced path skips
// all timestamp bookkeeping — it exists only to position spans.
//
// runNode is the steady-state iteration's root: every node action the
// engine registers (Graph.Add stores the callback into Node.action)
// runs under it once per iteration, so the hotpath obligation declared
// here propagates through the call graph into those closures and
// everything they reach.
//
//scaffe:hotpath
func (g *Graph) runNode(n *Node, ctx *Ctx, tracer Tracer) {
	p := ctx.P
	if tracer == nil {
		for _, d := range n.deps {
			// Lane-0 predecessors have almost always fired already;
			// checking inline skips two call frames per satisfied edge.
			if !d.done.Fired() {
				g.r.WaitDep(p, d.done)
			}
		}
		for _, s := range n.gates {
			for _, req := range s.reqs {
				g.r.Wait(req)
			}
		}
		if n.action != nil {
			n.action(ctx)
		}
		if n.done != nil {
			n.done.Fire()
		}
		return
	}
	start := p.Now()
	for _, d := range n.deps {
		if !d.done.Fired() {
			g.r.WaitDep(p, d.done)
		}
	}
	for _, s := range n.gates {
		for _, req := range s.reqs {
			g.r.Wait(req)
		}
	}
	if waited := p.Now(); waited > start && n.waitPhase != "" {
		if n.waitLabel == "" {
			//scaffe:nolint hotpath built once per node on the first traced wait, then cached
			n.waitLabel = n.label + "/wait"
		}
		tracer.NodeSpan(n.lane, n.kind, n.waitPhase, n.waitLabel, start, waited)
	}
	at := p.Now()
	if n.action != nil {
		n.action(ctx)
	}
	if end := p.Now(); end > at && n.phase != "" {
		tracer.NodeSpan(n.lane, n.kind, n.phase, n.label, at, end)
	}
	if n.done != nil {
		n.done.Fire()
	}
}
