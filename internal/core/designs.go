package core

import (
	"strconv"

	"scaffe/internal/coll"
	"scaffe/internal/mpi"
	"scaffe/internal/sched"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// Each training design is a graph-construction policy: one iteration
// becomes a sched.Graph whose edges encode where communication is
// posted and waited relative to per-layer compute — the only axis
// along which the paper's designs differ. The node actions reuse the
// runState/workload context; the scheduler supplies ordering, waiting,
// and trace emission.

// buildIteration constructs rank r's iteration graph under the
// configured design. The graph is iteration-independent — anything
// per-iteration reaches the node actions through sched.Ctx.It — so
// fault-free runs build it once per rank and re-execute it every
// iteration. ModelParallel keeps its pipeline loop (see
// modelparallel.go): its ranks run different layer ranges, not
// different overlap policies.
func (st *runState) buildIteration(r *mpi.Rank) *sched.Graph {
	g := sched.New(r)
	switch st.cfg.Design {
	case SCB, CaffeMT:
		st.buildSCB(g, r)
	case SCOB:
		st.buildSCOB(g, r)
	case SCOBR, SCOBRF:
		st.buildSCOBR(g, r)
	case CNTKLike:
		st.buildCNTK(g, r)
	case ParamServer:
		st.buildPS(g, r)
	}
	return g
}

// buildSCB is the S-Caffe Basic policy (Section 4.1): blocking
// CUDA-aware broadcast of the packed parameters, sequential
// forward/backward, blocking reduce of the packed gradients. CaffeMT
// shares this graph (its transfers resolve to intra-node IPC and its
// data plane is the single shared reader).
func (st *runState) buildSCB(g *sched.Graph, r *mpi.Rank) {
	w := st.wl[r.ID]
	root := st.isRoot(r)
	st.addDataWait(g, r, w)
	g.Add(0, sched.Pack, "propagation", "pack-params", func(x *sched.Ctx) {
		if root {
			w.packParams()
		}
	})
	g.Add(0, sched.WaitBcast, "propagation", "bcast-params", func(x *sched.Ctx) {
		x.R.Bcast(st.comm, 0, w.packedParams, topology.ModeAuto)
	})
	g.Add(0, sched.Unpack, "propagation", "unpack-params", func(x *sched.Ctx) {
		if !root {
			w.unpackParams()
		}
	})
	st.addForward(g, w)
	st.addBackward(g, w)
	g.Add(0, sched.Reduce, "aggregation", "reduce-grads", func(x *sched.Ctx) {
		st.red.Reduce(x.R, w.packedGrads, tagPackedReduce)
	})
	if root {
		st.addUpdate(g, w, st.workerCount())
	}
}

// buildSCOB is SC-B plus the overlapped multi-stage data propagation
// (Section 4.2): every layer's Ibcast is posted up front and each wait
// sits immediately before the layer that consumes the data.
func (st *runState) buildSCOB(g *sched.Graph, r *mpi.Rank) {
	w := st.wl[r.ID]
	root := st.isRoot(r)
	st.addDataWait(g, r, w)
	slots, drain := st.addPostPropagation(g, r, w)
	st.addOverlappedForward(g, w, slots, root)
	st.addBackward(g, w)
	g.Add(0, sched.Reduce, "aggregation", "reduce-grads", func(x *sched.Ctx) {
		st.red.Reduce(x.R, w.packedGrads, tagPackedReduce)
	})
	if root {
		st.addDrainSends(g, drain)
		st.addUpdate(g, w, st.workerCount())
	}
}

// buildSCOBR is the full co-design (Section 4.3): overlapped
// propagation plus helper-lane gradient aggregation. The backward
// kernels run on a helper lane; each layer's (or bucket's) reduce node
// depends on the helper node that produced its gradients, so layer n's
// reduce overlaps layer n−1's backward compute. SC-OBR-F shares this
// builder — normalization guarantees it always has buckets.
func (st *runState) buildSCOBR(g *sched.Graph, r *mpi.Rank) {
	w := st.wl[r.ID]
	root := st.isRoot(r)
	nLayers := len(st.cfg.Spec.Layers)
	st.addDataWait(g, r, w)
	slots, drain := st.addPostPropagation(g, r, w)
	st.addOverlappedForward(g, w, slots, root)

	begin := g.Add(0, sched.Generic, "", "begin-backward", func(x *sched.Ctx) { w.beginBackward() })
	helper := g.Lane("helper")
	bwd := make([]*sched.Node, nLayers)
	for l := nLayers - 1; l >= 0; l-- {
		bwd[l] = st.addBackwardLayer(g, helper, w, l)
	}
	bwd[nLayers-1].After(begin)

	if len(w.buckets) > 0 {
		// Fused aggregation: a bucket's gradients are complete once its
		// lowest layer's backward finishes.
		for bi, b := range w.buckets {
			bi, bucket := bi, b
			g.Add(0, sched.Generic, "", st.labels().gradsReadyB[bi], nil).
				After(bwd[bucket.lo]).WaitingIn("backward")
			g.Add(0, sched.Reduce, "aggregation", st.labels().reduceB[bi], func(x *sched.Ctx) {
				st.red.Reduce(x.R, bucket.buf, tagLayerReduce+4*bi)
			})
		}
	} else {
		for l := nLayers - 1; l >= 0; l-- {
			if w.layerGrad[l] == nil {
				continue
			}
			l := l
			g.Add(0, sched.Generic, "", st.labels().gradsReady[l], nil).
				After(bwd[l]).WaitingIn("backward")
			g.Add(0, sched.Reduce, "aggregation", st.labels().reduce[l], func(x *sched.Ctx) {
				st.red.Reduce(x.R, w.layerGrad[l], tagLayerReduce+4*l)
			})
		}
	}
	g.Add(0, sched.Generic, "", "join-backward", nil).After(bwd[0]).WaitingIn("backward")

	if root {
		st.addDrainSends(g, drain)
		st.addUpdate(g, w, st.workerCount())
	}
}

// buildCNTK models an MPI DL framework without CUDA-awareness or
// overlap, but with a competent host-side collective (CNTK's 1-bit-SGD
// lineage used MPI allreduce with its own multi-threaded reduction):
// gradients are staged to the host, ring-allreduced there, staged
// back, and every rank applies the update locally — the design axes of
// Table 1.
func (st *runState) buildCNTK(g *sched.Graph, r *mpi.Rank) {
	w := st.wl[r.ID]
	hostOpts := coll.Options{OnGPU: false, HostReduceBW: 20e9, Mode: topology.ModeHost}
	host := topology.HostOf(r.Dev.ID.Node)
	st.addDataWait(g, r, w)
	st.addForward(g, w)
	st.addBackward(g, w)
	g.Add(0, sched.Reduce, "aggregation", "host-allreduce", func(x *sched.Ctx) {
		gradBytes := w.packedGrads.Bytes
		_, end := st.cluster.Transfer(x.P.Now(), r.Dev.ID, host, gradBytes, topology.ModeAuto)
		x.P.WaitUntil(end)
		if st.comm.Size() > 1 {
			coll.RingAllreduce(st.comm, x.R, w.packedGrads, tagPackedReduce, hostOpts)
		}
		_, end = st.cluster.Transfer(x.P.Now(), host, r.Dev.ID, gradBytes, topology.ModeAuto)
		x.P.WaitUntil(end)
	})
	st.addLocalUpdate(g, r, w)
}

// buildPS models the Inspur-style parameter server: rank 0 serves
// parameters and aggregates gradients sequentially; ranks 1..N−1
// train. The single server's links and reduce kernels serialize all
// workers — the scalability argument of Section 3.1.
func (st *runState) buildPS(g *sched.Graph, r *mpi.Rank) {
	w := st.wl[r.ID]
	workers := st.cfg.GPUs - 1
	if r.ID == 0 {
		g.Add(0, sched.PostBcast, "propagation", "serve-params", func(x *sched.Ctx) {
			for wk := 1; wk <= workers; wk++ {
				x.R.Send(st.comm, wk, tagPS, w.packedParams, topology.ModeAuto)
			}
		})
		g.Add(0, sched.Reduce, "aggregation", "collect-grads", func(x *sched.Ctx) {
			for wk := 1; wk <= workers; wk++ {
				x.R.Recv(st.comm, wk, tagPS+1, st.psScratch)
				_, end := x.R.Dev.LaunchReduce(x.P.Now(), st.psScratch.Bytes)
				x.P.WaitUntil(end)
			}
		})
		st.addUpdate(g, w, workers)
		return
	}
	st.addDataWait(g, r, w)
	g.Add(0, sched.WaitBcast, "propagation", "recv-params", func(x *sched.Ctx) {
		x.R.Recv(st.comm, 0, tagPS, w.packedParams)
	})
	st.addForward(g, w)
	st.addBackward(g, w)
	g.Add(0, sched.Reduce, "aggregation", "send-grads", func(x *sched.Ctx) {
		x.R.Send(st.comm, 0, tagPS+1, w.packedGrads, topology.ModeAuto)
	})
}

// --- shared node factories ------------------------------------------------

// labelTable interns the per-layer (and per-bucket) node labels once
// per run: every rank's graph uses the same strings, so building 1024
// rank graphs costs 1024 label constructions instead of ~140k Sprintf
// calls.
type labelTable struct {
	fwd, bwd, waitBcast, bcastWire, gradsReady, reduce []string
	gradsReadyB, reduceB                               []string
}

// labels returns the run's interned label table, building it on first
// use. First use happens during graph construction on the
// cooperatively-scheduled rank procs, so no locking is needed.
//
//scaffe:coldpath first-use label interning, cached in st.lbl; every later call returns the table
func (st *runState) labels() *labelTable {
	if st.lbl != nil {
		return st.lbl
	}
	n := len(st.cfg.Spec.Layers)
	t := &labelTable{
		fwd: make([]string, n), bwd: make([]string, n),
		waitBcast: make([]string, n), bcastWire: make([]string, n),
		gradsReady: make([]string, n), reduce: make([]string, n),
	}
	for l := 0; l < n; l++ {
		d := strconv.Itoa(l)
		t.fwd[l] = "fwd:" + d
		t.bwd[l] = "bwd:" + d
		t.waitBcast[l] = "wait-bcast:" + d
		t.bcastWire[l] = "bcast:" + d
		t.gradsReady[l] = "grads-ready:" + d
		t.reduce[l] = "reduce:" + d
	}
	nb := 0
	for _, w := range st.wl {
		if len(w.buckets) > nb {
			nb = len(w.buckets)
		}
	}
	t.gradsReadyB = make([]string, nb)
	t.reduceB = make([]string, nb)
	for b := 0; b < nb; b++ {
		d := strconv.Itoa(b)
		t.gradsReadyB[b] = "grads-ready:b" + d
		t.reduceB[b] = "reduce:b" + d
	}
	st.lbl = t
	return t
}

// addDataWait starts an iteration: the framework's fixed per-iteration
// overhead (untraced, as in the original accounting), then the blocking
// read from this rank's reader queue plus the real-mode batch load.
func (st *runState) addDataWait(g *sched.Graph, r *mpi.Rank, w *workload) {
	g.Add(0, sched.Generic, "", "iter-overhead", func(x *sched.Ctx) {
		x.P.Sleep(st.cluster.P.IterOverhead)
	})
	g.Add(0, sched.DataWait, "data", "data-wait", func(x *sched.Ctx) {
		if rd := st.readers[r.ID]; rd != nil {
			rd.Next(x.P)
		}
		if w.real() {
			rankOffset := st.workerIndex(r) * w.localBatch
			w.loadBatch(st.cfg.Dataset, x.It, w.localBatch*st.workerCount(), rankOffset)
		}
	})
}

// addPostPropagation posts every parameter layer's Ibcast up front
// (Figure 5's multi-stage on-demand design). It returns per-layer
// slots (for the consuming layers' waits) and a drain slot holding all
// requests (for the root's send completion). When tracing, each
// request's completion hook records the wire-level span of the
// offloaded broadcast — the overlap Summary measures.
func (st *runState) addPostPropagation(g *sched.Graph, r *mpi.Rank, w *workload) ([]*sched.Slot, *sched.Slot) {
	slots := make([]*sched.Slot, len(st.cfg.Spec.Layers))
	for l := range slots {
		slots[l] = sched.NewSlot()
	}
	drain := sched.NewSlot()
	g.Add(0, sched.PostBcast, "", "post-bcasts", func(x *sched.Ctx) {
		root := st.isRoot(r)
		if root {
			w.packParams()
		}
		for l, buf := range w.layerParam {
			if buf == nil {
				continue
			}
			req := x.R.Ibcast(st.comm, 0, buf, topology.ModeAuto)
			// Each request is waited exactly where it is consumed: the
			// root gates its update on the drain slot, non-roots gate
			// each layer's forward on that layer's slot. Filling only
			// the gated slot keeps re-executed (cached) graphs from
			// accumulating requests in slots nobody resets.
			if root {
				drain.Put(req)
			} else {
				slots[l].Put(req)
			}
			if st.cfg.Trace != nil {
				post, label, rank := x.P.Now(), st.labels().bcastWire[l], r.ID
				//scaffe:nolint hotpath trace-only completion hook; timing runs (nil Trace) never build it
				req.OnComplete(func() {
					// The hook runs in kernel context at completion
					// time, so the current virtual time IS the
					// completion time — and unlike req.CompletedAt()
					// it stays correct after the pooled request is
					// recycled by a later operation.
					st.cfg.Trace.AddNode(rank, "bcast-wire", label, post, r.Now())
				})
			}
		}
	})
	return slots, drain
}

// addOverlappedForward places each layer's broadcast wait immediately
// before the layer that consumes the data — too early wastes overlap,
// too late stalls compute (Section 4.2).
func (st *runState) addOverlappedForward(g *sched.Graph, w *workload, slots []*sched.Slot, root bool) {
	g.Add(0, sched.Generic, "", "begin-forward", func(x *sched.Ctx) { w.beginForward() })
	for l := range st.cfg.Spec.Layers {
		if w.layerParam[l] != nil && !root {
			l := l
			g.Add(0, sched.WaitBcast, "propagation", st.labels().waitBcast[l], func(x *sched.Ctx) {
				w.unpackLayerParams(l)
			}).Gated(slots[l])
		}
		st.addForwardLayer(g, w, l)
	}
}

// addForward runs the full forward pass sequentially.
func (st *runState) addForward(g *sched.Graph, w *workload) {
	g.Add(0, sched.Generic, "", "begin-forward", func(x *sched.Ctx) { w.beginForward() })
	for l := range st.cfg.Spec.Layers {
		st.addForwardLayer(g, w, l)
	}
}

// addForwardLayer runs one layer's forward kernel (and real math).
func (st *runState) addForwardLayer(g *sched.Graph, w *workload, l int) *sched.Node {
	return g.Add(0, sched.ComputeForward, "forward", st.labels().fwd[l], func(x *sched.Ctx) {
		flops := st.cfg.Spec.Layers[l].FwdFLOPs * float64(w.localBatch)
		_, end := x.R.Dev.LaunchCompute(x.P.Now(), flops)
		w.forwardLayer(l)
		x.P.WaitUntil(end)
	})
}

// addBackward runs the full backward pass serially on lane 0 (SC-B /
// SC-OB / the baselines).
func (st *runState) addBackward(g *sched.Graph, w *workload) {
	g.Add(0, sched.Generic, "", "begin-backward", func(x *sched.Ctx) { w.beginBackward() })
	for l := len(st.cfg.Spec.Layers) - 1; l >= 0; l-- {
		st.addBackwardLayer(g, 0, w, l)
	}
}

// addBackwardLayer runs one layer's backward kernel (and real math) on
// the given lane.
func (st *runState) addBackwardLayer(g *sched.Graph, lane int, w *workload, l int) *sched.Node {
	phase := "backward"
	return g.Add(lane, sched.ComputeBackward, phase, st.labels().bwd[l], func(x *sched.Ctx) {
		flops := st.cfg.Spec.Layers[l].BwdFLOPs * float64(w.localBatch)
		_, end := x.R.Dev.LaunchCompute(x.P.Now(), flops)
		w.backwardLayer(l)
		x.P.WaitUntil(end)
	})
}

// addDrainSends completes the root's outstanding broadcast sends; the
// root must not modify parameters (ApplyUpdate) while the network may
// still be reading them.
func (st *runState) addDrainSends(g *sched.Graph, drain *sched.Slot) {
	g.Add(0, sched.DrainSends, "propagation", "drain-bcasts", nil).Gated(drain)
}

// addUpdate performs the root solver's ApplyUpdate — unpack the
// reduced gradients, run the SGD arithmetic (scaled to average the
// per-solver mean gradients), charge the kernel time — followed by the
// untimed bookkeeping (loss recording, testing, snapshotting).
func (st *runState) addUpdate(g *sched.Graph, w *workload, workers int) {
	g.Add(0, sched.Update, "update", "update", func(x *sched.Ctx) {
		_, end := x.R.Dev.LaunchCompute(x.P.Now(), updateFLOPs(st.cfg.Spec.TotalParams()))
		if w.real() {
			w.unpackGrads()
			// The health gate runs before the step, so poisoned
			// gradients never reach the parameters (recover mode
			// unwinds here into a micro-rollback); a quarantined
			// batch skips its update entirely.
			if st.integrityCheck(w, x.It) {
				st.sgds[x.R.ID].Step(w.net, x.It, 1/float32(workers))
				st.noteLastGood(w)
			}
		}
		x.P.WaitUntil(end)
	})
	g.Add(0, sched.Generic, "", "post-update", func(x *sched.Ctx) {
		if w.real() {
			//scaffe:nolint hotpath losses is pre-sized to cfg.Iterations in run(); append never regrows
			st.losses = append(st.losses, w.loss())
		}
		st.maybeEvaluate(x.R, w, x.It)
		st.noteCompleted(x.It)
		st.membershipTick(x.R)
	})
}

// addLocalUpdate applies the update on this rank (designs whose
// replicas all hold the averaged gradient); only the root records
// losses and runs the testing phase.
func (st *runState) addLocalUpdate(g *sched.Graph, r *mpi.Rank, w *workload) {
	g.Add(0, sched.Update, "update", "local-update", func(x *sched.Ctx) {
		_, end := x.R.Dev.LaunchCompute(x.P.Now(), updateFLOPs(st.cfg.Spec.TotalParams()))
		if w.real() {
			w.unpackGrads()
			st.sgds[r.ID].Step(w.net, x.It, 1/float32(st.workerCount()))
		}
		x.P.WaitUntil(end)
	})
	// (No health gate here: integrity in real-compute mode is
	// restricted to the root-broadcast designs, whose parameter
	// broadcast is what heals replicas after a rollback.)
	g.Add(0, sched.Generic, "", "post-update", func(x *sched.Ctx) {
		if st.isRoot(r) {
			if w.real() {
				//scaffe:nolint hotpath losses is pre-sized to cfg.Iterations in run(); append never regrows
				st.losses = append(st.losses, w.loss())
			}
			st.maybeEvaluate(x.R, w, x.It)
		}
		st.noteCompleted(x.It)
		st.membershipTick(x.R)
	})
}

// nodeSink routes scheduler spans into the run's accounting: lane-0
// spans accumulate into the rank's Phases (preserving the original
// semantics of "time the main thread spends blocked per phase") and
// every span lands on the trace recorder with its node label.
type nodeSink struct {
	st   *runState
	rank int
	ph   *Phases
}

func (s *nodeSink) NodeSpan(lane int, kind sched.Kind, phase, label string, start, end sim.Time) {
	if lane == 0 {
		s.ph.add(phase, end-start)
	}
	s.st.cfg.Trace.AddNode(s.rank, phase, label, start, end)
}
