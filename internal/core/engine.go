package core

import (
	"fmt"

	"scaffe/internal/coll"
	"scaffe/internal/data"
	"scaffe/internal/fault"
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/pfs"
	"scaffe/internal/sched"
	"scaffe/internal/sim"
	"scaffe/internal/solver"
	"scaffe/internal/topology"
)

// Tag bases for the engine's communication (user collectives inside
// reducers consume tag..tag+1 each).
const (
	tagPackedReduce = 100
	tagLayerReduce  = 1000 // + 2*layer
	tagPS           = 50
	tagJoinAck      = 60 // join handshake: admitted rank -> root
	tagCatchup      = 61 // catch-up broadcast of params + momentum
)

// runState is the shared state of one Run: everything the per-rank
// procs touch lives here (the simulator is cooperatively scheduled, so
// no locking is needed).
type runState struct {
	cfg     *Config
	cluster *topology.Cluster
	world   *mpi.World
	comm    *mpi.Comm
	red     coll.Reducer
	readers []*data.Reader
	wl      []*workload
	phases  []Phases
	losses  []float32
	sgds    []*solver.SGD

	// psScratch is the parameter server's gradient receive buffer,
	// allocated once for the whole run.
	psScratch *gpu.Buffer

	// graphs caches one iteration graph per rank in fault-free runs
	// (graph shape depends on comm membership, which only changes when
	// the fault plane is armed — armed runs rebuild per iteration and
	// leave this nil). lbl interns the node labels shared by every
	// rank's graph.
	graphs []*sched.Graph
	lbl    *labelTable

	accuracies []float64
	snapshots  []string
	snapIters  []int // 0-based iteration of each entry in snapshots
	fileErr    error

	// Fault-tolerance state (nil/zero in fault-free runs; see
	// recovery.go).
	k            *sim.Kernel
	ft           *fault.Plane
	dataSrc      data.Source
	ranksLive    int
	doneAt       sim.Time
	restartIter  int
	lastGoodIter int
	epoch        int // recovery epochs, for reader proc naming
	recSeen      int // fault.Recovery records already processed

	// Elastic-membership state (see recovery.go). growEpoch is the
	// epoch whose rebuild admitted joiners (-1 = none yet);
	// catchupSeen[rank] is the last epoch rank completed the catch-up
	// protocol for. iterEWMA/slowStreak feed the straggler-eviction
	// policy; ewmaScratch is its preallocated median buffer.
	growEpoch    int
	lastAdmitted []int
	catchupSeen  []int
	catchupHist  []float32 // root momentum packed for the catch-up bcast
	iterEWMA     []float64
	slowStreak   []int
	ewmaScratch  []float64

	// Integrity state (nil/zero when the plane is off; see
	// integrity.go).
	integ           *IntegrityReport
	lastGoodParams  []float32 // root params after the last healthy Step
	lastGoodHistory []float32 // root momentum to match
	lossEWMA        float64   // divergence baselines (0 = unseeded)
	normEWMA        float64
	integTries      map[int]int  // per-iteration watchdog trip counts
	quarantined     map[int]bool // iterations condemned past their retries
	integRetry      bool         // current revocation is a watchdog trip
	integIter       int          // iteration the watchdog tripped on
	integTripAt     sim.Time     // trip time, for the rollback span
}

// updateFLOPs is the arithmetic cost of one SGD update over n
// parameters.
func updateFLOPs(n int) float64 { return solver.UpdateFLOPs(n) }

// Run executes one training configuration and reports its results.
func Run(cfg Config) (*Result, error) {
	res, _, err := run(cfg)
	return res, err
}

func run(cfg Config) (*Result, *runState, error) {
	if err := cfg.validateAndDefault(); err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrConfig, err)
	}

	k := sim.New()
	params := topology.DefaultParams()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	cluster := topology.New(k, "run", cfg.Nodes, cfg.GPUsPerNode, params)

	workers := cfg.GPUs
	switch cfg.Design {
	case ParamServer:
		workers = cfg.GPUs - 1
	case ModelParallel:
		// Model parallelism pipelines the whole batch through every
		// stage: one logical worker.
		workers = 1
	}
	localBatch := cfg.localBatch(workers)

	// Device-memory check: parameters + gradients + double activation
	// footprint + input batch must fit (the missing points of
	// Figure 8).
	if err := checkMemory(cfg, localBatch); err != nil {
		return nil, nil, err
	}

	st := &runState{cfg: &cfg, cluster: cluster, k: k}
	st.losses = make([]float32, 0, cfg.Iterations)
	st.world = mpi.NewWorld(cluster, cfg.GPUs)
	st.comm = st.world.WorldComm()
	var pl *fault.Plane
	if len(cfg.Faults) > 0 || cfg.Integrity != IntegrityOff || cfg.EvictFactor > 0 {
		pl = fault.NewPlane(k, cfg.GPUs, cfg.FaultTimeout)
		pl.SetJoinRetries(cfg.JoinRetries)
		st.ft = pl
		st.world.Fault = pl
		st.ranksLive = cfg.GPUs
		st.lastGoodIter = cfg.StartIteration - 1
		st.growEpoch = -1
		st.catchupSeen = make([]int, cfg.GPUs)
		st.iterEWMA = make([]float64, cfg.GPUs)
		st.slowStreak = make([]int, cfg.GPUs)
		st.ewmaScratch = make([]float64, 0, cfg.GPUs)
		cluster.SetLinkFault(pl.LinkFactor)
		pl.SetRoot(st.rootRank())
	}
	if cfg.MaxVirtualTime > 0 {
		k.SetDeadline(sim.Time(cfg.MaxVirtualTime))
	}
	if cfg.Integrity != IntegrityOff {
		st.integ = &IntegrityReport{Mode: cfg.Integrity}
		st.world.Integrity = &mpi.Integrity{
			Mode:        cfg.Integrity.mpiMode(),
			RetryBudget: cfg.RetransmitBudget,
			WireCorrupt: pl.WireCorrupt,
		}
	}
	opts := cfg.ReduceOpts
	if opts == (coll.Options{}) {
		opts = coll.DefaultOptions()
	}
	st.red = coll.NewReducer(st.comm, cfg.Reduce, opts)
	st.phases = make([]Phases, cfg.GPUs)
	for i := 0; i < cfg.GPUs; i++ {
		if cfg.Design == ParamServer && i == 0 {
			st.wl = append(st.wl, newWorkload(&cfg, 0)) // server holds buffers only
			continue
		}
		w := newWorkload(&cfg, localBatch)
		if cfg.BucketBytes > 0 && (cfg.Design == SCOBR || cfg.Design == SCOBRF) {
			w.buildBuckets(cfg.Spec, cfg.BucketBytes)
		}
		st.wl = append(st.wl, w)
	}
	if cfg.Design == ParamServer {
		st.psScratch = gpu.NewBuffer(st.wl[0].packedGrads.Bytes)
	}
	if cfg.RealNet != nil {
		policy, err := buildPolicy(&cfg)
		if err != nil {
			return nil, nil, err
		}
		st.sgds = make([]*solver.SGD, cfg.GPUs)
		for i := range st.sgds {
			st.sgds[i] = solver.New(policy, cfg.Momentum, cfg.WeightDecay)
		}
		if cfg.ResumeFrom != "" {
			if err := st.resume(cfg.ResumeFrom); err != nil {
				return nil, nil, err
			}
		}
		if cfg.Integrity == IntegrityRecover {
			st.initLastGood()
		}
	}
	st.buildReaders(k, localBatch)
	if st.ft == nil && cfg.Design != ModelParallel {
		st.graphs = make([]*sched.Graph, cfg.GPUs)
	}

	mainFn := func(r *mpi.Rank) {
		if cfg.DeviceMemory > 0 {
			r.Dev.SetMemCapacity(cfg.DeviceMemory)
		}
		if cfg.Design == ModelParallel {
			st.runMP(r)
			return
		}
		sink := &nodeSink{st: st, rank: r.ID, ph: &st.phases[r.ID]}
		if st.ft != nil {
			st.runRankFT(r, sink)
			return
		}
		// Fault-free membership never changes, so the rank's graph is
		// built once and re-executed with the iteration threaded through
		// sched.Ctx.It.
		g := st.buildIteration(r)
		st.graphs[r.ID] = g
		for it := cfg.StartIteration; it < cfg.Iterations; it++ {
			g.Execute(sink, it)
		}
	}
	var err error
	if pl != nil {
		// The fault path drives the kernel directly: the plane's
		// events must be armed after the ranks spawn and before time
		// advances.
		st.world.Spawn(mainFn)
		pl.OnRebuild(st.rebuild)
		pl.Arm(cfg.Faults, &applier{st})
		err = k.Run()
	} else {
		_, err = st.world.Run(mainFn)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: simulation failed: %w", err)
	}
	if st.fileErr != nil {
		return nil, nil, fmt.Errorf("core: snapshot failed: %w", st.fileErr)
	}
	if pl != nil && pl.AliveCount() == 0 {
		return nil, nil, fmt.Errorf("%w: all %d ranks failed", ErrUnrecovered, cfg.GPUs)
	}

	total := st.world.K.Now()
	if pl != nil && st.doneAt > 0 {
		// Elastic readers outlive the last rank by design; the run
		// ends when the last rank finishes, not when the kernel
		// drains.
		total = st.doneAt
	}
	res := &Result{
		Design:        cfg.Design.String(),
		Model:         cfg.Spec.Name,
		GPUs:          cfg.GPUs,
		GlobalBatch:   cfg.GlobalBatch,
		LocalBatch:    localBatch,
		Iterations:    cfg.Iterations,
		Source:        cfg.Source.String(),
		ReduceAlg:     st.red.Name(),
		TotalTime:     total,
		Phases:        st.phases[0],
		Losses:        st.losses,
		Accuracies:    st.accuracies,
		SnapshotFiles: st.snapshots,
	}
	if pl != nil {
		res.Fault = pl.Report()
	}
	if st.integ != nil {
		if mi := st.world.Integrity; mi != nil {
			st.integ.Verified = mi.Verified
			st.integ.Detected = mi.Detected
			st.integ.Retransmitted = mi.Retransmits
			st.integ.Escalations = mi.Escalations
		}
		res.Integrity = st.integ
	}
	samples := float64(cfg.Iterations-cfg.StartIteration) * float64(localBatch) * float64(workers)
	if total > 0 {
		res.SamplesPerSec = samples / total.Seconds()
		res.HCAUtilization, res.PCIeUtilization = linkUtilization(cluster, cfg.GPUs, total)
	}
	if cfg.RealNet != nil && cfg.CaptureFinalParams {
		root := st.wl[st.rootRank()]
		root.packParams()
		res.FinalParams = append([]float32(nil), root.paramData...)
	}
	return res, st, nil
}

// rootRank is the world rank of the solver that applies updates: the
// training comm's group rank 0 (which moves when a shrink removes the
// old root), except under the parameter-server design, whose rank 0
// is the server.
func (st *runState) rootRank() int {
	if st.cfg.Design == ParamServer {
		return 0
	}
	return st.comm.WorldRank(0)
}

// isRoot reports whether r is the updating solver (see rootRank).
func (st *runState) isRoot(r *mpi.Rank) bool { return r.ID == st.rootRank() }

// linkUtilization computes the mean busy fraction of the HCAs of the
// nodes hosting ranks, and of the PCIe links of the rank-occupied
// GPUs, over the run (averaging both directions).
func linkUtilization(cluster *topology.Cluster, ranks int, total sim.Time) (hca, pcie float64) {
	if total <= 0 {
		return 0, 0
	}
	nodesUsed := (ranks + cluster.GPUsPerNode() - 1) / cluster.GPUsPerNode()
	var hcaBusy sim.Duration
	for n := 0; n < nodesUsed; n++ {
		hcaBusy += cluster.Nodes[n].HCA.BusyTotal()
	}
	hca = float64(hcaBusy) / float64(2*sim.Duration(nodesUsed)*total)
	var pcieBusy sim.Duration
	for r := 0; r < ranks; r++ {
		d := cluster.DeviceForRank(r)
		pcieBusy += cluster.Nodes[d.Node].PCIe[d.Local].BusyTotal()
	}
	pcie = float64(pcieBusy) / float64(2*sim.Duration(ranks)*total)
	return hca, pcie
}

// checkMemory validates the per-GPU footprint against device memory.
func checkMemory(cfg Config, localBatch int) error {
	capacity := cfg.DeviceMemory
	if capacity == 0 {
		capacity = 12 << 30
	}
	need := perRankMemory(&cfg, localBatch)
	if need > capacity {
		return &gpu.ErrOutOfMemory{Dev: topology.DeviceID{}, Requested: need, Free: capacity}
	}
	return nil
}

// perRankMemory estimates one solver's device footprint: parameters,
// gradients, activations and their gradients, and the input batch.
func perRankMemory(cfg *Config, localBatch int) int64 {
	params := cfg.Spec.ParamBytes()
	acts := int64(cfg.Spec.ActivationElems()) * 4 * 2 * int64(localBatch)
	input := int64(cfg.Spec.Input.Elems()) * 4 * int64(localBatch)
	if cfg.Design == ModelParallel {
		// Each rank holds only its layer slice.
		return (2*params + acts) / int64(cfg.GPUs)
	}
	return 2*params + acts + input
}

// buildReaders wires the data plane: one reader per solver (Figure 3)
// for the distributed designs, one shared reader for multi-threaded
// Caffe, and none for the server rank of the PS design.
func (st *runState) buildReaders(k *sim.Kernel, localBatch int) {
	cfg := st.cfg
	var src data.Source
	switch cfg.Source {
	case MemorySource:
		src = data.InMemory{}
	case LMDBSource:
		readers := cfg.GPUs
		if cfg.Design == CaffeMT {
			readers = 1
		}
		src = data.NewLMDBSource(k, readers)
	case ImageDataSource:
		src = data.NewImageDataSource(pfs.Default(k))
	}

	st.readers = make([]*data.Reader, cfg.GPUs)
	if st.ft != nil {
		// Fault-tolerant runs use elastic readers: the consumption
		// count is unknowable up front (rollbacks re-read iterations,
		// shrinks change the batch size), so readers prefetch forever,
		// bounded by the queue, until stopped. Config validation
		// restricts faults to the per-rank-reader designs.
		st.dataSrc = src
		for i := 0; i < cfg.GPUs; i++ {
			st.readers[i] = data.StartReaderLoop(k, fmt.Sprintf("reader%d", i),
				stalledSource{inner: src, pl: st.ft, rank: i}, localBatch, cfg.Spec.PerSampleBytes, cfg.QueueDepth)
		}
		return
	}
	iters := cfg.Iterations - cfg.StartIteration
	if cfg.Design == CaffeMT {
		// One reader thread feeds every solver through the shared
		// queue: it loads the whole global batch, then releases one
		// token per solver.
		shared := data.StartSharedReader(k, "reader", src, localBatch*cfg.GPUs, cfg.Spec.PerSampleBytes, iters, cfg.GPUs, cfg.QueueDepth*cfg.GPUs)
		for i := range st.readers {
			st.readers[i] = shared
		}
		return
	}
	for i := 0; i < cfg.GPUs; i++ {
		if cfg.Design == ParamServer && i == 0 {
			continue // the server does not train
		}
		if cfg.Design == ModelParallel && i != 0 {
			continue // only the pipeline's first stage reads data
		}
		st.readers[i] = data.StartReader(k, fmt.Sprintf("reader%d", i), src, localBatch, cfg.Spec.PerSampleBytes, iters, cfg.QueueDepth)
	}
}

// --- shared phase helpers -------------------------------------------------

// timed runs fn, adds the elapsed virtual time to *acc, and records
// the span on the run's trace recorder under the given phase name.
func (st *runState) timed(r *mpi.Rank, acc *sim.Duration, phase string, fn func()) {
	span := st.cfg.Trace.Begin(r.ID, phase, "", r.Now())
	before := r.Now()
	fn()
	*acc += r.Now() - before
	span.End(r.Now())
}

// dataWait starts an iteration: it charges the framework's fixed
// per-iteration overhead, then blocks on this rank's reader queue.
func (st *runState) dataWait(r *mpi.Rank, w *workload, ph *Phases, iter int) {
	r.Sleep(st.cluster.P.IterOverhead)
	st.timed(r, &ph.DataWait, "data", func() {
		if rd := st.readers[r.ID]; rd != nil {
			rd.Next(r.Proc)
		}
	})
	if w.real() {
		rankOffset := st.workerIndex(r) * w.localBatch
		w.loadBatch(st.cfg.Dataset, iter, w.localBatch*st.workerCount(), rankOffset)
	}
}

// workerIndex returns this rank's position among training workers —
// its group rank in the (possibly shrunken) training comm, so a
// recovery automatically re-shards the batch across survivors.
func (st *runState) workerIndex(r *mpi.Rank) int {
	if st.cfg.Design == ParamServer {
		return r.ID - 1
	}
	return st.comm.GroupRank(r.ID)
}

// workerCount returns the number of training workers.
func (st *runState) workerCount() int {
	if st.cfg.Design == ParamServer {
		return st.cfg.GPUs - 1
	}
	return st.comm.Size()
}

// RunDebug is Run plus the full per-rank phase table (diagnostics and
// tests).
func RunDebug(cfg Config) (*Result, []Phases, error) {
	res, st, err := run(cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, st.phases, nil
}
