// Package topology models a GPU cluster at the level S-Caffe's
// co-designs care about: devices, PCIe links between each device and
// its host, an InfiniBand HCA per node, and a non-blocking fabric
// between nodes. Transfers reserve the shared links they cross, so
// algorithms that generate concurrent traffic (binomial trees) contend
// realistically while pipelined chains do not.
//
// The model deliberately uses a cut-through approximation: a transfer
// of B bytes over a path starts when every link on the path is free,
// lasts pathLatency + B/bottleneckBandwidth, and occupies every link
// for its duration. This is the standard first-order model used by
// collective-algorithm cost analyses (including the paper's Eq. 1–2).
package topology

import (
	"fmt"

	"scaffe/internal/sim"
)

// DeviceID identifies a GPU in the cluster: node index and local
// device index.
type DeviceID struct {
	Node  int
	Local int
}

func (d DeviceID) String() string { return fmt.Sprintf("n%dg%d", d.Node, d.Local) }

// TransferMode selects the data path used by a GPU-to-GPU transfer.
type TransferMode int

const (
	// ModeAuto picks the best mode the runtime supports for the size
	// (how MVAPICH2-GDR behaves with GDR + pipelining enabled).
	ModeAuto TransferMode = iota
	// ModeGDR transfers directly between GPU memory and the HCA via
	// PCIe peer-to-peer (GPUDirect RDMA). Lowest latency; on Kepler
	// the GDR read path has limited bandwidth for large messages.
	ModeGDR
	// ModePipelined stages through host memory in chunks, overlapping
	// D2H, network, and H2D (CUDA-aware large-message protocol).
	ModePipelined
	// ModeStaged is the naive non-pipelined path: full D2H copy, then
	// network, then full H2D (what a non-CUDA-aware stack does after
	// the application copies buffers out, or OpenMPI-era staging).
	ModeStaged
	// ModeIPC uses CUDA IPC / PCIe peer-to-peer for intra-node
	// GPU-to-GPU copies.
	ModeIPC
	// ModeHost transfers between host memories (no GPUs involved).
	ModeHost
)

func (m TransferMode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeGDR:
		return "gdr"
	case ModePipelined:
		return "pipelined"
	case ModeStaged:
		return "staged"
	case ModeIPC:
		return "ipc"
	case ModeHost:
		return "host"
	}
	return "unknown"
}

// Params holds the calibration constants of the hardware model. All
// bandwidths are bytes/second, latencies in virtual nanoseconds.
type Params struct {
	// PCIeBW is the effective per-direction bandwidth of one device's
	// PCIe connection (gen3 x16 shared by a K-80's two GK210s).
	PCIeBW float64
	// PCIeLat is the one-way PCIe latency.
	PCIeLat sim.Duration
	// IBBW is the effective per-HCA InfiniBand bandwidth.
	IBBW float64
	// IBLat is the one-way wire+switch latency.
	IBLat sim.Duration
	// GDRReadBW is the PCIe peer-to-peer read bandwidth from GPU
	// memory to the HCA (the Kepler GDR-read cliff).
	GDRReadBW float64
	// GDRLat is the extra setup latency saved by GDR (it is *lower*
	// than staging, modeled as reduced per-message overhead).
	GDRLat sim.Duration
	// IPCBW is intra-node GPU-to-GPU peer copy bandwidth.
	IPCBW float64
	// IPCLat is the IPC handle/setup latency per transfer.
	IPCLat sim.Duration
	// HostMemBW is host memcpy bandwidth (staging copies).
	HostMemBW float64
	// PipelineChunk is the chunk size of the pipelined protocol.
	PipelineChunk int64
	// SWOverhead is the per-MPI-call software overhead.
	SWOverhead sim.Duration
	// GPUReduceBW is the sustained bandwidth of a GPU reduction
	// kernel combining two operands (bytes of one operand per second).
	GPUReduceBW float64
	// CPUReduceBW is the same for a host (single-thread) reduction.
	CPUReduceBW float64
	// KernelLaunch is the launch latency of one GPU kernel.
	KernelLaunch sim.Duration
	// GPUGflops is the sustained FP32 throughput of one CUDA device
	// used by the layer cost model, in GFLOP/s.
	GPUGflops float64
	// IterOverhead is the per-iteration, per-solver fixed cost of the
	// framework itself (solver bookkeeping, loss host-syncs,
	// per-layer launch trains not modeled individually) — the constant
	// term that bounds strong-scaling efficiency for small models.
	IterOverhead sim.Duration
}

// DefaultParams returns constants calibrated to the paper's testbed
// era (K-80 GPUs, PCIe gen3, Connect-IB / EDR InfiniBand).
func DefaultParams() Params {
	return Params{
		PCIeBW:        10e9,
		PCIeLat:       1 * sim.Microsecond,
		IBBW:          12e9,
		IBLat:         2 * sim.Microsecond,
		GDRReadBW:     2.5e9,
		GDRLat:        500 * sim.Nanosecond,
		IPCBW:         10e9,
		IPCLat:        3 * sim.Microsecond,
		HostMemBW:     20e9,
		PipelineChunk: 128 << 10,
		SWOverhead:    2 * sim.Microsecond,
		GPUReduceBW:   45e9,
		CPUReduceBW:   6e9,
		KernelLaunch:  8 * sim.Microsecond,
		GPUGflops:     1450,
		IterOverhead:  5 * sim.Millisecond,
	}
}

// Link is a full-duplex connection modeled as independent per-
// direction resources (PCIe and InfiniBand both move data in and out
// simultaneously, which matters for pipeline relays).
type Link struct {
	In  *sim.Resource
	Out *sim.Resource
}

// BusyTotal sums both directions' reserved time.
func (l Link) BusyTotal() sim.Duration { return l.In.BusyTotal() + l.Out.BusyTotal() }

// Node is one cluster host: a set of GPUs, one PCIe link per GPU, and
// one HCA.
type Node struct {
	Index int
	// PCIe[i] is the host<->device link of local GPU i.
	PCIe []Link
	// HCA is the node's InfiniBand adapter.
	HCA Link
}

// Cluster is the hardware model shared by every rank of a simulation.
type Cluster struct {
	K       *sim.Kernel
	P       Params
	Nodes   []*Node
	perNode int
	name    string

	// linkFault, when set, returns a duration multiplier (>= 1) for
	// inter-node transfers leaving srcNode at virtual time `at` — the
	// fault plane's transient link-degradation hook. Nil means every
	// link is healthy.
	linkFault func(at sim.Time, srcNode, dstNode int) float64
}

// SetLinkFault installs the inter-node link-degradation hook.
func (c *Cluster) SetLinkFault(f func(at sim.Time, srcNode, dstNode int) float64) {
	c.linkFault = f
}

// scaleWire stretches an inter-node transfer duration by the link
// fault factor in effect at `at`; with no hook (or factor 1) the
// duration is returned untouched.
func (c *Cluster) scaleWire(at sim.Time, srcNode, dstNode int, d sim.Duration) sim.Duration {
	if c.linkFault == nil {
		return d
	}
	if f := c.linkFault(at, srcNode, dstNode); f > 1 {
		return sim.Duration(float64(d) * f)
	}
	return d
}

// New builds a cluster of `nodes` hosts with `gpusPerNode` CUDA
// devices each, on kernel k.
func New(k *sim.Kernel, name string, nodes, gpusPerNode int, p Params) *Cluster {
	if nodes <= 0 || gpusPerNode <= 0 {
		panic("topology: cluster dimensions must be positive")
	}
	c := &Cluster{K: k, P: p, perNode: gpusPerNode, name: name}
	newLink := func(name string) Link {
		return Link{In: k.NewResource(name + ".in"), Out: k.NewResource(name + ".out")}
	}
	for n := 0; n < nodes; n++ {
		node := &Node{Index: n, HCA: newLink(fmt.Sprintf("hca%d", n))}
		for g := 0; g < gpusPerNode; g++ {
			node.PCIe = append(node.PCIe, newLink(fmt.Sprintf("pcie%d.%d", n, g)))
		}
		c.Nodes = append(c.Nodes, node)
	}
	return c
}

// Name returns the cluster's configured name.
func (c *Cluster) Name() string { return c.name }

// NumNodes returns the number of hosts.
func (c *Cluster) NumNodes() int { return len(c.Nodes) }

// GPUsPerNode returns the number of CUDA devices per host.
func (c *Cluster) GPUsPerNode() int { return c.perNode }

// TotalGPUs returns nodes × GPUs-per-node.
func (c *Cluster) TotalGPUs() int { return len(c.Nodes) * c.perNode }

// DeviceForRank maps an MPI rank to a device using block placement:
// ranks fill a node's GPUs before moving to the next node (the
// placement S-Caffe uses, which makes low-order rank ranges node-local
// and is what the hierarchical chain exploits).
func (c *Cluster) DeviceForRank(rank int) DeviceID {
	if rank < 0 || rank >= c.TotalGPUs() {
		panic(fmt.Sprintf("topology: rank %d out of range (cluster has %d GPUs)", rank, c.TotalGPUs()))
	}
	return DeviceID{Node: rank / c.perNode, Local: rank % c.perNode}
}

// SameNode reports whether two devices share a host.
func (c *Cluster) SameNode(a, b DeviceID) bool { return a.Node == b.Node }

// KeschClusterA returns the paper's Cluster-A model: a Cray CS-Storm
// style dense system, 12 nodes × 16 CUDA devices (8 dual-GPU K-80
// cards), Connect-IB.
func KeschClusterA(k *sim.Kernel) *Cluster {
	return New(k, "Cluster-A (CS-Storm, 12x16 K-80, Connect-IB)", 12, 16, DefaultParams())
}

// ClusterB returns the paper's Cluster-B model: 20 nodes with one K-80
// card (2 CUDA devices) each, EDR InfiniBand.
func ClusterB(k *sim.Kernel) *Cluster {
	p := DefaultParams()
	p.IBBW = 11e9 // single EDR port
	return New(k, "Cluster-B (20x2 K-80, EDR)", 20, 2, p)
}
