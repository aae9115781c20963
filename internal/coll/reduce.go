package coll

import (
	"fmt"

	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
)

// binomialReducer implements the flat binomial-tree reduce of Eq. (1):
// log2(P) rounds, each moving and reducing the full buffer.
type binomialReducer struct {
	c      *mpi.Comm
	o      Options
	states stateTable
}

func (b *binomialReducer) Name() string { return "binomial" }

//scaffe:hotpath
func (b *binomialReducer) Reduce(r *mpi.Rank, buf *gpu.Buffer, tag int) {
	me := b.c.Rank(r)
	size := b.c.Size()
	if size == 1 {
		return
	}
	st := b.states.acquire(size, me)
	defer st.release()
	var scratch *gpu.Buffer
	for mask := 1; mask < size; mask <<= 1 {
		if me&mask != 0 {
			if scratch != nil {
				st.putScratch(scratch)
			}
			r.Send(b.c, me-mask, tag, buf, b.o.Mode)
			return
		}
		peer := me + mask
		if peer >= size {
			continue
		}
		if scratch == nil {
			scratch = st.getScratch(buf)
		}
		r.RecvSummed(b.c, peer, tag, scratch).Verify()
		localReduce(r, buf, scratch, b.o)
	}
	if scratch != nil {
		st.putScratch(scratch)
	}
}

// chainReducer implements the chunked-chain pipelined reduce of
// Eq. (2): the tail splits the buffer into n chunks; each interior
// rank receives a chunk from its right neighbour, reduces it into its
// own copy, and forwards it left; the pipeline drains at the root.
type chainReducer struct {
	c      *mpi.Comm
	o      Options
	states stateTable
}

func (cr *chainReducer) Name() string { return "chain" }

func (cr *chainReducer) Reduce(r *mpi.Rank, buf *gpu.Buffer, tag int) {
	me := cr.c.Rank(r)
	size := cr.c.Size()
	if size == 1 {
		return
	}
	st := cr.states.acquire(size, me)
	defer st.release()
	n := defaultChunks(buf.Bytes, cr.o.Chunks)
	elems := buf.Elems()

	switch {
	case me == size-1: // tail: source of the pipeline
		sreqs := st.takeReqs()
		for j := 0; j < n; j++ {
			lo, hi := chunkBounds(elems, n, j)
			if lo >= hi {
				continue
			}
			//scaffe:nolint hotpath request slice is pooled via takeReqs/storeReqs; append reuses high-water capacity
			sreqs = append(sreqs, r.Isend(cr.c, me-1, tag, st.view(buf, lo, hi), cr.o.Mode))
		}
		r.WaitAll(sreqs...)
		st.storeReqs(sreqs)

	case me == 0: // root: sink of the pipeline
		for j := 0; j < n; j++ {
			lo, hi := chunkBounds(elems, n, j)
			if lo >= hi {
				continue
			}
			tmp := st.view(buf, lo, hi)
			scratch := st.getScratch(tmp)
			r.RecvSummed(cr.c, 1, tag, scratch).Verify()
			localReduce(r, tmp, scratch, cr.o)
			st.putScratch(scratch)
		}

	default: // interior: receive, reduce, forward
		sreqs := st.takeReqs()
		for j := 0; j < n; j++ {
			lo, hi := chunkBounds(elems, n, j)
			if lo >= hi {
				continue
			}
			mine := st.view(buf, lo, hi)
			scratch := st.getScratch(mine)
			r.RecvSummed(cr.c, me+1, tag, scratch).Verify()
			localReduce(r, mine, scratch, cr.o)
			// The scratch is free for the next chunk right away: the
			// in-flight forward below sends `mine` (a view of buf),
			// never the scratch.
			st.putScratch(scratch)
			//scaffe:nolint hotpath request slice is pooled via takeReqs/storeReqs; append reuses high-water capacity
			sreqs = append(sreqs, r.Isend(cr.c, me-1, tag, mine, cr.o.Mode))
		}
		r.WaitAll(sreqs...)
		st.storeReqs(sreqs)
	}
}

// hierarchical is the two-level design of Section 5: lower-level
// chunked chains over consecutive (locality-aligned) ranks, then an
// upper-level reduce among chain leaders using `upper` (Chain for CC,
// Binomial for CB).
type hierarchical struct {
	base     *mpi.Comm
	o        Options
	upperAlg Algorithm
	chains   []*mpi.Comm
	leaders  *mpi.Comm
	lower    []Reducer
	upper    Reducer
	name     string
}

func newHierarchical(c *mpi.Comm, o Options, upperAlg Algorithm) *hierarchical {
	chains, leaders := c.SplitChains(o.ChainSize)
	h := &hierarchical{base: c, o: o, upperAlg: upperAlg, chains: chains, leaders: leaders}
	for _, ch := range chains {
		h.lower = append(h.lower, &chainReducer{c: ch, o: o})
	}
	switch upperAlg {
	case Chain:
		h.upper = &chainReducer{c: leaders, o: o}
		h.name = fmt.Sprintf("CC-%d", o.ChainSize)
	case Binomial:
		h.upper = &binomialReducer{c: leaders, o: o}
		h.name = fmt.Sprintf("CB-%d", o.ChainSize)
	default:
		panic("coll: hierarchical upper level must be Chain or Binomial")
	}
	return h
}

func (h *hierarchical) Name() string { return h.name }

func (h *hierarchical) Reduce(r *mpi.Rank, buf *gpu.Buffer, tag int) {
	me := h.base.Rank(r)
	ci := me / h.o.ChainSize
	h.lower[ci].Reduce(r, buf, tag)
	if me%h.o.ChainSize == 0 {
		h.upper.Reduce(r, buf, tag+1)
	}
}

// newThreeLevel builds the chain-of-chain-plus-binomial design the
// paper proposes for very large scales ("in future, we can exploit
// multi-level combinations like chain-of-chain combined with a top
// level binomial", Section 5): level-0 chains over consecutive ranks,
// level-1 chains over the level-0 leaders, binomial tree over the
// level-1 leaders.
func newThreeLevel(c *mpi.Comm, o Options) *hierarchical {
	chains, leaders := c.SplitChains(o.ChainSize)
	h := &hierarchical{base: c, o: o, upperAlg: ChainChainBinomial, chains: chains, leaders: leaders}
	for _, ch := range chains {
		h.lower = append(h.lower, &chainReducer{c: ch, o: o})
	}
	if leaders.Size() > o.ChainSize {
		h.upper = newHierarchical(leaders, o, Binomial)
	} else {
		// Too few leaders for another level: degrade to a single
		// binomial, i.e. plain CB.
		h.upper = &binomialReducer{c: leaders, o: o}
	}
	h.name = fmt.Sprintf("CCB-%d", o.ChainSize)
	return h
}
