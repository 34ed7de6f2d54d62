package label

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/order"
)

// Builder accumulates label entries and produces an immutable Index.
// Entries may arrive in any order; Finalize sorts each per-vertex list
// by rank.
type Builder struct {
	n   int
	ord *order.Ordering
	in  [][]order.Rank
	out [][]order.Rank
}

// NewBuilder returns a Builder for a graph with the given ordering.
func NewBuilder(ord *order.Ordering) *Builder {
	n := ord.N()
	return &Builder{n: n, ord: ord, in: make([][]order.Rank, n), out: make([][]order.Rank, n)}
}

// AddIn records r ∈ L_in(w): the vertex with rank r reaches w and
// survives pruning.
func (b *Builder) AddIn(w graph.VertexID, r order.Rank) { b.in[w] = append(b.in[w], r) }

// AddOut records r ∈ L_out(w).
func (b *Builder) AddOut(w graph.VertexID, r order.Rank) { b.out[w] = append(b.out[w], r) }

// Finalize sorts every label list and freezes the result into the
// flat Index: every construction path funnels through Lists.Freeze.
func (b *Builder) Finalize() *Index {
	return b.Lists().Freeze()
}

// Lists sorts every accumulated label list and returns the slice
// layout, aliasing the Builder's backing slices (the Builder should
// not be reused afterwards).
func (b *Builder) Lists() *Lists {
	for v := 0; v < b.n; v++ {
		sortRanks(b.in[v])
		sortRanks(b.out[v])
		// Builder tolerates duplicate Add calls (the merge in Reachable
		// handles repeats), so only sortedness is promised here.
		invariant.Sorted("label: L_in after Finalize sort", b.in[v])
		invariant.Sorted("label: L_out after Finalize sort", b.out[v])
	}
	return &Lists{n: b.n, ord: b.ord, in: b.in, out: b.out}
}

func sortRanks(rs []order.Rank) {
	if len(rs) < 2 {
		return
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
}

// FromLists assembles an Index directly from per-vertex label lists.
// Each list must be a strictly increasing rank sequence — a sorted
// label *set* (TOL emits labels in round order, which is rank order,
// and never labels a vertex twice). The lists are copied, not aliased.
func FromLists(ord *order.Ordering, in, out [][]order.Rank) *Index {
	n := ord.N()
	for v := 0; v < n; v++ {
		invariant.StrictlyIncreasing("label: FromLists in-list", in[v])
		invariant.StrictlyIncreasing("label: FromLists out-list", out[v])
	}
	return (&Lists{n: n, ord: ord, in: in, out: out}).Freeze()
}

// FromBackward assembles an Index from backward label sets: backIn[r]
// lists the vertices w with rank-r vertex ∈ L_in(w) (i.e. L_in^⁻ of
// the vertex ranked r), and likewise backOut for out-labels
// (Definition 4). Iterating ranks in increasing order keeps each
// forward list sorted without a final sort. backIn is not retained:
// the index re-derives its backward in-labels from the forward lists,
// which also sorts each of them by vertex ID.
func FromBackward(ord *order.Ordering, backIn, backOut [][]graph.VertexID) *Index {
	n := ord.N()
	x := &Index{
		n:      n,
		ord:    ord,
		inOff:  make([]int64, n+1),
		outOff: make([]int64, n+1),
	}
	inCnt := make([]int64, n)
	outCnt := make([]int64, n)
	var inTotal, outTotal int64
	for r := 0; r < n; r++ {
		for _, w := range backIn[r] {
			inCnt[w]++
		}
		for _, w := range backOut[r] {
			outCnt[w]++
		}
		inTotal += int64(len(backIn[r]))
		outTotal += int64(len(backOut[r]))
	}
	for v := 0; v < n; v++ {
		x.inOff[v+1] = x.inOff[v] + inCnt[v]
		x.outOff[v+1] = x.outOff[v] + outCnt[v]
	}
	x.inLab = make([]order.Rank, inTotal)
	x.outLab = make([]order.Rank, outTotal)
	inCur := make([]int64, n)
	outCur := make([]int64, n)
	copy(inCur, x.inOff[:n])
	copy(outCur, x.outOff[:n])
	for r := 0; r < n; r++ {
		for _, w := range backIn[r] {
			x.inLab[inCur[w]] = order.Rank(r)
			inCur[w]++
		}
		for _, w := range backOut[r] {
			x.outLab[outCur[w]] = order.Rank(r)
			outCur[w]++
		}
	}
	x.link()
	return x
}
