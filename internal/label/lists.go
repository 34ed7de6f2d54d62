package label

import (
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/order"
)

// Lists is the slice layout of a reachability index: one independently
// allocated rank slice per vertex and direction. It is the natural
// shape while labels are being accumulated (the Builder works in it)
// and the historical serving layout, kept as the reference the flat
// Index is checked against — Lists.Reachable runs the plain §II-A
// linear merge over the two per-vertex slices with no layout tricks.
//
// For serving, Freeze converts to the read-optimized flat Index: one
// contiguous rank array plus CSR-style offsets per direction, so a
// query touches two offset words and two dense array ranges instead of
// chasing per-vertex slice headers across the heap. Freeze and Thaw
// are exact inverses on the label sets, so the two layouts answer
// every query identically.
type Lists struct {
	n   int
	ord *order.Ordering
	in  [][]order.Rank
	out [][]order.Rank
}

// NewLists wraps per-vertex label lists (aliased, not copied) into the
// slice layout. Each list must already be sorted by rank.
func NewLists(ord *order.Ordering, in, out [][]order.Rank) *Lists {
	l := &Lists{n: ord.N(), ord: ord, in: in, out: out}
	for v := 0; v < l.n; v++ {
		invariant.Sorted("label: NewLists in-list", in[v])
		invariant.Sorted("label: NewLists out-list", out[v])
	}
	return l
}

// NumVertices returns the number of vertices the label sets cover.
func (l *Lists) NumVertices() int { return l.n }

// Ordering returns the vertex order the labels were built under.
func (l *Lists) Ordering() *order.Ordering { return l.ord }

// InLabels returns L_in(v) as a rank-sorted read-only slice.
func (l *Lists) InLabels(v graph.VertexID) []order.Rank { return l.in[v] }

// OutLabels returns L_out(v) as a rank-sorted read-only slice.
func (l *Lists) OutLabels(v graph.VertexID) []order.Rank { return l.out[v] }

// Reachable answers q(s, t) by the plain linear merge of L_out(s) and
// L_in(t). This is the reference (pre-flat) query path: no galloping,
// no layout assumptions beyond sortedness.
func (l *Lists) Reachable(s, t graph.VertexID) bool {
	a, b := l.out[s], l.in[t]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Freeze assembles the read-optimized flat Index from the slice
// layout: labels are packed into one contiguous array per direction
// with vertex offsets alongside, in vertex order. The label sets are
// copied, so the Lists may be mutated or dropped afterwards; the
// frozen Index is immutable from here on (which is what lets the
// serving layer cache query answers without any invalidation — see
// DESIGN.md §10). Freeze also derives the backward in-labels that
// ReachableSetSize walks.
func (l *Lists) Freeze() *Index {
	x := l.freeze()
	x.link()
	return x
}

// freeze packs the lists into the flat layout without deriving the
// backward in-labels.
func (l *Lists) freeze() *Index {
	x := &Index{
		n:      l.n,
		ord:    l.ord,
		inOff:  make([]int64, l.n+1),
		outOff: make([]int64, l.n+1),
	}
	var inTotal, outTotal int64
	for v := 0; v < l.n; v++ {
		inTotal += int64(len(l.in[v]))
		outTotal += int64(len(l.out[v]))
	}
	x.inLab = make([]order.Rank, 0, inTotal)
	x.outLab = make([]order.Rank, 0, outTotal)
	for v := 0; v < l.n; v++ {
		invariant.Sorted("label: Freeze in-list", l.in[v])
		invariant.Sorted("label: Freeze out-list", l.out[v])
		x.inLab = append(x.inLab, l.in[v]...)
		x.outLab = append(x.outLab, l.out[v]...)
		x.inOff[v+1] = int64(len(x.inLab))
		x.outOff[v+1] = int64(len(x.outLab))
	}
	return x
}

// Thaw is the inverse of Freeze: it copies the flat arrays back into
// one independently allocated slice per vertex and direction. Tests
// and benchmarks use it to reconstruct the pre-flat layout from any
// built index.
func (x *Index) Thaw() *Lists {
	in := make([][]order.Rank, x.n)
	out := make([][]order.Rank, x.n)
	for v := 0; v < x.n; v++ {
		if lab := x.InLabels(graph.VertexID(v)); len(lab) > 0 {
			in[v] = append(make([]order.Rank, 0, len(lab)), lab...)
		}
		if lab := x.OutLabels(graph.VertexID(v)); len(lab) > 0 {
			out[v] = append(make([]order.Rank, 0, len(lab)), lab...)
		}
	}
	return &Lists{n: x.n, ord: x.ord, in: in, out: out}
}
