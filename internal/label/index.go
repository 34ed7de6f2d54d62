// Package label defines the reachability index produced by TOL and by
// the paper's distributed labeling algorithms, the merge-intersection
// query over it, and the trimmed BFS primitive (Algorithm 2) the
// filtering phase is built on.
//
// A label entry is the *rank* of the labeling vertex in the total
// order (rank 0 = highest order). Storing ranks instead of vertex IDs
// keeps every per-vertex label list sorted by construction — TOL and
// the batch algorithms emit labels in decreasing order — so the
// intersection at query time is a linear merge, the
// O(|L_out(s)| + |L_in(t)|) bound of §II-A.
package label

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/order"
)

// Index is an immutable reachability index: an in-label and an
// out-label set per vertex, each a rank-sorted slice. An index built
// under a label budget (NewBudgeted) also carries the cap, the
// per-vertex completeness flags and the graph its label misses fall
// back to; b is nil for a complete index.
type Index struct {
	n   int
	ord *order.Ordering
	// b sits beside the offset and label headers Reachable reads, so a
	// complete index's miss check touches no extra cache line.
	b      *budget
	inOff  []int64
	inLab  []order.Rank
	outOff []int64
	outLab []order.Rank
	// backOff and backIn hold the backward in-labels of Definition 4,
	// derived by link: backIn[backOff[h]:backOff[h+1]] lists, in
	// ascending ID order, every vertex t with h ∈ L_in(t). They are nil
	// on a budgeted index, whose capped lists would make them
	// incomplete.
	backOff []int32
	backIn  []graph.VertexID
}

// link derives the backward in-labels from L_in with one counting
// pass: count per rank, prefix-sum, then place every entry. Visiting
// vertices in ID order leaves each backward list ascending. The table
// covers ranks [0, n) plus any larger rank a Builder was handed (the
// kernel tests feed arbitrary ranks; Read rejects them).
func (x *Index) link() {
	if len(x.inLab) > math.MaxInt32 {
		panic(fmt.Sprintf("label: %d in-label entries overflow the backward offsets", len(x.inLab)))
	}
	hubs := x.n
	for _, r := range x.inLab {
		hubs = max(hubs, int(r)+1)
	}
	off := make([]int32, hubs+1)
	for _, r := range x.inLab {
		off[r+1]++
	}
	for h := 0; h < hubs; h++ {
		off[h+1] += off[h]
	}
	back := make([]graph.VertexID, len(x.inLab))
	for t := 0; t < x.n; t++ {
		for _, r := range x.InLabels(graph.VertexID(t)) {
			back[off[r]] = graph.VertexID(t)
			off[r]++
		}
	}
	// Placement advanced off[h] to the end of list h; shift back.
	copy(off[1:], off[:hubs])
	off[0] = 0
	x.backOff, x.backIn = off, back
}

// NumVertices returns the number of vertices the index covers.
func (x *Index) NumVertices() int { return x.n }

// Ordering returns the vertex order the index was built under.
func (x *Index) Ordering() *order.Ordering { return x.ord }

// InLabels returns L_in(v) as a rank-sorted read-only slice.
func (x *Index) InLabels(v graph.VertexID) []order.Rank {
	return x.inLab[x.inOff[v]:x.inOff[v+1]]
}

// OutLabels returns L_out(v) as a rank-sorted read-only slice.
func (x *Index) OutLabels(v graph.VertexID) []order.Rank {
	return x.outLab[x.outOff[v]:x.outOff[v+1]]
}

// Reachable answers the reachability query q(s, t) from the index
// alone: true iff L_out(s) ∩ L_in(t) ≠ ∅ (Definition 3). The two
// sorted label lists are merged, never the graph touched — except
// that a budgeted index settles a miss through resolve. Both lists
// live in the flat arrays, so the merge walks two dense ranges via
// offset cursors with no per-vertex pointer chasing; the loop lives
// in this method body because gc does not inline functions with
// loops, and a call frame is measurable at single-digit-nanosecond
// query latencies. Heavily skewed list pairs take the galloping path
// instead.
func (x *Index) Reachable(s, t graph.VertexID) bool {
	i, ae := x.outOff[s], x.outOff[s+1]
	j, be := x.inOff[t], x.inOff[t+1]
	if la, lb := ae-i, be-j; la > gallopRatio*lb || lb > gallopRatio*la {
		return intersects(x.outLab[i:ae], x.inLab[j:be]) || x.miss(s, t)
	}
	a, b := x.outLab, x.inLab
	for i < ae && j < be {
		av, bv := a[i], b[j]
		if av == bv {
			return true
		}
		if av < bv {
			i++
		} else {
			j++
		}
	}
	return x.miss(s, t)
}

// gallopRatio is the length skew beyond which the merge switches from
// the linear two-pointer walk to galloping probes of the short list
// into the long one: O(|short|·log|long|) beats O(|short|+|long|) once
// the skew exceeds the log factor with room to spare.
const gallopRatio = 16

// intersects reports whether two rank-sorted lists share an element.
// It is the query kernel: a linear merge for comparable lengths, a
// galloping search when one list dwarfs the other (hub vertices have
// single-digit labels, low-order vertices can carry hundreds).
func intersects(a, b []order.Rank) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return false
	}
	if len(b) >= gallopRatio*len(a) {
		return gallopIntersects(a, b)
	}
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

// gallopIntersects probes each element of the short list into the
// remaining suffix of the long one: exponential steps to bracket the
// element, then a binary search inside the bracket. Both lists are
// consumed left to right, so the whole pass is monotone.
func gallopIntersects(short, long []order.Rank) bool {
	pos := 0
	for _, r := range short {
		step := 1
		for pos+step < len(long) && long[pos+step-1] < r {
			step <<= 1
		}
		lo, hi := pos, pos+step
		if hi > len(long) {
			hi = len(long)
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if long[mid] < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(long) {
			return false
		}
		if long[lo] == r {
			return true
		}
		pos = lo
	}
	return false
}

// Pair is one (source, target) query of a batch.
type Pair struct {
	S, T graph.VertexID
}

// ReachableBatch answers q(s, t) for every pair, writing answers in
// the callers' order. Pairs are processed sorted by (source, target)
// so consecutive pairs sharing a source reuse its out-label range
// (still hot in cache) and exact duplicates are answered once. The
// answers are identical to calling Reachable per pair.
func (x *Index) ReachableBatch(pairs []Pair) []bool {
	res := make([]bool, len(pairs))
	if len(pairs) == 0 {
		return res
	}
	perm := make([]int32, len(pairs))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(i, j int) bool {
		pi, pj := pairs[perm[i]], pairs[perm[j]]
		if pi.S != pj.S {
			return pi.S < pj.S
		}
		return pi.T < pj.T
	})
	curS := graph.VertexID(-1)
	var out []order.Rank
	prev := Pair{S: -1, T: -1}
	prevAns := false
	for _, k := range perm {
		p := pairs[k]
		if p == prev {
			res[k] = prevAns
			continue
		}
		if p.S != curS {
			curS = p.S
			out = x.OutLabels(p.S)
		}
		prevAns = intersects(out, x.InLabels(p.T)) || x.miss(p.S, p.T)
		prev = p
		res[k] = prevAns
	}
	return res
}

// Entries returns the total number of label entries Σ(|L_in|+|L_out|).
func (x *Index) Entries() int64 {
	return int64(len(x.inLab) + len(x.outLab))
}

// SizeBytes returns the byte footprint of the index payload: 4 bytes
// per label entry plus the two offset arrays. This matches how the
// paper reports "Index Size" in Table VI. The backward in-labels are
// derived at load time and never serialized, so they are not counted.
func (x *Index) SizeBytes() int64 {
	return 4*x.Entries() + 8*int64(len(x.inOff)+len(x.outOff))
}

// MaxLabelSize returns Δ = max_v max(|L_in(v)|, |L_out(v)|).
func (x *Index) MaxLabelSize() int {
	best := 0
	for v := 0; v < x.n; v++ {
		if l := int(x.inOff[v+1] - x.inOff[v]); l > best {
			best = l
		}
		if l := int(x.outOff[v+1] - x.outOff[v]); l > best {
			best = l
		}
	}
	return best
}

// AvgLabelSize returns the mean of (|L_in(v)| + |L_out(v)|) / 2.
func (x *Index) AvgLabelSize() float64 {
	if x.n == 0 {
		return 0
	}
	return float64(x.Entries()) / float64(2*x.n)
}

// Equal reports whether two indexes contain exactly the same label
// sets (the paper's central claim: DRL variants reproduce TOL's index
// bit for bit).
func (x *Index) Equal(y *Index) bool {
	if x.n != y.n {
		return false
	}
	eq := func(aOff, bOff []int64, aLab, bLab []order.Rank) bool {
		if len(aLab) != len(bLab) {
			return false
		}
		for v := 0; v <= x.n; v++ {
			if aOff[v] != bOff[v] {
				return false
			}
		}
		for i := range aLab {
			if aLab[i] != bLab[i] {
				return false
			}
		}
		return true
	}
	return eq(x.inOff, y.inOff, x.inLab, y.inLab) &&
		eq(x.outOff, y.outOff, x.outLab, y.outLab)
}

// Diff returns a short description of the first difference between two
// indexes, or "" if they are equal. Used by tests for readable
// failures.
func (x *Index) Diff(y *Index) string {
	if x.n != y.n {
		return fmt.Sprintf("vertex count %d vs %d", x.n, y.n)
	}
	for v := graph.VertexID(0); int(v) < x.n; v++ {
		if d := diffLabels("L_in", v, x.InLabels(v), y.InLabels(v)); d != "" {
			return d
		}
		if d := diffLabels("L_out", v, x.OutLabels(v), y.OutLabels(v)); d != "" {
			return d
		}
	}
	return ""
}

func diffLabels(kind string, v graph.VertexID, a, b []order.Rank) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s(v%d): %v vs %v", kind, v, a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("%s(v%d): %v vs %v", kind, v, a, b)
		}
	}
	return ""
}
