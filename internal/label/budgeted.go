package label

import (
	"sync"

	"repro/internal/graph"
)

// A budgeted index is an Index whose per-vertex label lists are capped
// at a fixed width (the FERRARI idea adapted to TOL labels): when a
// graph's full 2-hop cover would not fit in memory, the builder keeps
// at most `limit` ranks per vertex per direction and records, per vertex
// and direction, whether the list is complete — i.e. the builder never
// refused an addition the pruning rule asked for. A complete index is
// the degenerate case with no overflow, and carries no budget at all
// (Index.b is nil).
//
// Query semantics rest on two facts:
//
//   - Every stored entry is factual (rank r ∈ L_out(v) still means v
//     reaches the rank-r vertex; capping elsewhere only weakens
//     pruning, which adds entries, never invents them), so a label hit
//     is always a sound "reachable".
//   - The 2-hop cover property survives capping for any pair whose two
//     endpoint lists are both complete: the inductive witness argument
//     of TOL only ever needs additions to those two lists, and a
//     pruning test that blocks such an addition stores its blocking
//     witness in the very list being tested. So a miss with
//     outFull(s) ∧ inFull(t) is a sound "unreachable".
//
// Every other miss is resolved by a guarded BFS over the retained
// graph, pruned by whichever endpoint label is complete. The graph is
// therefore part of a budgeted index: WriteTo refuses it, since the
// file format carries neither the graph nor the completeness flags.
type budget struct {
	g     *graph.Digraph
	limit int
	// inFull[v] / outFull[v] report that L_in(v) / L_out(v) is the
	// complete label set the uncapped build would have produced a
	// superset-witness for (see above), not a truncation.
	inFull, outFull []bool

	scratch sync.Pool // *bfsScratch, reused across queries and goroutines
}

// bfsScratch is the per-query BFS state, epoch-marked so reuse costs
// no clearing: a vertex is visited iff mark[v] == epoch.
type bfsScratch struct {
	mark  []int32
	epoch int32
	queue []graph.VertexID
}

// NewBudgeted assembles a budgeted index from the capped label lists,
// the graph they cover, and the per-vertex completeness flags produced
// by the builder. The graph is retained for fallback queries. The
// lists are frozen without backward in-labels: capped in-labels would
// make them incomplete, and set sizes are counted by BFS instead.
func NewBudgeted(l *Lists, g *graph.Digraph, limit int, inFull, outFull []bool) *Index {
	x := l.freeze()
	x.b = &budget{g: g, limit: limit, inFull: inFull, outFull: outFull}
	x.b.scratch.New = func() any {
		return &bfsScratch{mark: make([]int32, g.NumVertices())}
	}
	return x
}

// Budget returns the per-vertex per-direction label cap, or 0 for a
// complete index.
func (x *Index) Budget() int {
	if x.b == nil {
		return 0
	}
	return x.b.limit
}

// Overflowed returns how many vertices have an incomplete in-label and
// out-label list respectively — the vertices whose queries may need
// the BFS fallback. A complete index has none.
func (x *Index) Overflowed() (in, out int) {
	if x.b == nil {
		return 0, 0
	}
	for v := range x.b.inFull {
		if !x.b.inFull[v] {
			in++
		}
		if !x.b.outFull[v] {
			out++
		}
	}
	return in, out
}

// miss settles q(s, t) after the labels failed to intersect: false on
// a complete index, resolve on a budgeted one. It is small enough to
// inline, so the complete-index miss costs one nil check.
func (x *Index) miss(s, t graph.VertexID) bool {
	return x.b != nil && x.resolve(s, t)
}

// resolve answers a label miss on a budgeted index. Reflexivity comes
// first, since a vertex's own rank may have been capped out of its
// lists; a miss between two complete lists is trusted; the residual
// cases run a BFS pruned by whichever side's labels are complete.
func (x *Index) resolve(s, t graph.VertexID) bool {
	if s == t {
		return true
	}
	if x.b.outFull[s] && x.b.inFull[t] {
		return false
	}
	return x.fallbackBFS(s, t)
}

// getBFS returns pooled BFS scratch with a fresh epoch. Callers must
// return it with x.b.scratch.Put when done.
func (x *Index) getBFS() *bfsScratch {
	sc := x.b.scratch.Get().(*bfsScratch)
	sc.epoch++
	if sc.epoch == 0 { // wrapped: marks are stale, reset once
		clear(sc.mark)
		sc.epoch = 1
	}
	return sc
}

// fallbackBFS resolves a label miss where at least one endpoint list
// overflowed. Three regimes, in order of preference:
//
//   - t's in-label is complete: forward BFS from s; any frontier
//     vertex with a complete out-label is resolved against L_in(t) by
//     one intersection — a hit answers the query, a miss proves that
//     vertex reaches nothing relevant and prunes its subtree.
//   - s's out-label is complete: the mirror image, backward from t.
//   - both endpoints overflowed: a plain forward BFS (rare by
//     construction — only the widest vertices overflow).
func (x *Index) fallbackBFS(s, t graph.VertexID) bool {
	b := x.b
	sc := x.getBFS()
	defer b.scratch.Put(sc)

	backward := b.outFull[s] && !b.inFull[t]
	start, goal := s, t
	var next func(graph.VertexID) []graph.VertexID
	prune := func(graph.VertexID) (hit, cut bool) { return false, false }
	switch {
	case b.inFull[t]:
		next = b.g.OutNeighbors
		prune = func(u graph.VertexID) (hit, cut bool) {
			if !b.outFull[u] {
				return false, false
			}
			// u's out-label is the complete story of what u reaches
			// among label targets; t's in-label is complete too, so
			// this one intersection decides u's whole subtree.
			return intersects(x.OutLabels(u), x.InLabels(t)), true
		}
	case backward:
		start, goal = t, s
		next = b.g.InNeighbors
		prune = func(u graph.VertexID) (hit, cut bool) {
			if !b.inFull[u] {
				return false, false
			}
			return intersects(x.OutLabels(s), x.InLabels(u)), true
		}
	default:
		next = b.g.OutNeighbors
	}

	sc.mark[start] = sc.epoch
	sc.queue = append(sc.queue[:0], start)
	for head := 0; head < len(sc.queue); head++ {
		for _, u := range next(sc.queue[head]) {
			if u == goal {
				return true
			}
			if sc.mark[u] == sc.epoch {
				continue
			}
			sc.mark[u] = sc.epoch
			if hit, cut := prune(u); cut {
				if hit {
					return true
				}
				continue
			}
			sc.queue = append(sc.queue, u)
		}
	}
	return false
}

// descendants runs one unpruned forward BFS from s over the retained
// graph, returning the scratch whose current epoch marks s and every
// vertex it reaches; its queue holds exactly those vertices. The
// caller must Put the scratch back.
func (x *Index) descendants(s graph.VertexID) *bfsScratch {
	sc := x.getBFS()
	sc.mark[s] = sc.epoch
	sc.queue = append(sc.queue[:0], s)
	for head := 0; head < len(sc.queue); head++ {
		for _, u := range x.b.g.OutNeighbors(sc.queue[head]) {
			if sc.mark[u] != sc.epoch {
				sc.mark[u] = sc.epoch
				sc.queue = append(sc.queue, u)
			}
		}
	}
	return sc
}
