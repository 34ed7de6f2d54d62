package label

import (
	"sync"

	"repro/internal/graph"
)

// One-source sweeps: ReachableFrom amortizes the out-label load the
// way ReachableBatch amortizes sorting. A pairwise loop pays
// O(|L_out(s)| + |L_in(t)|) per target; the sweep marks L_out(s)'s
// ranks into an epoch-stamped scratch table once and then answers each
// target with a single scan of L_in(t) — the out side is read exactly
// once no matter how many targets follow.
//
// ReachableSetSize never looks at targets s does not reach. It walks
// the backward in-label L_in⁻(h) of every hub h ∈ L_out(s) and counts
// each t once, under the first hub of L_out(s) ∩ L_in(t), for
// O(|L_out(s)| + Σ_h |L_in⁻(h)|) — output-sensitive, and never more
// entries than a scan of every in-label. The backward lists cost
// 4(n+1) + 4·|L_in| bytes per complete index. They are derived from
// L_in whenever an index is frozen or read, so they are not part of
// the serialized payload or of SizeBytes (the paper's Table VI
// figure). A budgeted index omits them and counts by BFS.
//
// On a budgeted index a bare mark-table miss is inconclusive, so
// ReachableFrom splits by the completeness of L_out(s):
//
//   - L_out(s) complete: a label hit is a sound true, and each miss
//     goes through resolve — a sound false against a complete
//     L_in(t), the pruned BFS otherwise.
//   - L_out(s) overflowed: every miss would need a fallback, so the
//     whole sweep collapses into one unpruned forward BFS from s —
//     exact by construction and cheaper than per-target fallbacks.

// sweepScratch is the mark table of one sweep, indexed by rank in
// ReachableFrom and by vertex in ReachableWeight, epoch-stamped so
// pool reuse costs no clearing: slot i is marked iff mark[i] == epoch.
type sweepScratch struct {
	mark  []int32
	epoch int32
}

// sweepPool recycles scratch tables across sweeps and goroutines. The
// tables are sized to the largest index seen; a sweep over a
// bigger index allocates afresh and the old table is dropped.
var sweepPool sync.Pool

// getSweep returns a scratch table covering n ranks with a fresh
// epoch. Callers must return it with sweepPool.Put when done.
func getSweep(n int) *sweepScratch {
	sc, _ := sweepPool.Get().(*sweepScratch)
	if sc == nil || len(sc.mark) < n {
		sc = &sweepScratch{mark: make([]int32, n)}
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: marks are stale, reset once
		clear(sc.mark)
		sc.epoch = 1
	}
	return sc
}

// markOut stamps every rank of L_out(s) into the scratch table.
func (x *Index) markOut(sc *sweepScratch, s graph.VertexID) {
	for _, r := range x.OutLabels(s) {
		sc.mark[r] = sc.epoch
	}
}

// hitIn reports whether any rank of L_in(t) is stamped — exactly the
// L_out(s) ∩ L_in(t) ≠ ∅ test against the marked source.
func (x *Index) hitIn(sc *sweepScratch, t graph.VertexID) bool {
	for _, r := range x.InLabels(t) {
		if sc.mark[r] == sc.epoch {
			return true
		}
	}
	return false
}

// ReachableFrom answers q(s, t) for every target, identically to
// calling Reachable(s, t) per target, in O(|L_out(s)| + Σ|L_in(t)|)
// for the whole sweep: L_out(s) is loaded once into the mark table and
// each target costs one scan of its in-label list.
func (x *Index) ReachableFrom(s graph.VertexID, targets []graph.VertexID) []bool {
	res := make([]bool, len(targets))
	if len(targets) == 0 {
		return res
	}
	if x.b != nil && !x.b.outFull[s] {
		sc := x.descendants(s)
		defer x.b.scratch.Put(sc)
		for i, t := range targets {
			res[i] = sc.mark[t] == sc.epoch
		}
		return res
	}
	sc := getSweep(x.n)
	defer sweepPool.Put(sc)
	x.markOut(sc, s)
	for i, t := range targets {
		res[i] = x.hitIn(sc, t) || x.miss(s, t)
	}
	return res
}

// ReachableSetSize returns |{t : q(s, t)}| over the whole ID space:
// the number of true bits ReachableFrom(s, allVertices) would return.
func (x *Index) ReachableSetSize(s graph.VertexID) int {
	return int(x.ReachableWeight(s, nil))
}

// ReachableWeight returns Σ weight[t] over every t with q(s, t); a nil
// weight counts each such t once. It walks L_in⁻(h) for each hub
// h ∈ L_out(s), marking t in a vertex-indexed scratch table the first
// time a hub reaches it. A budgeted index counts by one unpruned BFS
// from s instead: exact regardless of which lists overflowed, O(n + m)
// total, and its queue holds exactly the reached vertices.
func (x *Index) ReachableWeight(s graph.VertexID, weight []int64) int64 {
	if x.b != nil {
		sc := x.descendants(s)
		defer x.b.scratch.Put(sc)
		if weight == nil {
			return int64(len(sc.queue))
		}
		var total int64
		for _, v := range sc.queue {
			total += weight[v]
		}
		return total
	}
	sc := getSweep(x.n)
	defer sweepPool.Put(sc)
	var total int64
	for _, h := range x.OutLabels(s) {
		if int(h) >= len(x.backOff)-1 {
			break // no in-label carries h or any later hub
		}
		for _, t := range x.backIn[x.backOff[h]:x.backOff[h+1]] {
			if sc.mark[t] == sc.epoch {
				continue
			}
			sc.mark[t] = sc.epoch
			if weight == nil {
				total++
			} else {
				total += weight[t]
			}
		}
	}
	return total
}
