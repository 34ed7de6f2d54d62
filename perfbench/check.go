package main

import (
	"math/rand"
	"sort"
	"sync"

	reachlab "repro"
	"repro/internal/wal"
)

// checkIndexAnswers compares every recorded answer with ref, an index
// of the same graph built by another method, adding mismatches to
// wrong per op. The load has stopped, so the check uses both cores.
func checkIndexAnswers(ref *reachlab.Index, pairs []pairAns, counts []countAns, wrong *[numOps]int64) {
	const parts = 2
	var (
		wg  sync.WaitGroup
		per [parts][numOps]int64
	)
	for k := 0; k < parts; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			checkPart(ref, pairs[len(pairs)*k/parts:len(pairs)*(k+1)/parts],
				counts[len(counts)*k/parts:len(counts)*(k+1)/parts], &per[k])
		}(k)
	}
	wg.Wait()
	for k := range per {
		for o := range per[k] {
			wrong[o] += per[k][o]
		}
	}
}

// checkPart checks one share of the answers. Count answers are
// memoized per source: zipf traffic repeats sources often.
func checkPart(ref *reachlab.Index, pairs []pairAns, counts []countAns, wrong *[numOps]int64) {
	for _, p := range pairs {
		if ref.Reachable(reachlab.VertexID(p.s), reachlab.VertexID(p.t)) != p.ans {
			wrong[p.op]++
		}
	}
	memo := make(map[int32]int32)
	for _, c := range counts {
		want, ok := memo[c.s]
		if !ok {
			want = int32(ref.ReachableSetSize(reachlab.VertexID(c.s)))
			memo[c.s] = want
		}
		if want != c.n {
			wrong[opCount]++
		}
	}
}

// overlayBFS answers reachability over a base graph plus a set of
// extra edges, reusing one visit-stamp array across searches.
type overlayBFS struct {
	g     *reachlab.Graph
	extra map[int32][]int32
	stamp []uint32
	cur   uint32
	queue []int32
}

func newOverlayBFS(g *reachlab.Graph) *overlayBFS {
	return &overlayBFS{g: g, extra: make(map[int32][]int32), stamp: make([]uint32, g.NumVertices())}
}

func (b *overlayBFS) setEdge(u, v int32, present bool) {
	out := b.extra[u]
	for i, w := range out {
		if w == v {
			if !present {
				b.extra[u] = append(out[:i], out[i+1:]...)
			}
			return
		}
	}
	if present {
		b.extra[u] = append(out, v)
	}
}

// search walks forward from s. With t >= 0 it stops once t is found
// and reports 1 or 0; with t < 0 it returns how many vertices s
// reaches, itself included.
func (b *overlayBFS) search(s, t int32) int {
	b.cur++
	b.queue = append(b.queue[:0], s)
	b.stamp[s] = b.cur
	for i := 0; i < len(b.queue); i++ {
		w := b.queue[i]
		if w == t {
			return 1
		}
		visit := func(x int32) {
			if b.stamp[x] != b.cur {
				b.stamp[x] = b.cur
				b.queue = append(b.queue, x)
			}
		}
		for _, x := range b.g.OutNeighbors(reachlab.VertexID(w)) {
			visit(int32(x))
		}
		for _, x := range b.extra[w] {
			visit(x)
		}
	}
	if t >= 0 {
		return 0
	}
	return len(b.queue)
}

// checkAtEpochs verifies a seeded sample of write-mix answers with a
// BFS over the graph each answer's epoch served: the base graph plus
// every logged mutation up to the epoch's sequence number
// (Updater.EpochSeq). It returns the number checked and adds the
// mismatches to wrong; an answer from an epoch the updater cannot map
// counts as wrong.
func checkAtEpochs(g *reachlab.Graph, log *wal.Log, upd *reachlab.Updater, pairs []pairAns, counts []countAns,
	nPairs, nCounts int, seed int64, wrong *[numOps]int64) (checked int, err error) {
	var recs []wal.Record
	if err := log.Replay(0, func(r wal.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		return 0, err
	}
	type item struct {
		epoch uint32
		op    op
		s, t  int32
		want  int // answer as served: 0/1 for pairs, the count for counts
	}
	rng := rand.New(rand.NewSource(seed))
	var items []item
	for _, k := range sampleIdx(rng, len(pairs), nPairs) {
		p := pairs[k]
		a := 0
		if p.ans {
			a = 1
		}
		items = append(items, item{p.epoch, p.op, p.s, p.t, a})
	}
	for _, k := range sampleIdx(rng, len(counts), nCounts) {
		c := counts[k]
		items = append(items, item{c.epoch, opCount, c.s, -1, int(c.n)})
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].epoch < items[j].epoch })

	bfs := newOverlayBFS(g)
	next := 0 // recs[:next] are applied to the overlay
	for _, it := range items {
		seq, ok := upd.EpochSeq(uint64(it.epoch))
		if !ok {
			wrong[it.op]++
			checked++
			continue
		}
		for next < len(recs) && recs[next].Seq <= seq {
			r := recs[next]
			bfs.setEdge(int32(r.U), int32(r.V), r.Op == wal.OpInsert)
			next++
		}
		if bfs.search(it.s, it.t) != it.want {
			wrong[it.op]++
		}
		checked++
	}
	return checked, nil
}

// sampleIdx returns up to k distinct indices below n, ascending.
func sampleIdx(rng *rand.Rand, n, k int) []int {
	if k >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := rng.Perm(n)[:k]
	sort.Ints(idx)
	return idx
}
