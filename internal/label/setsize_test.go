package label_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
	"repro/internal/tol"
)

// descendants counts the vertices s reaches (s included) by BFS.
func descendants(g *graph.Digraph, s graph.VertexID) int {
	seen := make([]bool, g.NumVertices())
	seen[s] = true
	queue := []graph.VertexID{s}
	for head := 0; head < len(queue); head++ {
		for _, w := range g.OutNeighbors(queue[head]) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return len(queue)
}

// checkSetSizes asserts ReachableSetSize equals the BFS descendant
// count for every source.
func checkSetSizes(t *testing.T, name string, x *label.Index, g *graph.Digraph) {
	t.Helper()
	for s := graph.VertexID(0); int(s) < g.NumVertices(); s++ {
		if got, want := x.ReachableSetSize(s), descendants(g, s); got != want {
			t.Fatalf("%s: ReachableSetSize(%d) = %d, BFS says %d", name, s, got, want)
		}
	}
}

func randomDAG(rng *rand.Rand, n, m int) *graph.Digraph {
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		edges = append(edges, graph.Edge{U: graph.VertexID(u), V: graph.VertexID(v)})
	}
	return graph.FromEdges(n, edges)
}

func TestReachableSetSizeRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(80)
		g := randomDAG(rng, n, rng.Intn(3*n))
		checkSetSizes(t, "random DAG", tol.BuildDefault(g), g)
	}
}

// TestReachableSetSizeSourceReachesAll: a source above a random DAG
// reaches every vertex, so its backward walk covers the whole ID space.
func TestReachableSetSizeSourceReachesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 60
	edges := []graph.Edge{}
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: 0, V: graph.VertexID(v)})
		if w := v + 1 + rng.Intn(n); w < n {
			edges = append(edges, graph.Edge{U: graph.VertexID(v), V: graph.VertexID(w)})
		}
	}
	g := graph.FromEdges(n, edges)
	x := tol.BuildDefault(g)
	if got := x.ReachableSetSize(0); got != n {
		t.Fatalf("ReachableSetSize(root) = %d, want all %d vertices", got, n)
	}
	checkSetSizes(t, "rooted DAG", x, g)
}

// TestReachableSetSizeEmptyLabels: a vertex with no labels reaches
// nothing by the index and is reached by nothing; every count equals
// the pairwise label answer summed over all targets.
func TestReachableSetSizeEmptyLabels(t *testing.T) {
	ord := order.FromRanks([]order.Rank{0, 1, 2, 3})
	in := [][]order.Rank{{0}, {0, 1}, {}, {0, 3}}
	out := [][]order.Rank{{0}, {1}, {}, {3}}
	x := label.FromLists(ord, in, out)
	if got := x.ReachableSetSize(2); got != 0 {
		t.Fatalf("ReachableSetSize(empty) = %d, want 0", got)
	}
	for s := graph.VertexID(0); s < 4; s++ {
		want := 0
		for d := graph.VertexID(0); d < 4; d++ {
			if x.Reachable(s, d) {
				want++
			}
		}
		if got := x.ReachableSetSize(s); got != want {
			t.Fatalf("ReachableSetSize(%d) = %d, pairwise answers say %d", s, got, want)
		}
	}
}

// TestReachableSetSizeAfterReadIndex: an index read back with Read
// derives the same backward lists the built one holds.
func TestReachableSetSizeAfterReadIndex(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(14)), 120, 300)
	var buf bytes.Buffer
	if _, err := tol.BuildDefault(g).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := label.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkSetSizes(t, "read back", y, g)
}

// TestReachableSetSizeCondensedRoot: on cyclic graphs the root API
// counts over the original vertex space, weighting each reached
// component by its size — for full and budgeted builds alike.
func TestReachableSetSizeCondensedRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(60)
		var edges []reachlab.Edge
		var dedges []graph.Edge
		for k := rng.Intn(3 * n); k > 0; k-- {
			u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
			edges = append(edges, reachlab.Edge{From: u, To: v})
			dedges = append(dedges, graph.Edge{U: u, V: v})
		}
		g := reachlab.NewGraph(n, edges)
		dg := graph.FromEdges(n, dedges)
		for _, opts := range []reachlab.Options{{CondenseSCC: true}, {CondenseSCC: true, LabelBudget: 2}} {
			x, err := reachlab.Build(context.Background(), g, opts)
			if err != nil {
				t.Fatal(err)
			}
			for s := reachlab.VertexID(0); int(s) < n; s++ {
				if got, want := x.ReachableSetSize(s), descendants(dg, s); got != want {
					t.Fatalf("trial %d %+v: ReachableSetSize(%d) = %d, BFS says %d", trial, opts, s, got, want)
				}
			}
		}
	}
}

// sink keeps the benchmarked counts observable.
var sink int

// BenchmarkReachableSetSize times the count kernel on three shapes:
// the serving mix (zipf sources counted down from the newest vertex of
// a citation graph, where answers are small), the worst single source
// of the reversed citation graph (it reaches about a third of all
// vertices), and a condensed knowledge graph through the root API.
// The indexes are built once, before the timed sub-benchmarks.
func BenchmarkReachableSetSize(b *testing.B) {
	citation, err := gen.Generate(gen.Params{Family: gen.Citation, N: 200_000, AvgDegree: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}

	x := tol.BuildDefault(citation)
	n := x.NumVertices()
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, uint64(n-1))
	zipfSources := make([]graph.VertexID, 4096)
	for i := range zipfSources {
		zipfSources[i] = graph.VertexID(n - 1 - int(zipf.Uint64()))
	}

	rev := citation.Inverse()
	rx := tol.BuildDefault(rev)
	best, bestCount := graph.VertexID(0), -1
	for s := graph.VertexID(0); int(s) < n; s++ {
		if len(rev.InNeighbors(s)) != 0 {
			continue // an in-neighbor of s reaches strictly more
		}
		if c := rx.ReachableSetSize(s); c > bestCount {
			best, bestCount = s, c
		}
	}

	kg, err := reachlab.GenerateGraph("knowledge", 50_000, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	kx, err := reachlab.Build(context.Background(), kg, reachlab.Options{CondenseSCC: true})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	kSources := make([]reachlab.VertexID, 4096)
	for i := range kSources {
		kSources[i] = reachlab.VertexID(rng.Intn(kg.NumVertices()))
	}

	b.Run("citation-200k-zipf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = x.ReachableSetSize(zipfSources[i%len(zipfSources)])
		}
	})
	b.Run("citation-200k-reversed-max", func(b *testing.B) {
		b.ReportMetric(float64(bestCount), "reached")
		for i := 0; i < b.N; i++ {
			sink = rx.ReachableSetSize(best)
		}
	})
	b.Run("knowledge-50k-condensed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = kx.ReachableSetSize(kSources[i%len(kSources)])
		}
	})
}
