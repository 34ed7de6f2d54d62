package tol

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
)

func randomDigraph(n, m int, seed int64) *graph.Digraph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{
			U: graph.VertexID(rng.Intn(n)),
			V: graph.VertexID(rng.Intn(n)),
		})
	}
	return graph.FromEdges(n, edges)
}

// TestBudgetedMatchesBFSOracle is the central correctness pin of the
// memory-bounded mode: for every budget — including budget 1, where
// almost every list overflows and nearly all queries take the guarded
// BFS fallback — every pair must answer exactly as an online BFS.
func TestBudgetedMatchesBFSOracle(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Digraph
	}{
		{"paper", graph.PaperExample()},
		{"sparse", randomDigraph(60, 75, 1)},
		{"dense", randomDigraph(40, 400, 2)},
		{"cyclic", randomDigraph(30, 120, 3)},
		{"dag-ish", randomDigraph(80, 100, 4)},
	}
	for _, tc := range graphs {
		ord := order.Compute(tc.g)
		full := Build(tc.g, ord)
		for _, budget := range []int{1, 2, 3, 8, 1 << 20} {
			t.Run(fmt.Sprintf("%s/b%d", tc.name, budget), func(t *testing.T) {
				b, err := BuildBudgeted(tc.g, ord, budget, nil)
				if err != nil {
					t.Fatalf("BuildBudgeted: %v", err)
				}
				n := tc.g.NumVertices()
				if budget >= n {
					// An effectively unbounded budget must reproduce the
					// full TOL index exactly and overflow nowhere.
					if d := full.Diff(b); d != "" {
						t.Fatalf("unbounded budget diverged from TOL: %s", d)
					}
					in, out := b.Overflowed()
					if in != 0 || out != 0 {
						t.Fatalf("unbounded budget overflowed: in=%d out=%d", in, out)
					}
				}
				if got := b.MaxLabelSize(); got > budget {
					t.Fatalf("MaxLabelSize = %d exceeds budget %d", got, budget)
				}
				for s := graph.VertexID(0); int(s) < n; s++ {
					for u := graph.VertexID(0); int(u) < n; u++ {
						want := graph.Reachable(tc.g, s, u)
						if got := b.Reachable(s, u); got != want {
							t.Fatalf("q(%d,%d) = %v, want %v (budget %d)", s, u, got, want, budget)
						}
					}
				}
			})
		}
	}
}

func TestBudgetedBatchMatchesSingle(t *testing.T) {
	g := randomDigraph(50, 200, 9)
	b, err := BuildBudgeted(g, order.Compute(g), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	batch := make([]label.Pair, 0, 300)
	for i := 0; i < 300; i++ {
		batch = append(batch, label.Pair{
			S: graph.VertexID(rng.Intn(50)), T: graph.VertexID(rng.Intn(50)),
		})
	}
	got := b.ReachableBatch(batch)
	for i, p := range batch {
		if want := b.Reachable(p.S, p.T); got[i] != want {
			t.Fatalf("batch[%d] q(%d,%d) = %v, want %v", i, p.S, p.T, got[i], want)
		}
	}
}

func TestBudgetedRejectsBadBudget(t *testing.T) {
	g := graph.PaperExample()
	for _, budget := range []int{0, -3} {
		if _, err := BuildBudgeted(g, order.Compute(g), budget, nil); err == nil {
			t.Errorf("budget %d accepted", budget)
		}
	}
}

func TestBudgetedConcurrentQueries(t *testing.T) {
	// The fallback-BFS scratch is pooled; hammer it from multiple
	// goroutines (run with -race in CI) against precomputed answers.
	g := randomDigraph(40, 150, 11)
	ord := order.Compute(g)
	b, err := BuildBudgeted(g, ord, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	want := make([]bool, n*n)
	for s := 0; s < n; s++ {
		for u := 0; u < n; u++ {
			want[s*n+u] = graph.Reachable(g, graph.VertexID(s), graph.VertexID(u))
		}
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 4000; i++ {
				s, u := rng.Intn(n), rng.Intn(n)
				if got := b.Reachable(graph.VertexID(s), graph.VertexID(u)); got != want[s*n+u] {
					done <- fmt.Errorf("worker %d: q(%d,%d) = %v, want %v", w, s, u, got, want[s*n+u])
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
