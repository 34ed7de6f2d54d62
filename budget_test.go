package reachlab

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// TestLabelBudgetOption pins the public memory-bounded mode: answers
// stay exact for any budget, stats report the cap and overflow, and
// the index refuses serialization (it retains the graph).
func TestLabelBudgetOption(t *testing.T) {
	g, err := GenerateGraph("social", 300, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Build(context.Background(), g, Options{Method: MethodTOL})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{1, 4, 1 << 20} {
		idx, err := Build(context.Background(), g, Options{LabelBudget: budget})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		st := idx.Stats()
		if st.LabelBudget != budget {
			t.Fatalf("Stats().LabelBudget = %d, want %d", st.LabelBudget, budget)
		}
		if st.MaxLabelSize > budget {
			t.Fatalf("MaxLabelSize = %d exceeds budget %d", st.MaxLabelSize, budget)
		}
		if budget == 1<<20 && (st.OverflowedIn != 0 || st.OverflowedOut != 0) {
			t.Fatalf("unbounded budget overflowed: %+v", st)
		}
		if budget == 1 && st.OverflowedIn == 0 && st.OverflowedOut == 0 {
			t.Fatal("budget 1 on a social graph should overflow somewhere")
		}
		// Exactness: spot-check every pair of a vertex sample against
		// the full index (itself BFS-verified elsewhere).
		sample := []VertexID{0, 1, 7, 50, 123, 299}
		var pairs []Pair
		for _, s := range sample {
			for _, u := range sample {
				if got, want := idx.Reachable(s, u), full.Reachable(s, u); got != want {
					t.Fatalf("budget %d: q(%d,%d) = %v, want %v", budget, s, u, got, want)
				}
				pairs = append(pairs, Pair{S: s, T: u})
			}
		}
		batch := idx.ReachableBatch(pairs)
		for i, p := range pairs {
			if want := full.Reachable(p.S, p.T); batch[i] != want {
				t.Fatalf("budget %d: batch q(%d,%d) = %v, want %v", budget, p.S, p.T, batch[i], want)
			}
		}
		if _, err := idx.WriteTo(&bytes.Buffer{}); err == nil {
			t.Fatal("budgeted index serialized without error")
		}
		if w := idx.BuildStats().Workers; w != 1 {
			t.Fatalf("budget %d: BuildStats().Workers = %d, want 1 (serial TOL)", budget, w)
		}
	}
}

// TestLabelBudgetRefusesLabelWrite: the label layer itself must refuse
// to serialize a budgeted index. The file format carries neither the
// graph nor the completeness flags, so a capped index read back would
// be taken as complete and its label misses trusted as "unreachable".
func TestLabelBudgetRefusesLabelWrite(t *testing.T) {
	g, err := GenerateGraph("social", 300, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(context.Background(), g, Options{LabelBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.LabelIndex().WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("budgeted label index serialized without error")
	}
}

// TestLabelIndexReflexive pins the invariant the root API's SCC
// mapping relies on: every label index answers q(v, v) true, so a
// same-component pair mapped to (c, c) needs no special case. It holds
// for every build method, plain and condensed, and for a budgeted
// index whose own rank may be capped out of its lists. On a condensed
// cyclic graph, ReachableBatch and ReachableFrom must then answer every
// same-component pair true.
func TestLabelIndexReflexive(t *testing.T) {
	g, err := GenerateGraph("social", 120, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	var variants []Options
	for _, m := range []Method{MethodTOL, MethodDRLBasic, MethodDRL, MethodDRLBatch, MethodDRLShared} {
		variants = append(variants, Options{Method: m, Workers: 3})
	}
	variants = append(variants, Options{LabelBudget: 1})
	for _, opts := range variants {
		for _, condense := range []bool{false, true} {
			opts.CondenseSCC = condense
			name := fmt.Sprintf("%s/budget%d/condense=%v", opts.method(), opts.LabelBudget, condense)
			idx, err := Build(context.Background(), g, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			lab := idx.LabelIndex()
			for v := VertexID(0); int(v) < lab.NumVertices(); v++ {
				if !lab.Reachable(v, v) {
					t.Fatalf("%s: label q(%d,%d) = false", name, v, v)
				}
			}
			if !condense {
				continue
			}
			members := make(map[VertexID][]VertexID)
			for v := VertexID(0); int(v) < g.NumVertices(); v++ {
				c := idx.vertex(v)
				members[c] = append(members[c], v)
			}
			if len(members) == g.NumVertices() {
				t.Fatalf("%s: graph has no cycle to condense", name)
			}
			for _, vs := range members {
				var pairs []Pair
				for _, s := range vs {
					for i, ok := range idx.ReachableFrom(s, vs) {
						if !ok {
							t.Fatalf("%s: ReachableFrom(%d) missed same-component %d", name, s, vs[i])
						}
					}
					for _, u := range vs {
						pairs = append(pairs, Pair{S: s, T: u})
					}
				}
				for i, ok := range idx.ReachableBatch(pairs) {
					if !ok {
						t.Fatalf("%s: batch q(%d,%d) = false in one component", name, pairs[i].S, pairs[i].T)
					}
				}
			}
		}
	}
}

func TestLabelBudgetRequiresTOL(t *testing.T) {
	g, err := GenerateGraph("citation", 50, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(context.Background(), g, Options{LabelBudget: 4, Method: MethodDRLBatch}); err == nil {
		t.Fatal("LabelBudget with a distributed method should be rejected")
	}
	if _, err := Build(context.Background(), g, Options{LabelBudget: 4, Method: MethodTOL}); err != nil {
		t.Fatalf("LabelBudget with explicit MethodTOL: %v", err)
	}
}

func TestLabelBudgetWithCondenseSCC(t *testing.T) {
	g, err := GenerateGraph("social", 120, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(context.Background(), g, Options{LabelBudget: 2, CondenseSCC: true})
	if err != nil {
		t.Fatal(err)
	}
	for s := VertexID(0); int(s) < g.NumVertices(); s += 7 {
		for u := VertexID(0); int(u) < g.NumVertices(); u += 11 {
			if got, want := idx.Reachable(s, u), g.ReachableBFS(s, u); got != want {
				t.Fatalf("q(%d,%d) = %v, want %v", s, u, got, want)
			}
		}
	}
}

func TestGenerateGraphStreamedMatches(t *testing.T) {
	for _, family := range []string{"web", "citation", "social", "knowledge", "biology", "synthetic"} {
		a, err := GenerateGraph(family, 2000, 4, 42)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		b, err := GenerateGraphStreamed(family, 2000, 4, 42)
		if err != nil {
			t.Fatalf("%s streamed: %v", family, err)
		}
		if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
			t.Fatalf("%s: shape differs: %d/%d vs %d/%d", family,
				a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
		}
		for v := VertexID(0); int(v) < a.NumVertices(); v++ {
			ao, bo := a.OutNeighbors(v), b.OutNeighbors(v)
			if len(ao) != len(bo) {
				t.Fatalf("%s: v%d out-degree differs", family, v)
			}
			for i := range ao {
				if ao[i] != bo[i] {
					t.Fatalf("%s: v%d adjacency differs", family, v)
				}
			}
		}
	}
}
