package label

import (
	"bytes"
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
)

// FuzzRead: arbitrary bytes must either fail cleanly or yield an
// index whose queries cannot panic, whose backward in-labels hold each
// forward in-label entry (t, r) exactly once in L_in⁻(r), and whose
// set sizes match a count over the forward label sets.
func FuzzRead(f *testing.F) {
	b := NewBuilder(order.FromRanks([]order.Rank{0, 1, 2}))
	b.AddIn(1, 0)
	b.AddIn(2, 0)
	b.AddOut(0, 0)
	b.AddOut(2, 2)
	x := b.Finalize()
	var seed bytes.Buffer
	if _, err := x.WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, input []byte) {
		idx, err := Read(bytes.NewReader(input))
		if err != nil {
			return
		}
		n := idx.NumVertices()
		for v := 0; v < n && v < 8; v++ {
			for w := 0; w < n && w < 8; w++ {
				idx.Reachable(graph.VertexID(v), graph.VertexID(w))
			}
		}
		_ = idx.MaxLabelSize()
		_ = idx.SizeBytes()
		checkBackward(t, idx)
		for s := 0; s < n && s < 8; s++ {
			want := 0
			for w := 0; w < n; w++ {
				if sharesRank(idx.OutLabels(graph.VertexID(s)), idx.InLabels(graph.VertexID(w))) {
					want++
				}
			}
			if got := idx.ReachableSetSize(graph.VertexID(s)); got != want {
				t.Fatalf("ReachableSetSize(%d) = %d, label sets say %d", s, got, want)
			}
		}
	})
}

// checkBackward asserts the backward in-labels are exactly the forward
// in-label entries regrouped by rank: every (t, r) with r ∈ L_in(t)
// appears in L_in⁻(r) as often as in L_in(t), and each L_in⁻(r) is
// ascending.
func checkBackward(t *testing.T, x *Index) {
	t.Helper()
	type entry struct {
		t graph.VertexID
		r order.Rank
	}
	want := make(map[entry]int)
	for v := 0; v < x.n; v++ {
		for _, r := range x.InLabels(graph.VertexID(v)) {
			want[entry{graph.VertexID(v), r}]++
		}
	}
	got := make(map[entry]int)
	for r := 0; r+1 < len(x.backOff); r++ {
		list := x.backIn[x.backOff[r]:x.backOff[r+1]]
		for i, v := range list {
			if i > 0 && list[i-1] > v {
				t.Fatalf("L_in⁻(%d) not ascending: %v", r, list)
			}
			got[entry{v, order.Rank(r)}]++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("backward lists hold %d distinct entries, forward %d", len(got), len(want))
	}
	for e, c := range want {
		if got[e] != c {
			t.Fatalf("entry (t=%d, r=%d): %d times in L_in⁻(r), %d in L_in(t)", e.t, e.r, got[e], c)
		}
	}
}

// sharesRank reports whether two rank lists share an element, with no
// assumption of sortedness (Read does not check it).
func sharesRank(a, b []order.Rank) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// TestBackwardLinks: every construction path of a complete index —
// Freeze, FromBackward, Read — links the backward in-labels, while a
// budgeted index carries none.
func TestBackwardLinks(t *testing.T) {
	x := randomIndex(t, 30, 4)
	checkBackward(t, x)
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkBackward(t, y)
	checkBackward(t, FromBackward(order.FromRanks([]order.Rank{1, 0, 2}),
		[][]graph.VertexID{{2, 0}, {0}, {}}, [][]graph.VertexID{{1}, {}, {}}))

	g := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}})
	l := NewLists(order.FromRanks([]order.Rank{0, 1}), [][]order.Rank{{0}, {0}}, [][]order.Rank{{0}, {1}})
	b := NewBudgeted(l, g, 1, []bool{true, true}, []bool{true, true})
	if b.backOff != nil || b.backIn != nil {
		t.Fatal("budgeted index holds backward in-labels")
	}
	if got := b.ReachableWeight(0, nil); got != 2 {
		t.Fatalf("budgeted ReachableWeight(0) = %d, want 2", got)
	}
}
