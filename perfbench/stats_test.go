package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: summarize must sort
	}
	return xs
}

func TestPercentilesCarryTheirSampleCounts(t *testing.T) {
	for _, c := range []struct {
		n        int
		p50, p99 float64
		above99  int
	}{
		{n: 100, p50: 50, p99: 99, above99: 1},
		{n: 1000, p50: 500, p99: 990, above99: 10},
		{n: 1, p50: 1, p99: 1, above99: 0},
		{n: 7, p50: 4, p99: 7, above99: 0},
	} {
		d := summarize(seq(c.n))
		if d.n != c.n || d.p50 != c.p50 || d.p99 != c.p99 || d.above99 != c.above99 {
			t.Errorf("n=%d: got %+v, want p50 %v p99 %v with %d beyond", c.n, d, c.p50, c.p99, c.above99)
		}
	}
	if d := summarize(nil); d.n != 0 || d.p99 != 0 {
		t.Errorf("empty sample: %+v", d)
	}
	if v, above := rank([]float64{1, 2, 3, 4}, 0.5); v != 2 || above != 2 {
		t.Errorf("rank(0.5) of four = %v with %d above, want 2 with 2", v, above)
	}
}

func TestMedianAndMean(t *testing.T) {
	xs := []float64{5, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if m := median([]float64{9, 1, 4}); m != 4 {
		t.Errorf("odd median = %v, want 4", m)
	}
	if m := mean(xs); m != 2.75 {
		t.Errorf("mean = %v, want 2.75", m)
	}
	if median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty median or mean not 0")
	}
}

// TestOpenLoopChargesStallsToLaterOps drives the open-loop pacer on a
// fake clock: ops are due every 100 ms, each takes 10 ms, and op 2
// stalls for 350 ms. The ops queued behind the stall must be sent
// late and timed from their due time, so the stall shows in their
// latency too.
func TestOpenLoopChargesStallsToLaterOps(t *testing.T) {
	const ms = int64(1e6)
	var clock int64
	ol := openLoop{
		rate:  10,
		now:   func() int64 { return clock },
		sleep: func(ns int64) { clock += ns },
	}
	recs := ol.run(0, 800*ms, func(k int) writeRec {
		if k == 2 {
			clock += 350 * ms
		} else {
			clock += 10 * ms
		}
		return writeRec{ok: true}
	})
	if len(recs) != 8 {
		t.Fatalf("ran %d ops in 800 ms at 10/s, want 8", len(recs))
	}
	type want struct{ due, sent, lat int64 }
	wants := []want{
		{0, 0, 10}, {100, 100, 10}, {200, 200, 350},
		{300, 550, 260}, // due during the stall: sent when it ended
		{400, 560, 170},
		{500, 570, 80},
		{600, 600, 10}, // caught up
		{700, 700, 10},
	}
	for k, w := range wants {
		r := recs[k]
		if r.due != w.due*ms || r.sent != w.sent*ms || r.done-r.due != w.lat*ms {
			t.Errorf("op %d: due %d sent %d latency %d ms; want %d %d %d", k,
				r.due/ms, r.sent/ms, (r.done-r.due)/ms, w.due, w.sent, w.lat)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := &span{start: 0, end: 100}
	kids := []*span{
		{start: 30, end: 60},
		{start: 10, end: 40},   // overlaps the first: [10,60] covered once
		{start: 80, end: 120},  // clipped to the parent: [80,100]
		{start: 200, end: 300}, // outside: ignored
		{start: 45, end: 50},   // inside another child
	}
	if got := selfTime(parent, kids); got != 30 {
		t.Errorf("self time = %d, want 100 - 50 - 20 = 30", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
	if got := selfTime(parent, []*span{{start: -5, end: 105}}); got != 0 {
		t.Errorf("self time under a covering child = %d, want 0", got)
	}
}

func TestLinkUpstreamsByContainmentThenPairs(t *testing.T) {
	a := &span{id: 1, kind: kindFleet, op: opBatch, start: 0, end: 100, pairs: [][2]int32{{1, 2}, {3, 4}}}
	b := &span{id: 2, kind: kindFleet, op: opBatch, start: 10, end: 110, pairs: [][2]int32{{5, 6}}}
	c := &span{id: 3, kind: kindFleet, op: opCount, start: 10, end: 110, pairs: [][2]int32{{7, -1}}}
	d := &span{id: 4, kind: kindFleet, op: opCount, start: 0, end: 120, pairs: [][2]int32{{8, -1}}}
	ups := []*span{
		{id: 10, op: opBatch, start: 20, end: 50, pairs: [][2]int32{{3, 4}}},         // both contain it: pairs pick a
		{id: 11, op: opBatch, start: 30, end: 60, pairs: [][2]int32{{5, 6}}},         // pairs pick b
		{id: 12, op: opBatch, start: 5, end: 50, pairs: [][2]int32{{9, 9}}},          // only a started by 5
		{id: 13, op: opBatch, start: 20, end: 105, pairs: [][2]int32{{9, 9}}},        // only b lasts to 105
		{id: 14, op: opBatch, start: 20, end: 50, pairs: [][2]int32{{9, 9}}},         // both fit, neither has the pair
		{id: 15, op: opCount, start: 20, end: 50, pairs: [][2]int32{{7, -1}}},        // count matches its source
		{id: 16, op: opReach, start: 20, end: 50, pairs: [][2]int32{{1, 2}}},         // no caller serves reach
		{id: 17, op: opBatch, start: 20, end: 50, pairs: [][2]int32{{1, 2}, {5, 6}}}, // pairs of both: no caller has all
	}
	unlinked := linkUpstreams([]*span{b, a, c, d}, ups)
	want := map[uint64]uint64{10: 1, 11: 2, 12: 1, 13: 2, 14: 0, 15: 3, 16: 0, 17: 0}
	for _, u := range ups {
		if u.parent != want[u.id] {
			t.Errorf("upstream %d linked to %d, want %d", u.id, u.parent, want[u.id])
		}
	}
	if unlinked != 3 {
		t.Errorf("unlinked = %d, want 3", unlinked)
	}
}

func TestParsePairs(t *testing.T) {
	got := parsePairsBody([]byte(`{"pairs":[[3,17],[5,9],[0,-1]]}`))
	want := [][2]int32{{3, 17}, {5, 9}, {0, -1}}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parsed %v, want %v", got, want)
		}
	}
	if p := queryPairs("4", ""); len(p) != 1 || p[0] != [2]int32{4, -1} {
		t.Errorf("count query parsed as %v", p)
	}
	if p := queryPairs("x", "1"); p != nil {
		t.Errorf("bad source parsed as %v", p)
	}
}

func TestVisibilityWaitsForTheEpochAfterTheAck(t *testing.T) {
	reads := []sample{
		{ok: true, end: 10, epoch: 1},
		{ok: true, end: 20, epoch: 1},
		{ok: false, end: 25, epoch: 0}, // failed reads see nothing
		{ok: true, end: 30, epoch: 2},
		{ok: true, end: 40, epoch: 3},
	}
	writes := []writeRec{
		{ok: true, done: 5, epoch: 2},  // first read at epoch >= 2 ends at 30
		{ok: true, done: 35, epoch: 2}, // epoch 2 already served: next read, at 40
		{ok: true, done: 15, epoch: 4}, // never served
		{ok: false, done: 1, epoch: 1}, // not acknowledged: not timed
	}
	lat, invisible := visibility(reads, writes)
	if len(lat) != 2 || lat[0] != 25e-6 || lat[1] != 5e-6 || invisible != 1 {
		t.Errorf("visibility = %v with %d invisible, want [25ns 5ns] in ms and 1", lat, invisible)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmoke runs every workload on tiny graphs, untraced and traced,
// and checks that each run is correct, fails nothing, and prints
// exactly the metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			cfg := newConfig(w.Name, 3, 0.6, trace, t.TempDir(), true)
			var out nopWriter
			res, err := run(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct %v, %d failed of %d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			var got, names []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			for _, m := range want {
				names = append(names, m.Name)
				if g, ok := res.Metrics[m.Name]; ok && g.Unit != m.Unit {
					t.Errorf("%s: %s in %q, BENCHMARK.json says %q", w.Name, m.Name, g.Unit, m.Unit)
				}
			}
			sort.Strings(got)
			sort.Strings(names)
			if len(got) != len(names) {
				t.Errorf("%s trace=%v: printed %v, want %v", w.Name, trace, got, names)
				continue
			}
			for i := range got {
				if got[i] != names[i] {
					t.Errorf("%s trace=%v: printed %v, want %v", w.Name, trace, got, names)
					break
				}
			}
		}
	}
}

type nopWriter struct{}

func (*nopWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestBatchBodyRoundTrips(t *testing.T) {
	pairs := [][2]int32{{3, 17}, {0, 199999}}
	body := appendBatchBody([]byte("stale"), pairs)[len("stale"):]
	if string(body) != `{"pairs":[[3,17],[0,199999]]}` {
		t.Fatalf("body = %s", body)
	}
	got := parsePairsBody(body)
	if len(got) != 2 || got[0] != pairs[0] || got[1] != pairs[1] {
		t.Fatalf("parsed back %v, want %v", got, pairs)
	}
}
