package reachlab

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/wal"
)

func lineGraph(t *testing.T, n int) *Graph {
	t.Helper()
	var edges []Edge
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{From: VertexID(i), To: VertexID(i + 1)})
	}
	return NewGraph(n, edges)
}

// newUpdateServer wires the full mutation path over g: WAL in a temp
// dir, updater, handler serving the replayed snapshot.
func newUpdateServer(t *testing.T, g *Graph, opts UpdaterOptions) (*QueryHandler, *Updater, *wal.Log) {
	t.Helper()
	log, err := wal.Open(filepath.Join(t.TempDir(), "edges.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	u, err := NewUpdater(g, log, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := NewQueryHandlerOpts(u.Snapshot(), ServeOptions{})
	h.EnableUpdates(u)
	u.Start(h)
	t.Cleanup(u.Close)
	return h, u, log
}

func postEdge(t *testing.T, srv *httptest.Server, op string, u, v int) edgeResponse {
	t.Helper()
	body, _ := json.Marshal(edgeRequest{Op: op, U: int64(u), V: int64(v)})
	resp, err := http.Post(srv.URL+"/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /edges %s(%d,%d): status %d", op, u, v, resp.StatusCode)
	}
	var ack edgeResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// waitEpoch polls until the handler serves at least epoch, failing
// after a generous deadline.
func waitEpoch(t *testing.T, h *QueryHandler, epoch uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for h.Epoch() < epoch {
		if time.Now().After(deadline) {
			t.Fatalf("epoch %d never arrived (at %d)", epoch, h.Epoch())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUpdaterMutationVisible: a POST /edges ack names an epoch; once
// the handler serves that epoch, the write is visible to queries.
func TestUpdaterMutationVisible(t *testing.T) {
	g := lineGraph(t, 10)
	h, u, _ := newUpdateServer(t, g, UpdaterOptions{RefreshEvery: 5 * time.Millisecond})
	srv := httptest.NewServer(h)
	defer srv.Close()

	if h.Index().Reachable(9, 0) {
		t.Fatal("line graph should not reach backwards")
	}
	ack := postEdge(t, srv, "insert", 9, 0)
	if ack.Seq != 1 {
		t.Fatalf("first append got seq %d", ack.Seq)
	}
	waitEpoch(t, h, ack.Epoch)
	// Query via HTTP so the epoch header is exercised too.
	resp, err := http.Get(srv.URL + "/reach?s=9&t=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got reachResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !got.Reachable {
		t.Fatalf("edge (9,0) not visible at epoch %s", resp.Header.Get(EpochHeader))
	}
	if e, _ := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64); e < ack.Epoch {
		t.Fatalf("answered epoch %d below promised %d", e, ack.Epoch)
	}
	// The delete round-trips.
	ack = postEdge(t, srv, "delete", 9, 0)
	waitEpoch(t, h, ack.Epoch)
	if h.Index().Reachable(9, 0) {
		t.Fatal("deleted edge still visible")
	}
	if s := u.Stats(); s.AppliedSeq != 2 || s.SeqLag != 0 {
		t.Fatalf("stats after drain: %+v", s)
	}
}

// TestUpdaterEpochPromiseExact: the acknowledged epoch is exactly the
// first epoch containing the write — never earlier, never later —
// across a burst larger than one refresh batch.
func TestUpdaterEpochPromiseExact(t *testing.T) {
	g := lineGraph(t, 50)
	_, u, _ := newUpdateServer(t, g, UpdaterOptions{
		RefreshEvery: 2 * time.Millisecond,
		RefreshBatch: 3,
	})

	type promise struct{ seq, epoch uint64 }
	var acks []promise
	for i := 0; i < 20; i++ {
		// Distinct forward skip-edges: all effective inserts.
		seq, epoch, err := u.Apply(true, VertexID(i), VertexID(i+2))
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, promise{seq, epoch})
	}
	// Wait for the full drain.
	deadline := time.Now().Add(10 * time.Second)
	for u.AppliedSeq() < acks[len(acks)-1].seq {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never drained: applied %d", u.AppliedSeq())
		}
		time.Sleep(time.Millisecond)
	}
	for _, a := range acks {
		cut, ok := u.EpochSeq(a.epoch)
		if !ok {
			t.Fatalf("promised epoch %d for seq %d never materialized", a.epoch, a.seq)
		}
		if cut < a.seq {
			t.Fatalf("epoch %d cut at %d excludes promised seq %d", a.epoch, cut, a.seq)
		}
		if prev, ok := u.EpochSeq(a.epoch - 1); ok && prev >= a.seq {
			t.Fatalf("seq %d already present at epoch %d (cut %d), promised %d",
				a.seq, a.epoch-1, prev, a.epoch)
		}
	}
}

// TestUpdaterRecovery: acknowledged writes survive a crash — a new
// updater over the same WAL replays them all into its snapshot.
func TestUpdaterRecovery(t *testing.T) {
	g := lineGraph(t, 10)
	path := filepath.Join(t.TempDir(), "edges.wal")
	log, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Long refresh interval: the writes are acked but never applied,
	// mimicking a crash between ack and refresh.
	u, err := NewUpdater(g, log, UpdaterOptions{RefreshEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	h := NewQueryHandlerOpts(u.Snapshot(), ServeOptions{})
	h.EnableUpdates(u)
	u.Start(h)
	if _, _, err := u.Apply(true, 9, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := u.Apply(true, 5, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := u.Apply(false, 0, 1); err != nil {
		t.Fatal(err)
	}
	u.Close()
	log.Close() // crash: refresher never ran, snapshot never swapped

	log2, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	u2, err := NewUpdater(g, log2, UpdaterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer u2.Close()
	idx := u2.Snapshot()
	if !idx.Reachable(9, 0) || !idx.Reachable(5, 0) {
		t.Fatal("acknowledged inserts lost across restart")
	}
	if idx.Reachable(0, 1) {
		t.Fatal("acknowledged delete lost across restart")
	}
	if u2.AppliedSeq() != 3 {
		t.Fatalf("replay frontier %d, want 3", u2.AppliedSeq())
	}
}

// TestUpdaterRejects: malformed requests fail with 4xx and never
// reach the log.
func TestUpdaterRejects(t *testing.T) {
	g := lineGraph(t, 4)
	h, _, log := newUpdateServer(t, g, UpdaterOptions{RefreshEvery: time.Hour})
	srv := httptest.NewServer(h)
	defer srv.Close()

	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/edges", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		body string
		want int
	}{
		{`{"op":"insert","u":0,"v":99}`, http.StatusBadRequest},         // out of range
		{`{"op":"upsert","u":0,"v":1}`, http.StatusBadRequest},          // bad op
		{`{"op":"insert","u":-1,"v":1}`, http.StatusBadRequest},         // negative
		{`{"op":"insert","u":8589934592,"v":1}`, http.StatusBadRequest}, // > int32
		{`not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if got := post(c.body); got != c.want {
			t.Errorf("POST %s: status %d, want %d", c.body, got, c.want)
		}
	}
	if log.LastSeq() != 0 {
		t.Fatalf("rejected requests reached the log: seq %d", log.LastSeq())
	}
	// A handler without an updater refuses mutations.
	plain := httptest.NewServer(NewQueryHandlerOpts(h.Index(), ServeOptions{}))
	defer plain.Close()
	resp, err := http.Post(plain.URL+"/edges", "application/json",
		bytes.NewReader([]byte(`{"op":"insert","u":0,"v":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("updates-disabled replica answered %d, want 501", resp.StatusCode)
	}
}

// TestUpdaterStatsBlock: /stats grows an "updates" block when the
// mutation path is enabled.
func TestUpdaterStatsBlock(t *testing.T) {
	g := lineGraph(t, 6)
	h, _, _ := newUpdateServer(t, g, UpdaterOptions{RefreshEvery: 5 * time.Millisecond})
	srv := httptest.NewServer(h)
	defer srv.Close()

	ack := postEdge(t, srv, "insert", 5, 0)
	waitEpoch(t, h, ack.Epoch)
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Updates *UpdaterStats `json:"updates"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Updates == nil {
		t.Fatal("/stats has no updates block")
	}
	if doc.Updates.LastSeq != 1 || doc.Updates.AppliedSeq != 1 {
		t.Fatalf("updates block %+v", doc.Updates)
	}
	if doc.Updates.Repairs+doc.Updates.Rebuilds != 1 {
		t.Fatalf("update not counted as repair or rebuild: %+v", doc.Updates)
	}
}

// TestUpdaterRebuildCounter: an update with graph-spanning affected
// sets takes the rebuild fallback and the counter says so — the
// regression test for the DynamicIndex doc promise, at the serving
// layer where the soak asserts it.
func TestUpdaterRebuildCounter(t *testing.T) {
	// Two long chains (see internal/tol tests): bridging them forces
	// ANC×DES past 8·(n+m).
	const half = 60
	var edges []Edge
	for i := 0; i < half-1; i++ {
		edges = append(edges, Edge{From: VertexID(i), To: VertexID(i + 1)})
		edges = append(edges, Edge{From: VertexID(half + i), To: VertexID(half + i + 1)})
	}
	g := NewGraph(2*half, edges)
	h, u, _ := newUpdateServer(t, g, UpdaterOptions{RefreshEvery: 5 * time.Millisecond})

	_, epoch, err := u.Apply(true, half-1, half)
	if err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, h, epoch)
	if s := u.Stats(); s.Rebuilds != 1 {
		t.Fatalf("bridge insert did not rebuild: %+v", s)
	}
	if !h.Index().Reachable(0, 2*half-1) {
		t.Fatal("bridge not visible after rebuild")
	}
	// A leaf update stays on the repair path.
	_, epoch, err = u.Apply(true, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, h, epoch)
	if s := u.Stats(); s.Rebuilds != 1 || s.Repairs != 1 {
		t.Fatalf("leaf insert stats: %+v", s)
	}
}
