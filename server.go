package reachlab

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/qcache"
)

// QueryHandler serves reachability queries from an index over HTTP —
// the paper's deployment: the distributed graph stays put, the
// compact index answers queries from one machine (§I). cmd/drserve
// wraps it into a standalone server; cmd/drrouter fans traffic across
// a fleet of them (DESIGN.md §11).
//
// Endpoints:
//
//	GET  /reach?s=<id>&t=<id>  → {"s":3,"t":17,"reachable":true}
//	POST /reach/batch          → {"count":2,"results":[true,false]}
//	                             body: {"pairs":[[3,17],[5,9]]}
//	GET  /reach/path?s=&t=     → {"s":3,"t":17,"reachable":true,"path":[3,8,17]}
//	GET  /reach/count?s=<id>   → {"s":3,"count":941}
//	POST /reach/from           → {"s":3,"count":2,"results":[true,false,true]}
//	                             body: {"s":3,"targets":[17,9,3]}
//	POST /reach/join           → NDJSON stream of {"s":..,"t":..} pairs,
//	                             then {"done":true,"count":..,"scanned":..}
//	                             body: {"sources":[..],"targets":[..]}
//	POST /admin/reload         → {"epoch":2,"vertices":20000}
//	                             body (optional): {"ref":"other.idx"}
//	GET  /stats                → index statistics
//	GET  /healthz              → 200 ok
//	GET  /metrics              → Prometheus text exposition
//	GET  /trace                → superstep traces (JSON)
//	GET  /debug/pprof/         → net/http/pprof profiles
//
// The handler serves an *epoch* of the index: the frozen flat index
// and its hot-pair cache live together in one immutable serveState
// behind an atomic.Pointer, so a reload (Swap) replaces both as one
// unit and no query ever observes a torn index or a cache entry from
// a different index. Every /reach and /reach/batch response carries
// the serving epoch in the X-Reachlab-Epoch header, /healthz carries
// it too (plus X-Reachlab-Vertices) so a fleet health probe learns it
// for free, and /stats reports index_epoch and index_vertices so
// operators can confirm a reload landed on every replica.
//
// Per-query latency lands in the "reachlab_query_seconds" histogram
// (single queries) and "reachlab_batch_seconds" / "reachlab_batch_pairs"
// (batches); requests and errors are counted per handler in
// "reachlab_http_requests_total" / "reachlab_http_errors_total". With
// the hot-pair cache enabled, every answered pair counts exactly once
// in "reachlab_cache_hits_total" or "reachlab_cache_misses_total", and
// "reachlab_query_pairs_total" counts the pairs themselves, so
// hits + misses == pairs always reconciles (cache counters are summed
// across epochs: each swap starts a fresh cache, CacheStats and /stats
// accumulate the retired ones' totals).
type QueryHandler struct {
	state atomic.Pointer[serveState]
	mux   *http.ServeMux
	obs   *obs.Registry

	// reloadMu serializes Swap/Reload so epochs increment one at a
	// time; queries never take it — they only load the state pointer.
	reloadMu sync.Mutex
	loader   func(ref string) (*Index, error)

	// updater, when set via EnableUpdates, serves POST /edges and the
	// /stats "updates" block (server_update.go). It is bound once at
	// startup, before the handler sees traffic.
	updater *Updater

	// Cache geometry, re-applied to the fresh cache of every epoch.
	cachePairs  int
	cacheShards int
	maxBatch    int
	maxJoin     int

	// Hit/miss totals of retired epochs' caches, folded in at swap
	// time so lifetime counters survive the swap.
	retiredHits   atomic.Int64
	retiredMisses atomic.Int64

	// Hot-path metric handles, resolved once.
	pairsTotal  *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	reloads     *obs.Counter
	epochGauge  *obs.Gauge
	queryHist   *obs.Histogram
	batchHist   *obs.Histogram
	batchPairs  *obs.Histogram
	pathHist    *obs.Histogram
	countHist   *obs.Histogram
	fromHist    *obs.Histogram
	fromTargets *obs.Histogram
	joinHist    *obs.Histogram
	joinResults *obs.Histogram
}

// serveState is one epoch of serving: an immutable index and the
// cache that holds only that index's answers. The pair is swapped
// atomically — a query that loaded epoch k runs entirely against
// epoch k's index and cache.
type serveState struct {
	idx   *Index
	cache *qcache.Cache
	epoch uint64
}

// ServeOptions configures NewQueryHandlerOpts.
type ServeOptions struct {
	// Obs receives request counters and latency histograms; nil
	// disables instrumentation (/metrics and /trace serve empty
	// documents).
	Obs *MetricsRegistry
	// CachePairs sizes the sharded hot-pair answer cache (rounded up
	// to a power of two). Zero disables the cache. Within one epoch
	// the index is immutable, so cached answers never need
	// invalidation; a reload swaps in a fresh cache with the index.
	CachePairs int
	// CacheShards is the shard count of the cache (default 64,
	// rounded up to a power of two).
	CacheShards int
	// MaxBatch caps the pair count of one /reach/batch request and the
	// per-list length of /reach/from and /reach/join; larger requests
	// are refused with 413. Default DefaultMaxBatch.
	MaxBatch int
	// MaxJoin caps the scanned cross product |sources|·|targets| of one
	// /reach/join request (after deduplication); larger joins are
	// refused with 413 before the stream starts. Default DefaultMaxJoin.
	MaxJoin int
	// Loader produces the next index for POST /admin/reload (and
	// drserve's SIGHUP): ref is the request's "ref" field, "" meaning
	// "the default source" (drserve reloads its -idx path). Nil
	// disables the reload endpoint (501).
	Loader func(ref string) (*Index, error)
}

// DefaultMaxBatch is the /reach/batch pair-count cap when
// ServeOptions.MaxBatch is zero.
const DefaultMaxBatch = 8192

// DefaultMaxJoin is the /reach/join cross-product cap when
// ServeOptions.MaxJoin is zero: a million scanned pairs keeps one
// analytics request under a few hundred milliseconds of label sweeps.
const DefaultMaxJoin = 1 << 20

// defaultCacheShards spreads slot traffic across enough shards that
// concurrent clients rarely contend on the same cache line.
const defaultCacheShards = 64

// EpochHeader is the response header carrying the serving epoch on
// /reach, /reach/batch, and /healthz. A fleet router records it from
// health probes and forwards it on proxied answers, so a client can
// tell which index version produced each response.
const EpochHeader = "X-Reachlab-Epoch"

// VerticesHeader carries the served index's vertex count on /healthz,
// so fleet probes learn the ID space without a /stats round trip.
const VerticesHeader = "X-Reachlab-Vertices"

// NewQueryHandlerOpts returns an http.Handler serving queries from
// idx, configured by opts: cache size, batch and join caps, reload
// loader, and metrics registry (a nil opts.Obs disables
// instrumentation; /metrics and /trace then serve empty documents).
func NewQueryHandlerOpts(idx *Index, opts ServeOptions) *QueryHandler {
	shards := opts.CacheShards
	if shards <= 0 {
		shards = defaultCacheShards
	}
	maxBatch := opts.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	maxJoin := opts.MaxJoin
	if maxJoin <= 0 {
		maxJoin = DefaultMaxJoin
	}
	reg := opts.Obs
	h := &QueryHandler{
		mux:         http.NewServeMux(),
		obs:         reg,
		loader:      opts.Loader,
		cachePairs:  opts.CachePairs,
		cacheShards: shards,
		maxBatch:    maxBatch,
		maxJoin:     maxJoin,

		pairsTotal:  reg.Counter("reachlab_query_pairs_total"),
		cacheHits:   reg.Counter("reachlab_cache_hits_total"),
		cacheMisses: reg.Counter("reachlab_cache_misses_total"),
		reloads:     reg.Counter("reachlab_reloads_total"),
		epochGauge:  reg.Gauge("reachlab_index_epoch"),
		queryHist:   reg.Histogram("reachlab_query_seconds", obs.LatencyBuckets),
		batchHist:   reg.Histogram("reachlab_batch_seconds", obs.LatencyBuckets),
		batchPairs:  reg.Histogram("reachlab_batch_pairs", obs.SizeBuckets),
		pathHist:    reg.Histogram("reachlab_path_seconds", obs.LatencyBuckets),
		countHist:   reg.Histogram("reachlab_count_seconds", obs.LatencyBuckets),
		fromHist:    reg.Histogram("reachlab_from_seconds", obs.LatencyBuckets),
		fromTargets: reg.Histogram("reachlab_from_targets", obs.SizeBuckets),
		joinHist:    reg.Histogram("reachlab_join_seconds", obs.LatencyBuckets),
		joinResults: reg.Histogram("reachlab_join_results", obs.SizeBuckets),
	}
	h.state.Store(&serveState{
		idx:   idx,
		cache: qcache.New(opts.CachePairs, shards),
		epoch: 1,
	})
	h.epochGauge.Set(1)
	h.mux.HandleFunc("GET /reach", h.reach)
	h.mux.HandleFunc("POST /reach/batch", h.reachBatch)
	h.mux.HandleFunc("GET /reach/path", h.reachPath)
	h.mux.HandleFunc("GET /reach/count", h.reachCount)
	h.mux.HandleFunc("POST /reach/from", h.reachFrom)
	h.mux.HandleFunc("POST /reach/join", h.reachJoin)
	h.mux.HandleFunc("POST /admin/reload", h.reload)
	h.mux.HandleFunc("POST /edges", h.edges)
	h.mux.HandleFunc("GET /stats", h.stats)
	h.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		st := h.state.Load()
		w.Header().Set(EpochHeader, strconv.FormatUint(st.epoch, 10))
		w.Header().Set(VerticesHeader, strconv.Itoa(st.idx.NumVertices()))
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	obs.Mount(h.mux, reg)
	return h
}

// ServeHTTP implements http.Handler.
func (h *QueryHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// Swap atomically replaces the served index with idx under a fresh
// hot-pair cache, returning the new epoch. In-flight queries finish
// against whichever state they loaded; new queries see the new epoch
// immediately. Safe to call under full query load.
func (h *QueryHandler) Swap(idx *Index) uint64 {
	h.reloadMu.Lock()
	defer h.reloadMu.Unlock()
	return h.swapLocked(idx)
}

func (h *QueryHandler) swapLocked(idx *Index) uint64 {
	cur := h.state.Load()
	h.retiredHits.Add(cur.cache.Hits())
	h.retiredMisses.Add(cur.cache.Misses())
	next := &serveState{
		idx:   idx,
		cache: qcache.New(h.cachePairs, h.cacheShards),
		epoch: cur.epoch + 1,
	}
	h.state.Store(next)
	h.reloads.Inc()
	h.epochGauge.Set(int64(next.epoch))
	return next.epoch
}

// Reload invokes the configured Loader (ref "" = default source) and
// swaps the result in, returning the new epoch. The load runs in the
// caller's goroutine while the old epoch keeps serving; only the
// pointer flip is synchronized. Reloads are serialized — concurrent
// calls queue rather than load in parallel.
func (h *QueryHandler) Reload(ref string) (epoch uint64, vertices int, err error) {
	if h.loader == nil {
		return 0, 0, errors.New("reachlab: no reload loader configured")
	}
	h.reloadMu.Lock()
	defer h.reloadMu.Unlock()
	idx, err := h.loader(ref)
	if err != nil {
		return 0, 0, fmt.Errorf("reachlab: reload: %w", err)
	}
	if idx == nil {
		return 0, 0, errors.New("reachlab: reload loader returned nil index")
	}
	return h.swapLocked(idx), idx.NumVertices(), nil
}

// Epoch returns the current serving epoch (1 for a handler that has
// never reloaded).
func (h *QueryHandler) Epoch() uint64 { return h.state.Load().epoch }

// Index returns the currently served index.
func (h *QueryHandler) Index() *Index { return h.state.Load().idx }

// CacheStats returns the hot-pair cache's lifetime hit and miss
// counts, summed across every epoch served so far (zeros when the
// cache is disabled).
func (h *QueryHandler) CacheStats() (hits, misses int64) {
	return h.cacheTotals(h.state.Load())
}

// cacheTotals sums the lifetime cache counters for one state
// snapshot: the serving cache's live counts plus the totals folded in
// from retired epochs. Callers that already hold a snapshot must use
// this rather than CacheStats, which takes a fresh one — mixing two
// snapshots in one report tears across an epoch swap.
func (h *QueryHandler) cacheTotals(st *serveState) (hits, misses int64) {
	return h.retiredHits.Load() + st.cache.Hits(), h.retiredMisses.Load() + st.cache.Misses()
}

func vertexParam(st *serveState, r *http.Request, name string) (VertexID, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad vertex %q: %v", raw, err)
	}
	if v < 0 || v >= st.idx.NumVertices() {
		return 0, fmt.Errorf("vertex %d out of range [0, %d)", v, st.idx.NumVertices())
	}
	return VertexID(v), nil
}

// fail records an error for the handler and sends the HTTP error.
func (h *QueryHandler) fail(w http.ResponseWriter, handler, msg string, code int) {
	h.obs.Counter(obs.Label("reachlab_http_errors_total", "handler", handler)).Inc()
	http.Error(w, msg, code)
}

// answer resolves one validated pair through st's cache (when
// enabled) or the merge kernel, keeping the hit/miss counters exact:
// every pair consults the cache at most once and counts exactly once.
func (h *QueryHandler) answer(st *serveState, s, t VertexID) bool {
	if st.cache == nil {
		return st.idx.Reachable(s, t)
	}
	if ans, ok := st.cache.Get(int32(s), int32(t)); ok {
		h.cacheHits.Inc()
		return ans
	}
	h.cacheMisses.Inc()
	ans := st.idx.Reachable(s, t)
	st.cache.Put(int32(s), int32(t), ans)
	return ans
}

// setEpoch stamps the serving epoch on a response.
func setEpoch(w http.ResponseWriter, st *serveState) {
	w.Header().Set(EpochHeader, strconv.FormatUint(st.epoch, 10))
}

type reachResponse struct {
	S         VertexID `json:"s"`
	T         VertexID `json:"t"`
	Reachable bool     `json:"reachable"`
}

func (h *QueryHandler) reach(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.obs.Counter(obs.Label("reachlab_http_requests_total", "handler", "reach")).Inc()
	// One state load per request: the whole query — validation, cache,
	// merge — runs against a single epoch.
	st := h.state.Load()
	s, err := vertexParam(st, r, "s")
	if err != nil {
		h.fail(w, "reach", err.Error(), http.StatusBadRequest)
		return
	}
	t, err := vertexParam(st, r, "t")
	if err != nil {
		h.fail(w, "reach", err.Error(), http.StatusBadRequest)
		return
	}
	h.pairsTotal.Inc()
	reachable := h.answer(st, s, t)
	h.queryHist.Observe(time.Since(start).Seconds())
	setEpoch(w, st)
	writeJSON(w, reachResponse{S: s, T: t, Reachable: reachable})
}

type batchRequest struct {
	Pairs [][2]int64 `json:"pairs"`
}

type batchResponse struct {
	Count   int    `json:"count"`
	Results []bool `json:"results"`
}

// maxBatchBytes bounds the request body: the densest legal encoding
// of a pair ("[1,2],") is a handful of bytes, so 32 bytes per allowed
// pair plus slack rejects oversized bodies before they are buffered.
func (h *QueryHandler) maxBatchBytes() int64 {
	return int64(h.maxBatch)*32 + 4096
}

func (h *QueryHandler) reachBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.obs.Counter(obs.Label("reachlab_http_requests_total", "handler", "batch")).Inc()
	st := h.state.Load()
	r.Body = http.MaxBytesReader(w, r.Body, h.maxBatchBytes())
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			h.fail(w, "batch", fmt.Sprintf("request body over %d bytes", tooBig.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		h.fail(w, "batch", fmt.Sprintf("bad batch request: %v", err), http.StatusBadRequest)
		return
	}
	if len(req.Pairs) > h.maxBatch {
		h.fail(w, "batch", fmt.Sprintf("batch of %d pairs exceeds limit %d", len(req.Pairs), h.maxBatch),
			http.StatusRequestEntityTooLarge)
		return
	}
	n := int64(st.idx.NumVertices())
	pairs := make([]Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			h.fail(w, "batch", fmt.Sprintf("pair %d: vertex out of range [0, %d): [%d,%d]", i, n, p[0], p[1]),
				http.StatusBadRequest)
			return
		}
		pairs[i] = Pair{S: VertexID(p[0]), T: VertexID(p[1])}
	}
	h.pairsTotal.Add(int64(len(pairs)))

	results := make([]bool, len(pairs))
	if st.cache == nil {
		results = st.idx.ReachableBatch(pairs)
	} else {
		// Consult the cache per pair; resolve the misses as one batch
		// (keeping the source-locality win) and backfill the cache.
		missPairs := make([]Pair, 0, len(pairs))
		missPos := make([]int, 0, len(pairs))
		for i, p := range pairs {
			if ans, ok := st.cache.Get(int32(p.S), int32(p.T)); ok {
				h.cacheHits.Inc()
				results[i] = ans
				continue
			}
			h.cacheMisses.Inc()
			missPairs = append(missPairs, p)
			missPos = append(missPos, i)
		}
		for k, ans := range st.idx.ReachableBatch(missPairs) {
			p := missPairs[k]
			st.cache.Put(int32(p.S), int32(p.T), ans)
			results[missPos[k]] = ans
		}
	}
	h.batchHist.Observe(time.Since(start).Seconds())
	h.batchPairs.Observe(float64(len(pairs)))
	setEpoch(w, st)
	writeJSON(w, batchResponse{Count: len(results), Results: results})
}

type reloadRequest struct {
	Ref string `json:"ref"`
}

type reloadResponse struct {
	Epoch    uint64 `json:"epoch"`
	Vertices int    `json:"vertices"`
}

// reload serves POST /admin/reload: load the next index via the
// configured Loader and swap it in. Queries keep flowing against the
// old epoch while the load runs; the response reports the new epoch.
func (h *QueryHandler) reload(w http.ResponseWriter, r *http.Request) {
	h.obs.Counter(obs.Label("reachlab_http_requests_total", "handler", "reload")).Inc()
	if h.loader == nil {
		h.fail(w, "reload", "reload not configured on this replica", http.StatusNotImplemented)
		return
	}
	var req reloadRequest
	r.Body = http.MaxBytesReader(w, r.Body, 1<<16)
	// An empty body means "reload the default source".
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		h.fail(w, "reload", fmt.Sprintf("bad reload request: %v", err), http.StatusBadRequest)
		return
	}
	epoch, vertices, err := h.Reload(req.Ref)
	if err != nil {
		h.fail(w, "reload", err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, reloadResponse{Epoch: epoch, Vertices: vertices})
}

func (h *QueryHandler) stats(w http.ResponseWriter, _ *http.Request) {
	h.obs.Counter(obs.Label("reachlab_http_requests_total", "handler", "stats")).Inc()
	stSrv := h.state.Load()
	st := stSrv.idx.Stats()
	bs := stSrv.idx.BuildStats()
	// One snapshot for the whole document: CacheStats would load the
	// state a second time, and a reload between the two loads would
	// report epoch N's capacity with epoch N+1's hit counts.
	hits, misses := h.cacheTotals(stSrv)
	doc := map[string]any{
		"vertices": stSrv.idx.NumVertices(),
		// Epoch bookkeeping: index_epoch advances by one per reload,
		// index_vertices is the ID space of the index serving *now* —
		// together they let an operator confirm a reload landed.
		"index_epoch":    stSrv.epoch,
		"index_vertices": stSrv.idx.NumVertices(),
		"entries":        st.Entries,
		"bytes":          st.Bytes,
		"max_label_size": st.MaxLabelSize,
		"avg_label_size": st.AvgLabelSize,
		// Memory-bounded builds only (Options.LabelBudget): the cap and
		// how many vertices hit it per direction. All zero for full
		// indexes, whose misses never need a fallback.
		"label_budget":   st.LabelBudget,
		"overflowed_in":  st.OverflowedIn,
		"overflowed_out": st.OverflowedOut,
		"cache": map[string]any{
			"capacity": stSrv.cache.Capacity(),
			"shards":   stSrv.cache.Shards(),
			"hits":     hits,
			"misses":   misses,
		},
		// Construction cost and fault-handling activity. All zero for
		// an index loaded from disk (ReadIndex carries no build record).
		"build": map[string]any{
			"method":               string(bs.Method),
			"workers":              bs.Workers,
			"supersteps":           bs.Supersteps,
			"retries":              bs.Retries,
			"recoveries":           bs.Recoveries,
			"checkpoints":          bs.Checkpoints,
			"last_checkpoint_step": bs.LastCheckpointStep,
		},
	}
	// Mutation-path counters, present only when this replica accepts
	// POST /edges (server_update.go).
	if h.updater != nil {
		doc["updates"] = h.updater.Stats()
	}
	writeJSON(w, doc)
}

// writeJSON encodes v directly onto the wire. If encoding fails the
// status line and part of the body are already out, so sending
// http.Error would splice an error page into a half-written JSON
// document; log the failure and drop the connection output instead.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("reachlab: writing JSON response: %v", err)
	}
}
