package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	reachlab "repro"
)

// replayLimit caps how many recorded calls each replay re-runs; a
// count sweep is a millisecond of work, so counts replay fewer.
const (
	replayLimit      = 2000
	countReplayLimit = 200
)

// kernelNs replays one request's inputs through the label kernel the
// handler calls and returns the time per call: Index.Reachable for a
// lookup, ReachableBatch for a batch, ReachableSetSize for a count.
// Fast calls are repeated so the clock's own cost does not dominate.
func kernelNs(idx *reachlab.Index, o op, pairs [][2]int32) float64 {
	reps := 1
	switch o {
	case opReach:
		reps = 64
	case opBatch:
		reps = 8
	}
	ps := make([]reachlab.Pair, len(pairs))
	for i, p := range pairs {
		ps[i] = reachlab.Pair{S: reachlab.VertexID(p[0]), T: reachlab.VertexID(p[1])}
	}
	start := time.Now()
	for r := 0; r < reps; r++ {
		switch o {
		case opReach:
			sink = idx.Reachable(ps[0].S, ps[0].T)
		case opBatch:
			sink = idx.ReachableBatch(ps)[0]
		case opCount:
			sink = idx.ReachableSetSize(ps[0].S) > 0
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps)
}

// sink keeps replayed kernel calls from being optimized away.
var sink bool

// every returns at most limit items of xs, evenly spaced.
func every[T any](xs []T, limit int) []T {
	if len(xs) <= limit {
		return xs
	}
	out := make([]T, 0, limit)
	step := float64(len(xs)) / float64(limit)
	for i := 0; i < limit; i++ {
		out = append(out, xs[int(float64(i)*step)])
	}
	return out
}

// handlerReplay sends recorded requests through the handler in
// process with httptest and returns µs and heap allocations per call,
// parsing the request and recording the response included (the least
// of three passes, so a background allocation does not count).
func handlerReplay(h http.Handler, o op, inputs [][][2]int32) (us, allocs float64) {
	if len(inputs) == 0 {
		return 0, 0
	}
	targets := make([]string, len(inputs))
	bodies := make([][]byte, len(inputs))
	for i, in := range inputs {
		switch o {
		case opReach:
			targets[i] = "/reach?s=" + itoa(in[0][0]) + "&t=" + itoa(in[0][1])
		case opBatch:
			targets[i], bodies[i] = "/reach/batch", appendBatchBody(nil, in)
		}
	}
	us, allocs = -1, -1
	for pass := 0; pass < 3; pass++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i, target := range targets {
			var r *http.Request
			if bodies[i] == nil {
				r = httptest.NewRequest(http.MethodGet, target, nil)
			} else {
				r = httptest.NewRequest(http.MethodPost, target, bytes.NewReader(bodies[i]))
			}
			h.ServeHTTP(httptest.NewRecorder(), r)
		}
		el := time.Since(start)
		runtime.ReadMemStats(&m1)
		a := float64(m1.Mallocs-m0.Mallocs) / float64(len(targets))
		u := el.Seconds() * 1e6 / float64(len(targets))
		if allocs < 0 || a < allocs {
			allocs = a
		}
		if us < 0 || u < us {
			us = u
		}
	}
	return us, allocs
}

// layerMetrics turns the traced run's spans and counters into the
// per-layer metrics, and prints the layer budget table.
func layerMetrics(rd *runData, ops [numOps]opStats, out io.Writer) map[string]metric {
	d := rd.d
	m := map[string]metric{}
	add := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

	// Span tree: link router upstream calls to their callers first.
	spans := make([]*span, len(rd.spans))
	byID := make(map[uint64]*span, len(rd.spans))
	var fleets, ups []*span
	for i := range rd.spans {
		s := &rd.spans[i]
		spans[i] = s
		byID[s.id] = s
		switch s.kind {
		case kindFleet:
			fleets = append(fleets, s)
		case kindUpstream:
			ups = append(ups, s)
		}
	}
	// A router span carries its caller's pairs, for the linking.
	for _, f := range fleets {
		if c := byID[f.parent]; c != nil {
			f.pairs = c.pairs
		}
	}
	unlinked := linkUpstreams(fleets, ups)
	children := map[uint64][]*span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	inputs := func(s *span) [][2]int32 {
		if s.pairs != nil {
			return s.pairs
		}
		if p := byID[s.parent]; p != nil {
			return p.pairs
		}
		return nil
	}

	idx := d.replicas[0].h.Index()
	var (
		clientSelf, serverDur, serverSelf, fleetSelf [numOps][]float64
		upSelf                                       [numOps][]float64
		upDur, fanout                                []float64
		kernel                                       [numOps][]float64
		clientIn                                     [numOps][][][2]int32
	)
	for _, s := range spans {
		switch s.kind {
		case kindClient:
			clientSelf[s.op] = append(clientSelf[s.op], float64(selfTime(s, children[s.id]))/1e3)
			if s.pairs != nil {
				clientIn[s.op] = append(clientIn[s.op], s.pairs)
			}
		case kindFleet:
			kids := children[s.id]
			fleetSelf[s.op] = append(fleetSelf[s.op], float64(selfTime(s, kids))/1e3)
			if s.op == opBatch {
				fanout = append(fanout, float64(len(kids)))
			}
		case kindUpstream:
			upDur = append(upDur, float64(s.dur())/1e3)
			upSelf[s.op] = append(upSelf[s.op], float64(selfTime(s, children[s.id]))/1e3)
		case kindServer:
			serverDur[s.op] = append(serverDur[s.op], float64(s.dur())/1e3)
		}
	}
	// Server self time: the span minus a replay of its own inputs
	// through the kernel. With the cache on, some of those pairs were
	// hits, so the replay is an upper bound on the kernel's share.
	var serverSpans [numOps][]*span
	for _, s := range spans {
		if s.kind == kindServer && s.op != opEdges {
			if in := inputs(s); in != nil {
				serverSpans[s.op] = append(serverSpans[s.op], s)
			}
		}
	}
	for o := range serverSpans {
		lim := replayLimit
		if op(o) == opCount {
			lim = countReplayLimit
		}
		for _, s := range every(serverSpans[o], lim) {
			k := kernelNs(idx, op(o), inputs(s))
			serverSelf[o] = append(serverSelf[o], (float64(s.dur())-k)/1e3)
		}
	}
	for o := range clientIn {
		lim := replayLimit
		if op(o) == opCount {
			lim = countReplayLimit
		}
		for _, in := range every(clientIn[o], lim) {
			if op(o) == opBatch && len(in) != batchSize {
				continue
			}
			kernel[o] = append(kernel[o], kernelNs(idx, op(o), in))
		}
	}
	h := d.replicas[0].h
	reachUs, reachAllocs := handlerReplay(h, opReach, every(clientIn[opReach], 200))
	batchUs, batchAllocs := handlerReplay(h, opBatch, every(clientIn[opBatch], 200))

	for _, o := range []op{opReach, opBatch, opCount} {
		add("http."+opNames[o]+"_us", "us", median(clientSelf[o]))
	}
	add("client.reach_p99_us", "us", ops[opReach].p99)
	add("client.batch_p99_us", "us", ops[opBatch].p99)
	add("client.count_p90_us", "us", ops[opCount].p90)
	for _, o := range []op{opReach, opBatch, opCount, opEdges} {
		add("server."+opNames[o]+"_us", "us", median(serverDur[o]))
	}
	add("server.reach_self_us", "us", median(serverSelf[opReach]))
	add("server.batch_self_us", "us", median(serverSelf[opBatch]))
	add("server.reach_allocs", "count", reachAllocs)
	add("server.batch_allocs", "count", batchAllocs)
	add("server.reach_replay_us", "us", reachUs)
	add("server.batch_replay_us", "us", batchUs)

	add("qcache.hits", "count", float64(rd.hits))
	add("qcache.misses", "count", float64(rd.miss))
	ratio := 0.0
	if rd.hits+rd.miss > 0 {
		ratio = float64(rd.hits) / float64(rd.hits+rd.miss)
	}
	add("qcache.hit_ratio", "hits/lookups", ratio)

	add("label.reach_ns", "ns", median(kernel[opReach]))
	add("label.batch16_ns", "ns", median(kernel[opBatch]))
	add("label.count_us", "us", median(kernel[opCount])/1e3)
	share := 0.0
	if sc := median(serverDur[opCount]); sc > 0 {
		share = median(kernel[opCount]) / 1e3 / sc
	}
	add("label.count_share", "ratio", share)

	add("fleet.reach_self_us", "us", median(fleetSelf[opReach]))
	add("fleet.batch_self_us", "us", median(fleetSelf[opBatch]))
	add("fleet.upstream_us", "us", median(upDur))
	add("fleet.hop_us", "us", median(upSelf[opBatch]))
	add("fleet.fanout", "calls/batch", mean(fanout))
	add("fleet.unlinked", "count", float64(unlinked))
	var retries, unavailable int64
	if d.flReg != nil {
		retries = d.flReg.CounterValue("fleet_retries_total")
		unavailable = d.flReg.CounterValue("fleet_unavailable_total")
	}
	add("fleet.retries", "count", float64(retries))
	add("fleet.unavailable", "count", float64(unavailable))
	routerRatio := 0.0
	if byp := pairsPerSecond(rd, slotBypass); byp > 0 {
		routerRatio = pairsPerSecond(rd, slotPlain) / byp
	}
	add("fleet.router_direct_ratio", "ratio", routerRatio)

	add("updater.refreshes", "count", float64(rd.upd1.Refreshes-rd.upd0.Refreshes))
	add("updater.repairs", "count", float64(rd.upd1.Repairs-rd.upd0.Repairs))
	add("updater.rebuilds", "count", float64(rd.upd1.Rebuilds-rd.upd0.Rebuilds))
	add("updater.seq_lag_max", "count", float64(rd.seqLagMax))
	refreshMs, appends := 0.0, 0.0
	if d.upd != nil {
		hist := d.buildReg.Histogram("reachlab_refresh_seconds", nil)
		if c := hist.Count(); c > 0 {
			refreshMs = hist.Sum() / float64(c) * 1e3
		}
		appends = float64(d.buildReg.CounterValue("reachlab_wal_appends_total"))
	}
	add("updater.refresh_ms", "ms", refreshMs)
	add("wal.appends", "count", appends)
	ack, vis := writeDists(rd)
	var late []float64
	for _, w := range rd.writes {
		late = append(late, float64(w.sent-w.due)/1e6)
	}
	add("write.ack_p50_ms", "ms", ack.p50)
	add("write.ack_p99_ms", "ms", ack.p99)
	add("write.visible_p50_ms", "ms", vis.p50)
	add("write.visible_p99_ms", "ms", vis.p99)
	add("write.gen_late_p99_ms", "ms", summarize(late).p99)
	add("write.not_visible", "count", float64(rd.invisible))

	bi := d.buildInfo
	add("build.s", "s", setupMedian(rd, func(s setupTimes) time.Duration { return s.build }))
	add("build.compute_s", "s", bi.Compute.Seconds())
	add("build.comm_s", "s", bi.Communication.Seconds())
	add("build.supersteps", "count", float64(bi.Supersteps))
	add("build.messages", "count", float64(bi.Messages))
	add("build.bytes_remote", "bytes", float64(bi.BytesRemote))
	add("drl.batches", "count", float64(d.buildReg.CounterValue("drl_batches_total")))
	var stepMax int64
	for _, row := range d.buildReg.TraceSnapshot()["pregel"] {
		stepMax = max(stepMax, row.WallNanos)
	}
	add("pregel.step_max_ms", "ms", float64(stepMax)/1e6)

	add("setup.gen_s", "s", setupMedian(rd, func(s setupTimes) time.Duration { return s.gen }))
	add("setup.index_read_s", "s", setupMedian(rd, func(s setupTimes) time.Duration { return s.read }))
	add("setup.admit_s", "s", setupMedian(rd, func(s setupTimes) time.Duration { return s.admit }))

	w := rd.window.Seconds()
	add("go.gc_cycles", "count", float64(rd.gcCycles))
	add("go.alloc_mb_per_s", "MiB/s", float64(rd.allocBytes)/(1<<20)/w)

	plain, traced := pairsPerSecond(rd, slotPlain), pairsPerSecond(rd, slotTraced)
	overhead := 0.0
	if plain > 0 {
		overhead = 100 * (plain - traced) / plain
	}
	add("trace.overhead_pct", "%", overhead)
	add("trace.spans", "count", float64(len(rd.spans)))

	printBudget(out, rd, m, clientSelf, fleetSelf, upSelf, serverSelf, kernel, ops)
	if err := writeSpans(rd); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	return m
}

// printBudget prints one row per op: the median of each layer's own
// time along the request's blocking path, client to kernel.
func printBudget(out io.Writer, rd *runData, m map[string]metric, clientSelf, fleetSelf, upSelf, serverSelf, kernel [numOps][]float64, ops [numOps]opStats) {
	fmt.Fprintf(out, "layer budget, %s (medians in us; traced sub-windows; qcache hit ratio %.3f of %d lookups)\n",
		rd.cfg.workload, m["qcache.hit_ratio"].Value, rd.hits+rd.miss)
	fmt.Fprintf(out, "%-6s %12s %10s %10s %12s %10s %10s\n", "op", "client+http", "fleet", "hop", "server self", "label", "client p50")
	for _, o := range []op{opReach, opBatch, opCount} {
		fl, hop := "-", "-"
		if rd.d.fl != nil {
			fl = fmt.Sprintf("%.1f", median(fleetSelf[o]))
			hop = fmt.Sprintf("%.1f", median(upSelf[o]))
		}
		self := "-"
		if len(serverSelf[o]) > 0 {
			self = fmt.Sprintf("%.1f", median(serverSelf[o]))
		}
		fmt.Fprintf(out, "%-6s %12.1f %10s %10s %12s %10.3f %10.1f\n", opNames[o], median(clientSelf[o]), fl, hop, self,
			median(kernel[o])/1e3, ops[o].p50)
	}
	fmt.Fprintf(out, "in-process handler (httptest): /reach %.2fus %.0f allocs, /reach/batch %.2fus %.0f allocs; kernel %.0fns per lookup\n",
		m["server.reach_replay_us"].Value, m["server.reach_allocs"].Value, m["server.batch_replay_us"].Value,
		m["server.batch_allocs"].Value, m["label.reach_ns"].Value)
	if r := m["fleet.router_direct_ratio"].Value; r > 0 {
		fmt.Fprintf(out, "router/direct pairs/s over the same replicas: %.3f\n", r)
	}
	fmt.Fprintf(out, "tracing overhead: %.1f%% of plain pairs/s\n", m["trace.overhead_pct"].Value)
}

// writeSpans writes the run's spans, one JSON object per line, beside
// the scratch directories.
func writeSpans(rd *runData) error {
	path := filepath.Join(rd.cfg.work, fmt.Sprintf("spans-%s-%d.jsonl", rd.cfg.workload, rd.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range every(rd.spans, 100_000) {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"kind":%q,"op":%q,"start_ns":%d,"end_ns":%d,"pairs":%s}`+"\n",
			s.id, s.parent, kindNames[s.kind], opNames[s.op], s.start, s.end, strconv.Itoa(len(s.pairs)))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
