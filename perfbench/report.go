package main

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// opStats is the timed-window view of one op type.
type opStats struct {
	attempted, failed int64
	// answered counts the answered requests of the plain sub-windows;
	// p50, p90 and p99 (µs) are the medians of their per-sub-window
	// percentiles.
	answered      int
	p50, p90, p99 float64
	windows       int // plain sub-windows with samples
	above99       int // fewest samples beyond p99 in any of them
}

func perOp(rd *runData) [numOps]opStats {
	var st [numOps]opStats
	perWin := make([][numOps][]float64, len(rd.winTime))
	for _, s := range rd.samples {
		st[s.op].attempted++
		if !s.ok {
			st[s.op].failed++
			continue
		}
		if s.slot == slotPlain {
			st[s.op].answered++
			perWin[s.win][s.op] = append(perWin[s.win][s.op], float64(s.lat))
		}
	}
	for o := range st {
		var p50s, p90s, p99s []float64
		for w := range perWin {
			if xs := perWin[w][o]; len(xs) > 0 {
				d := summarize(xs)
				p90, _ := rank(xs, 0.90)
				p50s, p90s, p99s = append(p50s, d.p50), append(p90s, p90), append(p99s, d.p99)
				if st[o].windows == 0 || d.above99 < st[o].above99 {
					st[o].above99 = d.above99
				}
				st[o].windows++
			}
		}
		st[o].p50, st[o].p90, st[o].p99 = median(p50s), median(p90s), median(p99s)
	}
	for _, w := range rd.writes {
		st[opEdges].attempted++
		if !w.ok {
			st[opEdges].failed++
		}
	}
	// A write no read saw by the end of the drain failed.
	st[opEdges].failed += int64(rd.invisible)
	return st
}

// pairsPerSecond is the answered-pair rate of one kind of sub-window:
// a single lookup answers one pair, a batch sixteen.
func pairsPerSecond(rd *runData, kind slotKind) float64 {
	var pairs int64
	for _, s := range rd.samples {
		if s.ok && s.slot == kind {
			pairs += pairsOf(s.op)
		}
	}
	t := rd.slotTime[kind].Seconds()
	if t == 0 {
		return 0
	}
	return float64(pairs) / t
}

func pairsOf(o op) int64 {
	switch o {
	case opReach:
		return 1
	case opBatch:
		return batchSize
	}
	return 0
}

// medianWindowRate is the median over the plain sub-windows of their
// answered-pair rates.
func medianWindowRate(rd *runData) float64 {
	pairs := make([]int64, len(rd.winTime))
	for _, s := range rd.samples {
		if s.ok && s.slot == slotPlain {
			pairs[s.win] += pairsOf(s.op)
		}
	}
	var rates []float64
	for w, t := range rd.winTime {
		if t > 0 {
			rates = append(rates, float64(pairs[w])/t.Seconds())
		}
	}
	return median(rates)
}

// setupMedian is the median over the run's set-ups of one of their
// spans, in seconds.
func setupMedian(rd *runData, pick func(setupTimes) time.Duration) float64 {
	v := make([]float64, len(rd.setups))
	for i, s := range rd.setups {
		v[i] = pick(s).Seconds()
	}
	return median(v)
}

// report prints the human-readable tables and returns the result line.
func report(rd *runData, out io.Writer) *result {
	ops := perOp(rd)
	res := &result{
		Correct: rd.indexOK && rd.checked > 0,
		Metrics: map[string]metric{},
	}
	for o, s := range ops {
		res.Attempted += s.attempted
		res.Failed += s.failed
		if rd.wrong[o] != 0 {
			res.Correct = false
		}
	}

	each := make([]string, len(rd.setups))
	for i, s := range rd.setups {
		each[i] = fmt.Sprintf("%.2f", s.total.Seconds())
	}
	fmt.Fprintf(out, "workload %s seed %d: %d vertices, set-up %.2fs (median of %s), window %.1fs\n"+
		"percentiles are medians over the plain sub-windows; >p99 is the fewest samples beyond p99 in one\n",
		rd.cfg.workload, rd.cfg.seed, rd.d.idx.NumVertices(), setupMedian(rd, func(s setupTimes) time.Duration { return s.total }),
		strings.Join(each, " "), rd.window.Seconds())
	fmt.Fprintf(out, "%-6s %10s %7s %6s %9s %10s %10s %10s %8s %8s\n",
		"op", "attempted", "failed", "wrong", "samples", "p50", "p90", "p99", "windows", ">p99")
	for o, s := range ops {
		if s.attempted == 0 || o == int(opEdges) {
			continue
		}
		fmt.Fprintf(out, "%-6s %10d %7d %6d %9d %8.1fus %8.1fus %8.1fus %8d %8d\n", opNames[o], s.attempted, s.failed,
			rd.wrong[o], s.answered, s.p50, s.p90, s.p99, s.windows, s.above99)
	}
	if rd.writes != nil {
		ack, vis := writeDists(rd)
		fmt.Fprintf(out, "writes: %d at %.0f/s; ack p50 %.2fms p99 %.2fms (n=%d, %d beyond); visible p50 %.1fms p99 %.1fms (n=%d); not visible %d; seq_lag max %d\n",
			len(rd.writes), float64(writeRate), ack.p50, ack.p99, ack.n, ack.above99, vis.p50, vis.p99, vis.n, rd.invisible, rd.seqLagMax)
	}
	fmt.Fprintf(out, "checked %d answers, index check ok: %v\n", rd.checked, rd.indexOK)

	if rd.cfg.trace {
		res.Metrics = layerMetrics(rd, ops, out)
		return res
	}
	add := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	add("setup_s", "s", setupMedian(rd, func(s setupTimes) time.Duration { return s.total }))
	add("heap_mb", "MiB", float64(rd.heap)/(1<<20))
	add("index_bytes", "bytes", float64(rd.d.idx.Stats().Bytes))
	add("read_pairs_per_s", "1/s", medianWindowRate(rd))
	// The bounded tail is the p90: over ten seeds on a host with CPU
	// steal, the p99 of lookups and batches spread about twice as
	// widely. Counts have no bounded tail: a 2 ms sweep is the request
	// most often cut by a steal burst, and their p90 spread past 0.4 of
	// its median in one set of ten runs. The traced run reports the
	// lookup and batch p99 and the count p90 (client.*).
	add("reach_p50_us", "us", ops[opReach].p50)
	add("reach_p90_us", "us", ops[opReach].p90)
	add("batch_p50_us", "us", ops[opBatch].p50)
	add("batch_p90_us", "us", ops[opBatch].p90)
	add("count_p50_us", "us", ops[opCount].p50)
	return res
}

// writeDists returns the write acknowledgement latency, timed from
// each write's due time, and the visibility delay, both in ms.
func writeDists(rd *runData) (ack, vis dist) {
	var a []float64
	for _, w := range rd.writes {
		if w.ok {
			a = append(a, float64(w.done-w.due)/1e6)
		}
	}
	return summarize(a), summarize(append([]float64(nil), rd.visible...))
}
