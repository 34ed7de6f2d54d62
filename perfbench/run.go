package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	reachlab "repro"
)

// runData is what one run measured, handed to the reporting code.
type runData struct {
	cfg    *config
	d      *deployment
	setups []setupTimes
	heap   uint64

	samples []sample // every recorded request, window and drain
	pairs   []pairAns
	counts  []countAns
	writes  []writeRec
	spans   []span

	window     time.Duration
	slotTime   [slotDrain]time.Duration // time spent in each kind of sub-window
	winTime    []time.Duration          // length of each sub-window
	hits, miss int64                    // cache lookups over the window
	gcCycles   uint32
	allocBytes uint64
	seqLagMax  uint64
	upd0, upd1 reachlab.UpdaterStats // updater counters around the window

	wrong     [numOps]int64
	indexOK   bool // read-routed: DRL_b index equals TOL's
	checked   int  // answers verified
	visible   []float64
	invisible int
}

func setup(cfg *config, rec *recorder, dir string, rep int) (*deployment, error) {
	switch cfg.workload {
	case readDirect:
		return setupDirect(cfg, rec, dir)
	case readRouted:
		return setupRouted(cfg, rec, dir)
	}
	return setupWrite(cfg, rec, dir, rep)
}

func run(cfg *config, out io.Writer) (*result, error) {
	dir, err := scratchDir(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	base := time.Now()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder(base)
	}
	rd := &runData{cfg: cfg}
	// Set up several times and serve from the last: setup_s is the
	// median, so one slow set-up does not move it.
	var d *deployment
	for rep := 0; rep < cfg.setups; rep++ {
		if d != nil {
			d.close()
		}
		runtime.GC()
		if d, err = setup(cfg, rec, dir, rep); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rd.setups = append(rd.setups, d.times)
	}
	defer d.close()
	rd.d = d
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rd.heap = ms.HeapAlloc

	measure(rd, rec, base)
	if err := verify(rd); err != nil {
		return nil, err
	}
	if rec != nil {
		rd.spans = rec.snapshot()
	}
	return report(rd, out), nil
}

// measure warms up, runs the timed window and, in write-mix, the
// drain that waits for the last acknowledged write to become visible.
func measure(rd *runData, rec *recorder, base time.Time) {
	cfg, d := rd.cfg, rd.d
	l := newLoader(base, rec)
	n := d.idx.NumVertices()
	skew := 1.1
	if cfg.workload == readRouted {
		skew = 0 // uniform keys: the per-replica caches cannot help
	}
	readers := 2
	if cfg.workload == writeMix {
		readers = 1 // the other connection carries the writes
	}
	target := []string{d.target}
	l.cur.Store(&phase{bases: target})
	logs := make([]workerLog, readers)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l.readLoop(newKeyGen(n, skew, cfg.seed*1000+int64(w)), &logs[w])
		}(w)
	}
	time.Sleep(cfg.warmup)

	// Sample the updater's backlog through the window and drain.
	stopLag := make(chan struct{})
	lagDone := make(chan struct{})
	if d.upd != nil {
		rd.upd0 = d.upd.Stats()
		go func() {
			defer close(lagDone)
			t := time.NewTicker(50 * time.Millisecond)
			defer t.Stop()
			for {
				if s := d.upd.Stats(); s.SeqLag > rd.seqLagMax {
					rd.seqLagMax = s.SeqLag
				}
				select {
				case <-stopLag:
					return
				case <-t.C:
				}
			}
		}()
	} else {
		close(lagDone)
	}

	// An untraced window is cut into ten plain sub-windows. Each
	// end-to-end figure is the median over them, so a burst of CPU
	// steal on the shared host moves one sub-window, not the result.
	slots := make([]slotKind, 10)
	if cfg.trace {
		slots = []slotKind{slotPlain, slotTraced}
		if cfg.workload == readRouted {
			slots = append(slots, slotBypass)
		}
		slots = append(slots, slots...) // ABAB: drift hits both sides
	}
	var bypass []string
	for _, r := range d.replicas {
		bypass = append(bypass, r.srv.base)
	}
	rd.hits, rd.miss = cacheTotals(d)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	window := time.Duration(cfg.seconds * float64(time.Second))
	t0 := l.since()
	end := t0 + int64(window)

	var writeWG sync.WaitGroup
	if cfg.workload == writeMix {
		edges := newEdgeStream(d.g, cfg.seed, 2000, 128)
		writeWG.Add(1)
		go func() {
			defer writeWG.Done()
			rd.writes = l.writeLoop(d.target, edges, t0, end)
		}()
	}
	for i, kind := range slots {
		p := &phase{record: true, slot: kind, win: uint8(i), bases: target}
		if kind == slotBypass {
			p.bases = bypass
		}
		if rec != nil {
			rec.on.Store(kind == slotTraced)
		}
		from := l.since()
		l.cur.Store(p)
		until := t0 + int64(window)*int64(i+1)/int64(len(slots))
		time.Sleep(time.Duration(until - l.since()))
		rd.slotTime[kind] += time.Duration(l.since() - from)
		rd.winTime = append(rd.winTime, time.Duration(l.since()-from))
	}
	rd.window = time.Duration(l.since() - t0)
	runtime.ReadMemStats(&ms1)
	rd.gcCycles = ms1.NumGC - ms0.NumGC
	rd.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	h1, m1 := cacheTotals(d)
	rd.hits, rd.miss = h1-rd.hits, m1-rd.miss
	if rec != nil {
		rec.on.Store(false)
	}

	if cfg.workload != writeMix {
		l.cur.Store(&phase{bases: target})
	} else {
		// Keep reading until the handler serves the last promised
		// epoch, so every write's visibility is observed by a read.
		l.cur.Store(&phase{record: true, slot: slotDrain, bases: target})
		writeWG.Wait()
		rd.upd1 = d.upd.Stats()
		var last uint64
		for _, w := range rd.writes {
			if w.ok && w.epoch > last {
				last = w.epoch
			}
		}
		deadline := time.Now().Add(cfg.drain)
		for d.replicas[0].h.Epoch() < last && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)
	}
	l.cur.Store(nil)
	wg.Wait()
	close(stopLag)
	<-lagDone
	l.client.CloseIdleConnections()

	for _, wl := range logs {
		rd.samples = append(rd.samples, wl.samples...)
		rd.pairs = append(rd.pairs, wl.pairs...)
		rd.counts = append(rd.counts, wl.counts...)
	}
}

func cacheTotals(d *deployment) (hits, misses int64) {
	for _, r := range d.replicas {
		h, m := r.h.CacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// verify checks every answer outside the timed window: against an
// index built by another method (read workloads), or by BFS over the
// graph at the answering epoch (write-mix), and works out when each
// write became visible.
func verify(rd *runData) error {
	d := rd.d
	switch rd.cfg.workload {
	case readDirect:
		ref, err := reachlab.Build(context.Background(), d.g, reachlab.Options{Method: reachlab.MethodDRLShared, Workers: 2})
		if err != nil {
			return fmt.Errorf("reference index: %w", err)
		}
		checkIndexAnswers(ref, rd.pairs, rd.counts, &rd.wrong)
		rd.checked = len(rd.pairs) + len(rd.counts)
		rd.indexOK = true
	case readRouted:
		ref, err := reachlab.Build(context.Background(), d.g, reachlab.Options{Method: reachlab.MethodTOL})
		if err != nil {
			return fmt.Errorf("reference index: %w", err)
		}
		rd.indexOK = d.idx.LabelIndex().Equal(ref.LabelIndex())
		checkIndexAnswers(ref, rd.pairs, rd.counts, &rd.wrong)
		rd.checked = len(rd.pairs) + len(rd.counts)
	case writeMix:
		checked, err := checkAtEpochs(d.g, d.log, d.upd, rd.pairs, rd.counts,
			checkPairs, checkCounts, rd.cfg.seed, &rd.wrong)
		if err != nil {
			return fmt.Errorf("replaying the write log: %w", err)
		}
		rd.checked = checked
		rd.indexOK = true
		rd.visible, rd.invisible = visibility(rd.samples, rd.writes)
	}
	return nil
}

// visibility returns, for every acknowledged write, the time from its
// ack to the first read answered at an epoch at or past the one the
// ack promised (ms), and how many writes no read saw. reads must come
// from one connection, so their completion times and epochs rise
// together.
func visibility(samples []sample, writes []writeRec) (lat []float64, invisible int) {
	var reads []sample
	for _, s := range samples {
		if s.ok && s.op != opEdges {
			reads = append(reads, s)
		}
	}
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].end < reads[j].end })
	for _, w := range writes {
		if !w.ok {
			continue
		}
		i := sort.Search(len(reads), func(i int) bool { return reads[i].end >= w.done })
		j := sort.Search(len(reads), func(i int) bool { return uint64(reads[i].epoch) >= w.epoch })
		k := max(i, j)
		if k >= len(reads) {
			invisible++
			continue
		}
		lat = append(lat, float64(reads[k].end-w.done)/1e6)
	}
	return lat, invisible
}
