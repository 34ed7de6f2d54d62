package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	reachlab "repro"
)

type op uint8

const (
	opReach op = iota
	opBatch
	opCount
	opEdges
	numOps
)

var opNames = [numOps]string{"reach", "batch", "count", "edges"}

// batchSize is the pair count of every POST /reach/batch.
const batchSize = 16

// phase is what the load generator does right now. Workers load it
// before every request; nil means stop.
type phase struct {
	record bool     // keep this request's sample and answers
	slot   slotKind // which kind of sub-window is running
	win    uint8    // index of the sub-window
	bases  []string // targets; request k of a worker goes to bases[k%len]
}

// slotKind labels a sub-window of the timed window. An untraced run
// has only plain slots. A traced run interleaves plain and traced slots
// (their difference is the tracing overhead) and, behind the router,
// bypass slots that send the same load straight to the replicas.
type slotKind uint8

const (
	slotPlain slotKind = iota
	slotTraced
	slotBypass
	slotDrain // after the window, while the last writes become visible
)

// sample is one finished read: its op, sub-window, latency from send
// to the decoded reply, completion time and serving epoch.
type sample struct {
	op    op
	slot  slotKind
	win   uint8
	ok    bool
	epoch uint32
	lat   float32 // µs
	end   int64   // ns since the run's base time
}

// pairAns is one answered (s, t) pair with the epoch that answered it.
type pairAns struct {
	s, t  int32
	op    op
	ans   bool
	epoch uint32
}

// countAns is one answered /reach/count.
type countAns struct {
	s, n  int32
	epoch uint32
}

// workerLog is everything one load connection recorded.
type workerLog struct {
	samples []sample
	pairs   []pairAns
	counts  []countAns
}

// keyGen draws request endpoints. Skewed workloads draw zipf ranks:
// sources count down from the newest vertex and targets up from the
// oldest, the citation regime where new papers are queried against
// classics. Uniform workloads draw both uniformly.
type keyGen struct {
	n    int
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newKeyGen(n int, skew float64, seed int64) *keyGen {
	k := &keyGen{n: n, rng: rand.New(rand.NewSource(seed))}
	if skew > 1 {
		k.zipf = rand.NewZipf(k.rng, skew, 1, uint64(n-1))
	}
	return k
}

func (k *keyGen) pair() (s, t int32) {
	if k.zipf == nil {
		return int32(k.rng.Intn(k.n)), int32(k.rng.Intn(k.n))
	}
	return int32(k.n - 1 - int(k.zipf.Uint64())), int32(k.zipf.Uint64())
}

// The closed-loop request mix of every workload: mostly single
// lookups and 16-pair batches, and a small fixed share of count
// sweeps.
const (
	reachShare = 0.495
	batchShare = 0.495 // the remaining 1% are counts
)

func pickOp(r *rand.Rand) op {
	x := r.Float64()
	switch {
	case x < reachShare:
		return opReach
	case x < reachShare+batchShare:
		return opBatch
	}
	return opCount
}

// loader owns the HTTP client and the phase all workers follow.
type loader struct {
	client *http.Client
	base   time.Time
	cur    atomic.Pointer[phase]
	rec    *recorder // nil when untraced
}

func newLoader(base time.Time, rec *recorder) *loader {
	return &loader{
		// Two load connections at most: one per worker.
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		}},
		base: base,
		rec:  rec,
	}
}

func (l *loader) since() int64 { return int64(time.Since(l.base)) }

// do sends one request and decodes its JSON reply into out, returning
// the serving epoch. While tracing is on it records a client span
// carrying the request's pairs.
func (l *loader) do(o op, req *http.Request, pairs [][2]int32, out any) (uint32, error) {
	var s span
	if l.rec != nil && l.rec.on.Load() {
		s = span{id: l.rec.newID(), kind: kindClient, op: o, pairs: pairs}
		req.Header.Set(spanHeader, strconv.FormatUint(s.id, 10))
		s.start = l.rec.now()
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: status %d: %s", req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, out); err != nil {
		return 0, fmt.Errorf("%s: %w", req.URL.Path, err)
	}
	if s.id != 0 {
		s.end = l.rec.now()
		l.rec.add(s)
	}
	e, _ := strconv.ParseUint(resp.Header.Get(reachlab.EpochHeader), 10, 32)
	return uint32(e), nil
}

type reachReply struct {
	Reachable bool `json:"reachable"`
}

type batchReply struct {
	Results []bool `json:"results"`
}

type countReply struct {
	Count int `json:"count"`
}

// readLoop is one closed-loop connection: it sends its next request
// only after the previous reply, until the phase turns nil.
func (l *loader) readLoop(keys *keyGen, wl *workerLog) {
	var body []byte // reused: the previous request is done before the next
	for k := 0; ; k++ {
		p := l.cur.Load()
		if p == nil {
			return
		}
		base := p.bases[k%len(p.bases)]
		o := pickOp(keys.rng)
		var (
			req   *http.Request
			pairs [][2]int32
			err   error
		)
		switch o {
		case opReach, opCount:
			s, t := keys.pair()
			if o == opReach {
				pairs = [][2]int32{{s, t}}
				req, err = http.NewRequest(http.MethodGet, base+"/reach?s="+itoa(s)+"&t="+itoa(t), nil)
			} else {
				pairs = [][2]int32{{s, -1}}
				req, err = http.NewRequest(http.MethodGet, base+"/reach/count?s="+itoa(s), nil)
			}
		case opBatch:
			pairs = make([][2]int32, batchSize)
			for i := range pairs {
				s, t := keys.pair()
				pairs[i] = [2]int32{s, t}
			}
			body = appendBatchBody(body[:0], pairs)
			req, err = http.NewRequest(http.MethodPost, base+"/reach/batch", bytes.NewReader(body))
			if err == nil {
				req.Header.Set("Content-Type", "application/json")
			}
		}
		if err != nil {
			panic(err) // URLs are built from a parsed base: a bug
		}
		start := time.Now()
		var (
			epoch uint32
			rr    reachReply
			br    batchReply
			cr    countReply
		)
		switch o {
		case opReach:
			epoch, err = l.do(o, req, pairs, &rr)
		case opBatch:
			epoch, err = l.do(o, req, pairs, &br)
			if err == nil && len(br.Results) != len(pairs) {
				err = fmt.Errorf("batch of %d pairs got %d answers", len(pairs), len(br.Results))
			}
		case opCount:
			epoch, err = l.do(o, req, pairs, &cr)
		}
		lat := time.Since(start)
		if !p.record {
			continue
		}
		wl.samples = append(wl.samples, sample{
			op: o, slot: p.slot, win: p.win, ok: err == nil, epoch: epoch,
			lat: float32(lat.Seconds() * 1e6), end: l.since(),
		})
		if err != nil {
			continue
		}
		switch o {
		case opReach:
			wl.pairs = append(wl.pairs, pairAns{s: pairs[0][0], t: pairs[0][1], op: o, ans: rr.Reachable, epoch: epoch})
		case opBatch:
			for i, pr := range pairs {
				wl.pairs = append(wl.pairs, pairAns{s: pr[0], t: pr[1], op: o, ans: br.Results[i], epoch: epoch})
			}
		case opCount:
			wl.counts = append(wl.counts, countAns{s: pairs[0][0], n: int32(cr.Count), epoch: epoch})
		}
	}
}

func itoa(v int32) string { return strconv.FormatInt(int64(v), 10) }

// appendBatchBody appends the JSON body of a POST /reach/batch.
func appendBatchBody(b []byte, pairs [][2]int32) []byte {
	b = append(b, `{"pairs":[`...)
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(p[0]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p[1]), 10)
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// writeRec is one open-loop write: when it was due, sent and
// acknowledged (ns since the run's base), and what the ack promised.
type writeRec struct {
	insert     bool
	u, v       int32
	due, sent  int64
	done       int64
	ok         bool
	seq, epoch uint64
}

// openLoop paces operations at a fixed rate from t0, independent of
// how long each takes: op k is due at t0 + k/rate. A slow op delays
// the ones behind it, and timing each op from its due time charges
// them that wait.
type openLoop struct {
	rate  float64
	now   func() int64 // ns since the run's base
	sleep func(ns int64)
}

func (o openLoop) due(t0 int64, k int) int64 {
	return t0 + int64(float64(k)*1e9/o.rate)
}

// run issues ops due before end and returns their records, each
// stamped with when it was due, sent and completed.
func (o openLoop) run(t0, end int64, do func(k int) writeRec) []writeRec {
	var out []writeRec
	for k := 0; ; k++ {
		due := o.due(t0, k)
		if due >= end {
			return out
		}
		if now := o.now(); now < due {
			o.sleep(due - now)
		}
		sent := o.now()
		r := do(k)
		r.due, r.sent, r.done = due, sent, o.now()
		out = append(out, r)
	}
}

// edgeStream generates the write-mix mutations: inserts of fresh
// citation edges among the newest vertices (newer cites older), each
// deleted again once `live` later inserts have gone out, so the graph
// oscillates around its base and every edge is a real change.
type edgeStream struct {
	g     *reachlab.Graph
	rng   *rand.Rand
	width int // newest-vertex window
	live  int
	queue [][2]int32
	have  map[[2]int32]bool
	k     int
}

func newEdgeStream(g *reachlab.Graph, seed int64, width, live int) *edgeStream {
	return &edgeStream{g: g, rng: rand.New(rand.NewSource(seed)), width: width, live: live,
		have: make(map[[2]int32]bool)}
}

func (e *edgeStream) next() (insert bool, u, v int32) {
	e.k++
	if len(e.queue) >= e.live && e.k%2 == 0 {
		p := e.queue[0]
		e.queue = e.queue[1:]
		delete(e.have, p)
		return false, p[0], p[1]
	}
	n := e.g.NumVertices()
	for {
		u = int32(n - 1 - e.rng.Intn(e.width))
		v = u - 1 - int32(e.rng.Intn(e.width))
		if v < 0 || e.have[[2]int32{u, v}] || hasEdge(e.g, u, v) {
			continue
		}
		p := [2]int32{u, v}
		e.have[p] = true
		e.queue = append(e.queue, p)
		return true, u, v
	}
}

func hasEdge(g *reachlab.Graph, u, v int32) bool {
	for _, w := range g.OutNeighbors(reachlab.VertexID(u)) {
		if int32(w) == v {
			return true
		}
	}
	return false
}

type edgeReply struct {
	Seq   uint64 `json:"seq"`
	Epoch uint64 `json:"epoch"`
}

// writeLoop sends the open-loop POST /edges stream over its own
// connection from t0 until end.
func (l *loader) writeLoop(base string, edges *edgeStream, t0, end int64) []writeRec {
	ol := openLoop{rate: writeRate, now: l.since, sleep: func(ns int64) { time.Sleep(time.Duration(ns)) }}
	return ol.run(t0, end, func(int) writeRec {
		insert, u, v := edges.next()
		opName := "delete"
		if insert {
			opName = "insert"
		}
		body := `{"op":"` + opName + `","u":` + itoa(u) + `,"v":` + itoa(v) + `}`
		req, err := http.NewRequest(http.MethodPost, base+"/edges", strings.NewReader(body))
		if err != nil {
			panic(err) // the URL is built from a parsed base: a bug
		}
		req.Header.Set("Content-Type", "application/json")
		var rep edgeReply
		_, err = l.do(opEdges, req, nil, &rep)
		return writeRec{insert: insert, u: u, v: v, ok: err == nil, seq: rep.Seq, epoch: rep.Epoch}
	})
}
