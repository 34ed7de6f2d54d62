package main

import (
	"bytes"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records spans from the benchmark's own files: the
// client around each request, a wrapper around QueryHandler.ServeHTTP
// and Fleet.ServeHTTP, and the RoundTripper the fleet forwards
// through. Spans live in memory and are written out when the run
// ends. The client and the RoundTripper name their span in the
// spanHeader of the request they send, so the handler span below
// records its parent. The router builds fresh upstream requests and
// forwards no id, so an upstream span is linked to its caller
// afterwards by interval containment and, where callers overlap, by
// the pairs the sub-request carries (linkUpstreams).

const spanHeader = "X-Perfbench-Span"

type spanKind uint8

const (
	kindClient   spanKind = iota // load generator, around one request
	kindFleet                    // Fleet.ServeHTTP
	kindUpstream                 // fleet → replica, in the RoundTripper
	kindServer                   // QueryHandler.ServeHTTP
)

var kindNames = [...]string{"client", "fleet", "upstream", "server"}

// span is one timed call across a layer boundary. start and end are
// nanoseconds since the recorder's base. pairs are the (s, t) inputs
// the call carried (count requests carry (s, -1)), used to link
// upstream spans and to replay the kernel work afterwards.
type span struct {
	id, parent uint64
	kind       spanKind
	op         op
	start, end int64
	pairs      [][2]int32
}

func (s *span) dur() int64 { return s.end - s.start }

// recorder keeps the spans of one run. Recording is switched on only
// for the traced sub-windows; a switched-off recorder costs one
// atomic load per call.
type recorder struct {
	base time.Time
	on   atomic.Bool
	ids  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder(base time.Time) *recorder { return &recorder{base: base} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) newID() uint64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func parseSpanID(h http.Header) uint64 {
	id, _ := strconv.ParseUint(h.Get(spanHeader), 10, 64)
	return id
}

// opOfPath maps a request path to the op it serves.
func opOfPath(path string) (op, bool) {
	switch path {
	case "/reach":
		return opReach, true
	case "/reach/batch":
		return opBatch, true
	case "/reach/count":
		return opCount, true
	case "/edges":
		return opEdges, true
	}
	return 0, false
}

// tracedHandler records a span around next.ServeHTTP: a replica's
// QueryHandler (kindServer) or the router's Fleet (kindFleet).
type tracedHandler struct {
	next http.Handler
	kind spanKind
	rec  *recorder
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o, known := opOfPath(r.URL.Path)
	if !known || !h.rec.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	s := span{id: h.rec.newID(), parent: parseSpanID(r.Header), kind: h.kind, op: o, start: h.rec.now()}
	h.next.ServeHTTP(w, r)
	s.end = h.rec.now()
	h.rec.add(s)
}

// tracedTransport is the RoundTripper handed to the fleet as
// fleet.Options.Client: it times each forwarded request until its
// body is closed, keeps the sub-request's pairs, and names its span
// to the replica in spanHeader.
type tracedTransport struct {
	next http.RoundTripper
	rec  *recorder
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	o, known := opOfPath(req.URL.Path)
	if !known || !t.rec.on.Load() {
		return t.next.RoundTrip(req)
	}
	s := span{id: t.rec.newID(), kind: kindUpstream, op: o}
	switch o {
	case opBatch:
		if req.GetBody != nil {
			if rc, err := req.GetBody(); err == nil {
				body, _ := io.ReadAll(rc) // a bytes.Reader copy: cannot fail
				rc.Close()
				s.pairs = parsePairsBody(body)
			}
		}
	default:
		s.pairs = queryPairs(req.URL.Query().Get("s"), req.URL.Query().Get("t"))
	}
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatUint(s.id, 10))
	s.start = t.rec.now()
	resp, err := t.next.RoundTrip(out)
	if err != nil {
		s.end = t.rec.now()
		t.rec.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	return resp, nil
}

// spanBody ends an upstream span when the router closes the body.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.end = b.rec.now()
		b.rec.add(b.s)
	})
	return err
}

// queryPairs parses the s and t parameters of a GET request; a
// missing t (count requests) is recorded as -1.
func queryPairs(s, t string) [][2]int32 {
	sv, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		return nil
	}
	tv, err := strconv.ParseInt(t, 10, 32)
	if err != nil {
		tv = -1
	}
	return [][2]int32{{int32(sv), int32(tv)}}
}

// parsePairsBody extracts the pairs of a {"pairs":[[s,t],...]} body
// without a JSON decoder: the benchmark's own client writes that
// shape, and so does the router for its sub-batches.
func parsePairsBody(body []byte) [][2]int32 {
	i := bytes.IndexByte(body, '[')
	if i < 0 {
		return nil
	}
	var nums []int32
	cur, in, neg := int64(0), false, false
	for _, c := range body[i+1:] {
		switch {
		case c >= '0' && c <= '9':
			cur = cur*10 + int64(c-'0')
			in = true
		case c == '-':
			neg = true
		default:
			if in {
				if neg {
					cur = -cur
				}
				nums = append(nums, int32(cur))
			}
			cur, in, neg = 0, false, false
		}
	}
	pairs := make([][2]int32, 0, len(nums)/2)
	for k := 0; k+1 < len(nums); k += 2 {
		pairs = append(pairs, [2]int32{nums[k], nums[k+1]})
	}
	return pairs
}

// selfTime is a span's duration minus the part of its interval that
// its children cover: overlapping children (a router's concurrent
// sub-requests) count once, and any part of a child outside the
// parent is ignored.
func selfTime(parent *span, children []*span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// linkUpstreams sets the parent of every upstream span to the fleet
// span that caused it. A caller must have started before and ended
// after the upstream call and serve the same op; when several do
// (the two load connections overlap), the one whose pairs include
// every pair of the sub-request wins. It returns how many upstream
// spans stayed unlinked because no caller, or more than one, fits.
func linkUpstreams(fleets []*span, ups []*span) (unlinked int) {
	sort.Slice(fleets, func(i, j int) bool { return fleets[i].start < fleets[j].start })
	var longest int64
	for _, f := range fleets {
		longest = max(longest, f.dur())
	}
	for _, u := range ups {
		// Callers are sorted by start: only those starting at or before
		// u, and late enough to last until u ends, can contain it.
		hi := sort.Search(len(fleets), func(i int) bool { return fleets[i].start > u.start })
		var cands []*span
		for i := hi - 1; i >= 0 && fleets[i].start >= u.end-longest; i-- {
			if f := fleets[i]; f.op == u.op && f.end >= u.end {
				cands = append(cands, f)
			}
		}
		if len(cands) > 1 {
			var keep []*span
			for _, f := range cands {
				if pairsSubset(u.pairs, f.pairs) {
					keep = append(keep, f)
				}
			}
			cands = keep
		}
		if len(cands) != 1 {
			unlinked++
			continue
		}
		u.parent = cands[0].id
	}
	return unlinked
}

// pairsSubset reports whether every pair of sub occurs in of. A
// count request matches on its source alone.
func pairsSubset(sub, of [][2]int32) bool {
	have := make(map[[2]int32]bool, len(of))
	srcs := make(map[int32]bool, len(of))
	for _, p := range of {
		have[p] = true
		srcs[p[0]] = true
	}
	for _, p := range sub {
		if p[1] < 0 {
			if !srcs[p[0]] {
				return false
			}
			continue
		}
		if !have[p] {
			return false
		}
	}
	return len(sub) > 0
}
