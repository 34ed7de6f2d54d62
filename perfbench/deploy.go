package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	reachlab "repro"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/wal"
)

// server is one net/http server on a loopback listener.
type server struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return s, nil
}

func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// replica is one serving QueryHandler and its server.
type replica struct {
	h   *reachlab.QueryHandler
	srv *server
}

// setupTimes splits one set-up into its spans.
type setupTimes struct {
	gen, build, read, admit, total time.Duration
}

// deployment is one workload's running system.
type deployment struct {
	g        *reachlab.Graph
	idx      *reachlab.Index // the index replica 0 serves
	replicas []*replica
	fl       *fleet.Fleet
	flReg    *obs.Registry
	router   *server
	upd      *reachlab.Updater
	log      *wal.Log
	target   string // where the load goes

	times     setupTimes
	buildReg  *obs.Registry // given to reachlab.Build or NewUpdater: build counters, superstep trace, update metrics
	buildInfo reachlab.BuildStats
}

func (d *deployment) close() {
	if d.router != nil {
		d.router.close()
	}
	if d.fl != nil {
		d.fl.Close()
	}
	for _, r := range d.replicas {
		r.srv.close()
	}
	if d.upd != nil {
		d.upd.Close()
	}
	if d.log != nil {
		d.log.Close() //nolint:errcheck // the run is over; the log is scratch
	}
}

// wrap puts a span recorder around h when the run is traced.
func wrap(h http.Handler, kind spanKind, rec *recorder) http.Handler {
	if rec == nil {
		return h
	}
	return &tracedHandler{next: h, kind: kind, rec: rec}
}

func startReplica(idx *reachlab.Index, cfg *config, rec *recorder, upd *reachlab.Updater) (*replica, error) {
	h := reachlab.NewQueryHandlerOpts(idx, reachlab.ServeOptions{Obs: obs.New(), CachePairs: cachePairs})
	if upd != nil {
		h.EnableUpdates(upd)
		upd.Start(h)
	}
	srv, err := serve(wrap(h, kindServer, rec))
	if err != nil {
		return nil, err
	}
	r := &replica{h: h, srv: srv}
	if err := waitHealthy(srv.base); err != nil {
		srv.close()
		return nil, err
	}
	return r, nil
}

func waitHealthy(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %v", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// writeIndex saves idx to path, so set-up can read it back the way a
// replica loads its index at start.
func writeIndex(idx *reachlab.Index, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := idx.WriteTo(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readIndex(path string) (*reachlab.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return reachlab.ReadIndex(bufio.NewReaderSize(f, 1<<20))
}

// setupDirect: one replica with the hot-pair cache, serving a
// citation graph indexed by serial TOL and read back with ReadIndex.
func setupDirect(cfg *config, rec *recorder, dir string) (*deployment, error) {
	d := &deployment{}
	t0 := time.Now()
	g, err := reachlab.GenerateGraph("citation", cfg.directN, degree, cfg.seed)
	if err != nil {
		return nil, err
	}
	d.g = g
	d.times.gen = time.Since(t0)
	t := time.Now()
	d.buildReg = obs.New()
	built, err := reachlab.Build(context.Background(), g, reachlab.Options{Method: reachlab.MethodTOL, Obs: d.buildReg})
	if err != nil {
		return nil, err
	}
	d.times.build = time.Since(t)
	d.buildInfo = built.BuildStats()
	path := filepath.Join(dir, "direct.idx")
	if err := writeIndex(built, path); err != nil {
		return nil, err
	}
	t = time.Now()
	if d.idx, err = readIndex(path); err != nil {
		return nil, err
	}
	d.times.read = time.Since(t)
	t = time.Now()
	r, err := startReplica(d.idx, cfg, rec, nil)
	if err != nil {
		return nil, err
	}
	d.replicas = []*replica{r}
	d.target = r.srv.base
	d.times.admit = time.Since(t)
	d.times.total = time.Since(t0)
	return d, nil
}

// setupRouted: DRL_b on the in-process Pregel engine builds the index,
// two replicas load it with ReadIndex, and a sharded fleet router
// admits both.
func setupRouted(cfg *config, rec *recorder, dir string) (*deployment, error) {
	d := &deployment{}
	t0 := time.Now()
	g, err := reachlab.GenerateGraph("citation", cfg.routedN, degree, cfg.seed)
	if err != nil {
		return nil, err
	}
	d.g = g
	d.times.gen = time.Since(t0)
	t := time.Now()
	d.buildReg = obs.New()
	built, err := reachlab.Build(context.Background(), g, reachlab.Options{
		Method: reachlab.MethodDRLBatch, Workers: 2, Obs: d.buildReg,
	})
	if err != nil {
		return nil, err
	}
	d.times.build = time.Since(t)
	d.buildInfo = built.BuildStats()
	path := filepath.Join(dir, "routed.idx")
	if err := writeIndex(built, path); err != nil {
		return nil, err
	}
	var idxs [2]*reachlab.Index
	t = time.Now()
	for i := range idxs {
		if idxs[i], err = readIndex(path); err != nil {
			return nil, err
		}
	}
	d.times.read = time.Since(t)
	d.idx = idxs[0]

	t = time.Now()
	var addrs []string
	for _, idx := range idxs {
		r, err := startReplica(idx, cfg, rec, nil)
		if err != nil {
			d.close()
			return nil, err
		}
		d.replicas = append(d.replicas, r)
		addrs = append(addrs, r.srv.base)
	}
	var rt http.RoundTripper = &http.Transport{
		MaxIdleConns:        4 * len(addrs) * 16,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     60 * time.Second,
	}
	if rec != nil {
		rt = &tracedTransport{next: rt, rec: rec}
	}
	d.flReg = obs.New()
	d.fl, err = fleet.New(addrs, fleet.Options{Mode: fleet.Sharded, Client: &http.Client{Transport: rt}, Obs: d.flReg})
	if err != nil {
		d.close()
		return nil, err
	}
	d.fl.Start()
	if d.router, err = serve(wrap(d.fl, kindFleet, rec)); err != nil {
		d.close()
		return nil, err
	}
	if err := waitAdmitted(d.fl); err != nil {
		d.close()
		return nil, err
	}
	d.target = d.router.base
	d.times.admit = time.Since(t)
	d.times.total = time.Since(t0)
	return d, nil
}

func waitAdmitted(f *fleet.Fleet) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		up := 0
		for _, r := range f.Snapshot() {
			if r.State == "up" {
				up++
			}
		}
		if up == f.NumReplicas() {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("fleet never admitted every replica")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// setupWrite: one replica in update mode over the read-direct graph,
// its writes logged by a WAL in the run's scratch directory.
func setupWrite(cfg *config, rec *recorder, dir string, rep int) (*deployment, error) {
	d := &deployment{}
	t0 := time.Now()
	g, err := reachlab.GenerateGraph("citation", cfg.directN, degree, cfg.seed)
	if err != nil {
		return nil, err
	}
	d.g = g
	d.times.gen = time.Since(t0)
	if d.log, err = wal.Open(filepath.Join(dir, fmt.Sprintf("edges-%d.wal", rep))); err != nil {
		return nil, err
	}
	t := time.Now()
	d.buildReg = obs.New()
	d.upd, err = reachlab.NewUpdater(g, d.log, reachlab.UpdaterOptions{Obs: d.buildReg, RefreshEvery: cfg.refreshEvery})
	if err != nil {
		d.close()
		return nil, err
	}
	d.idx = d.upd.Snapshot()
	d.times.build = time.Since(t)
	t = time.Now()
	r, err := startReplica(d.idx, cfg, rec, d.upd)
	if err != nil {
		d.close()
		return nil, err
	}
	d.replicas = []*replica{r}
	d.target = r.srv.base
	d.times.admit = time.Since(t)
	d.times.total = time.Since(t0)
	return d, nil
}
