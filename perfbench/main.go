// Command perfbench is the repository benchmark. It deploys reachlab
// in one process the way it is served — QueryHandler replicas behind
// net/http servers on loopback listeners, a sharded fleet router,
// an update-mode replica writing through a WAL — drives it over at
// most two connections, checks every answer after the timed window,
// and prints the metrics BENCHMARK.json names as one JSON line.
//
//	go run . --workload read-direct --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 interleaves
// traced and untraced sub-windows and prints the per-layer metrics,
// the layer budget table and the tracing overhead. README.md maps
// every metric to its layer and gives the reason for each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is one run's settings: the workload and seed from the
// command line and the sizes the workload implies.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory root (index files, WAL)

	directN, routedN int // graph sizes of the read-direct and read-routed graphs
	setups           int // set-ups per run; setup_s is their median
	warmup           time.Duration
	refreshEvery     time.Duration // 0 keeps the updater's default
	drain            time.Duration // longest wait for the last write to become visible
}

// Workload names (BENCHMARK.json; later changes cite them).
const (
	readDirect = "read-direct"
	readRouted = "read-routed"
	writeMix   = "write-mix"
)

// Settings every workload shares.
const (
	degree     = 4       // mean out-degree of the citation graphs
	cachePairs = 1 << 20 // hot-pair cache of every replica
	// writeRate is a quarter of the refresher's drain capacity at its
	// defaults (RefreshBatch/RefreshEvery = 1024 per 2 s = 512/s): the
	// backlog stays bounded, and a run still collects enough
	// acknowledgements for a 99th percentile.
	writeRate   = 128
	checkPairs  = 2000 // write-mix answers checked by BFS
	checkCounts = 50
)

func newConfig(workload string, seed int64, seconds float64, trace bool, work string, smoke bool) *config {
	c := &config{
		workload: workload, seed: seed, seconds: seconds, trace: trace, work: work,
		directN: 200_000, routedN: 50_000,
		setups: 3, warmup: time.Second,
		drain: 8 * time.Second,
	}
	if smoke {
		c.directN, c.routedN = 3000, 2000
		c.setups, c.warmup = 1, 100*time.Millisecond
		c.refreshEvery, c.drain = 200*time.Millisecond, 3*time.Second
	}
	return c
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "read-direct, read-routed or write-mix")
		seed     = flag.Int64("seed", 1, "workload seed: graph and request stream")
		seconds  = flag.Float64("seconds", 10, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 = traced run with per-layer metrics")
		work     = flag.String("work", ".bench_build", "directory for scratch files")
	)
	flag.Parse()
	switch *workload {
	case readDirect, readRouted, writeMix:
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := newConfig(*workload, *seed, *seconds, *trace == 1, *work, false)
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// scratchDir makes the run's private directory under cfg.work.
func scratchDir(cfg *config) (string, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return "", err
	}
	abs, err := filepath.Abs(cfg.work)
	if err != nil {
		return "", err
	}
	return os.MkdirTemp(abs, "perfbench-")
}
