// Command perfbench is ssnkit's end-to-end benchmark. It builds nothing
// itself (perfbench/run.sh builds it and cmd/ssnserve from source); it
// spawns ssnserve on loopback, drives one seeded workload against it in a
// closed loop, checks every response against an independent reference, and
// prints one JSON result line. The paper-repro workload runs the
// reproduction in-process instead of over HTTP.
//
//	bash perfbench/run.sh --workload maxssn-batch --seed 1 --seconds 25 --trace 0
//
// With --trace 1 it reports per-layer metrics instead: the workload's own
// traffic with client-side spans, plus a replay of the same generated
// inputs through each layer's public functions (see perfbench/README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	server   string // ssnserve binary
	root     string // checkout root: the committed out/*.csv live here
}

// workloadSpec describes one served workload.
type workloadSpec struct {
	clients int
	group   int    // requests per operation
	unit    string // what one unit of work is
	warmup  int    // warm-up requests per client
	newGen  func(seed uint64, client int) generator
}

var servedWorkloads = map[string]workloadSpec{
	"maxssn-batch": {clients: 2, group: 1, unit: "items", warmup: 40, newGen: func(seed uint64, c int) generator {
		return &maxssnGen{r: newRNG(seed, "maxssn-batch", c)}
	}},
	"sweep-stream": {clients: 1, group: 2, unit: "grid points", warmup: 8, newGen: func(seed uint64, c int) generator {
		return &sweepGen{r: newRNG(seed, "sweep-stream", c), sizes: [2]rotation{{}, {next: 3}}}
	}},
	"pdn-impedance": {clients: 2, group: 4, unit: "frequency points", warmup: 8, newGen: func(seed uint64, c int) generator {
		// Offset rotations keep the clients' large meshes apart.
		return &impGen{r: newRNG(seed, "pdn-impedance", c), sizes: [2]rotation{{next: 2 * c}, {next: 2 + 3*c}}}
	}},
}

// How many times a run sets up; setup_s is their median. A cold
// reproduction is short and its first-touch costs vary, so it repeats more.
const (
	setupRepeats = 5
	probeRepeats = 9
)

// reproGroup is how many reproductions one timed paper-repro operation runs
// back to back. A single reproduction (~55 ms, its artifacts fanned out over
// every core) is short enough that a few slow moments of a shared host set
// its p90; three in a row average them out.
const reproGroup = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var seed int64
	var trace int
	probe := flag.Bool("probe", false, "internal: time one cold reproduction and print its seconds")
	flag.StringVar(&o.workload, "workload", "", "maxssn-batch | sweep-stream | pdn-impedance | paper-repro")
	flag.Int64Var(&seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "timed window length")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.server, "server", "", "ssnserve binary")
	flag.StringVar(&o.root, "root", ".", "checkout root")
	flag.Parse()
	o.seed, o.trace = uint64(seed), trace == 1

	if *probe {
		start := time.Now()
		if _, err := reproduce(nil); err != nil {
			fail(err)
		}
		fmt.Println(time.Since(start).Seconds())
		return
	}

	var res *result
	var err error
	if o.workload == "paper-repro" {
		res, err = runRepro(o)
	} else if spec, ok := servedWorkloads[o.workload]; ok {
		if o.server == "" {
			fail(fmt.Errorf("-server is required for %s", o.workload))
		}
		res, err = runServed(o, spec)
	} else {
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[max(0, int(math.Ceil(float64(len(xs))*q))-1)]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// summary is the end-to-end view of one timed window.
type summary struct {
	attempted, failed int
	lats              []float64 // ms
	work              float64
	elapsed           float64 // s
}

func (s *summary) metrics(setup, rss float64) map[string]metric {
	return map[string]metric{
		"setup_s":        {setup, "s"},
		"latency_p50_ms": {quantile(s.lats, 0.5), "ms"},
		"latency_p90_ms": {quantile(s.lats, 0.9), "ms"},
		"work_per_s":     {s.work / s.elapsed, "work/s"},
		"peak_rss_mb":    {rss, "MB"},
	}
}

// report prints the human-readable lines and the failures, all before the
// JSON result line.
func report(workload, unit string, s *summary, m map[string]metric) {
	fmt.Printf("workload %s: %d attempted, %d failed, %d latency samples (%d beyond p90), work unit %s\n",
		workload, s.attempted, s.failed, len(s.lats), len(s.lats)-int(math.Ceil(0.9*float64(len(s.lats)))), unit)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-16s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	fmt.Printf("  %-16s %14.6g ratio\n", "error_rate", float64(s.failed)/float64(max(1, s.attempted)))
}

// flatten lists every sample of every client.
func flatten(per [][]sample) []*sample {
	var out []*sample
	for i := range per {
		for j := range per[i] {
			out = append(out, &per[i][j])
		}
	}
	return out
}

// checkSamples runs the output checks on NumCPU goroutines and returns how
// many samples failed, for any reason. The first few failures go to stderr.
func checkSamples(chk *checker, samples []*sample) int {
	var next, failed int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(samples) {
					return
				}
				s := samples[i]
				if s.err == nil {
					s.err = chk.check(s.req, s.resp)
				}
				s.resp = nil
				if s.err != nil {
					mu.Lock()
					failed++
					if failed <= 5 {
						fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", s.req.path, s.err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return failed
}

// runServed is one run of a served workload: set up (spawn, /healthz, a
// full-concurrency warm-up) setupRepeats times, keep the last server for
// the timed window, then check every output.
func runServed(o options, spec workloadSpec) (*result, error) {
	nc := max(1, min(spec.clients, runtime.NumCPU()))
	gens := make([]generator, nc)
	warm := make([][]*request, nc)
	for c := range gens {
		gens[c] = spec.newGen(o.seed, c)
		for i := 0; i < spec.warmup; i++ {
			warm[c] = append(warm[c], gens[c].next())
		}
	}
	chk := newChecker()
	repeats := setupRepeats
	if o.trace {
		repeats = 1
	}
	var setups []float64
	var srv *server
	var clients []*client
	warmFailed := 0
	for k := 0; k < repeats; k++ {
		start := time.Now()
		var err error
		if srv, err = startServer(o.server); err != nil {
			return nil, err
		}
		clients = make([]*client, nc)
		for c := range clients {
			clients[c] = &client{gen: &listGen{reqs: warm[c]}, http: newHTTPClient(), base: srv.base}
		}
		per, _ := runClients(clients, spec.group, spec.warmup, time.Time{})
		setups = append(setups, time.Since(start).Seconds())
		// Warm-up answers are checked too: a cache entry poisoned now
		// would serve wrong answers for the rest of the run.
		warmFailed += checkSamples(chk, flatten(per))
		if k < repeats-1 {
			shutdown(srv, clients)
		}
	}
	defer shutdown(srv, clients)
	for c := range clients {
		clients[c].gen = gens[c]
	}

	if o.trace {
		tr := newTraceRun()
		err := tr.measureServed(o, spec.group, srv, clients)
		shutdown(srv, clients) // free the cores for the replay
		if err != nil {
			return nil, err
		}
		return tr.finish(o, chk, warmFailed)
	}
	start := time.Now()
	per, last := runClients(clients, spec.group, 0, start.Add(time.Duration(o.seconds*float64(time.Second))))
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	shutdown(srv, clients) // free the cores for the checks
	checkSamples(chk, flatten(per))
	s := summarize(per, spec.group)
	s.elapsed = last.Sub(start).Seconds()
	m := s.metrics(median(setups), rss)
	report(o.workload, spec.unit, &s, m)
	if warmFailed > 0 {
		fmt.Printf("  warm-up failures: %d\n", warmFailed)
	}
	return &result{Correct: s.failed == 0 && warmFailed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: m}, nil
}

// shutdown closes the clients' connections and stops the server; calling
// it again is harmless.
func shutdown(srv *server, clients []*client) {
	for _, c := range clients {
		c.http.CloseIdleConnections()
	}
	srv.stop()
}

// runRepro is one run of paper-repro: setup_s is the median of
// probeRepeats cold reproductions, each in a fresh process; then one
// untimed reproduction in this process, then the timed window.
func runRepro(o options) (*result, error) {
	want, err := expectedCSVs(o.root)
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setups []float64
	for k := 0; k < probeRepeats; k++ {
		out, err := exec.Command(self, "-probe").Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		setups = append(setups, v)
	}
	first, err := reproduce(nil)
	if err != nil {
		return nil, err
	}
	warmFailed := 0
	if err := checkReproduction(first, want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: warm-up reproduction:", err)
		warmFailed = 1
	}
	if o.trace {
		tr := newTraceRun()
		if err := tr.measureRepro(o, want); err != nil {
			return nil, err
		}
		return tr.finish(o, newChecker(), warmFailed)
	}

	// Each output is held to the warm-up's, which passed the full check,
	// byte for byte; only one that differs takes the full check. Nothing is
	// kept across operations, so the process's peak RSS does not grow with
	// the number of operations the window holds.
	var s summary
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	var last time.Time
	for time.Now().Before(deadline) {
		t0 := time.Now()
		rs := make([]*reproduction, reproGroup)
		for i := range rs {
			if rs[i], err = reproduce(nil); err != nil {
				return nil, err
			}
		}
		last = time.Now()
		s.lats = append(s.lats, float64(last.Sub(t0))/1e6)
		s.attempted++
		failed := false
		for _, r := range rs {
			if warmFailed > 0 || !sameReproduction(r, first) {
				if err := checkReproduction(r, want); err != nil {
					failed = true
					fmt.Fprintln(os.Stderr, "perfbench: reproduction:", err)
				}
			}
		}
		if failed {
			s.failed++
			continue
		}
		s.work += reproGroup
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	s.elapsed = last.Sub(start).Seconds()
	m := s.metrics(median(setups), rss)
	report(o.workload, "reproductions", &s, m)
	return &result{Correct: s.failed == 0 && warmFailed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: m}, nil
}
