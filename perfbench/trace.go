package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ssnkit"
	"ssnkit/internal/colwire"
	"ssnkit/internal/device"
	"ssnkit/internal/pdn"
	"ssnkit/internal/pkgmodel"
	"ssnkit/internal/serve"
	"ssnkit/internal/spice"
	"ssnkit/internal/ssn"
	"ssnkit/internal/sweep"
)

// layerMetrics are the per-layer metrics a traced run reports, in
// BENCHMARK.json order. Unless the unit is a count or a ratio, each is the
// median per operation. README.md maps each to the end-to-end metric and
// workload it should move.
var layerMetrics = []struct{ name, unit string }{
	{"client.decode_ms", "ms"},
	{"client.bytes_in", "count"},
	{"client.network_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.handler_allocs", "count"},
	{"serve.handler_alloc_bytes", "count"},
	{"serve.overhead_ms", "ms"},
	{"serve.extract_cache.get_ns", "ns"},
	{"serve.plan_cache.get_ns", "ns"},
	{"serve.extract_cache.hit_ratio", "ratio"},
	{"serve.extract_cache.lookups", "count"},
	{"serve.impedance_cache.hit_ratio", "ratio"},
	{"serve.impedance_cache.lookups", "count"},
	{"serve.shed", "count"},
	{"device.spec_key_ns", "ns"},
	{"device.extract_us", "us"},
	{"ssn.max_ssn_ns", "ns"},
	{"ssn.plan_compile_ns", "ns"},
	{"ssn.lc_sensitivity_us", "us"},
	{"sweep.run_ms", "ms"},
	{"sweep.ns_per_point", "ns"},
	{"colwire.encode_ns_per_row", "ns"},
	{"colwire.decode_ns_per_row", "ns"},
	{"pkgmodel.build_us", "us"},
	{"pdn.new_sweeper_ms", "ms"},
	{"pdn.run_profile_ms", "ms"},
	{"pdn.ns_per_point", "ns"},
	{"spice.ac.new_ms", "ms"},
	{"spice.ac.unknowns", "count"},
	{"spice.ac.impedance_us", "us"},
	{"spice.ac.impedance_sens_us", "us"},
	{"spice.transient.simulate_ms", "ms"},
	{"experiments.fig1_ms", "ms"},
	{"experiments.fig2_ms", "ms"},
	{"experiments.fig3_ms", "ms"},
	{"experiments.fig4_ms", "ms"},
	{"experiments.table1_ms", "ms"},
	{"experiments.ablation-a_ms", "ms"},
	{"experiments.ablation-r_ms", "ms"},
	{"experiments.ext-process_ms", "ms"},
	{"experiments.ext-rail_ms", "ms"},
	{"experiments.ext-delay_ms", "ms"},
	{"experiments.ext-resonance_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// Replay sizes: how many generated requests of client 0 each layer replay
// takes (one full size cycle for the sweep and impedance generators).
const (
	replayMaxSSN    = 64
	replaySweep     = 7
	replayImpedance = 20
	replayRepro     = 3
)

// span is one traced interval; times are ns since the run's trace start.
// Parent is the index of the causing span (-1 for a root), Op the
// operation the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// traceRun keeps spans and per-operation values in memory and writes the
// spans out when the run ends.
type traceRun struct {
	t0                time.Time
	spans             []span
	ops               int
	vals              map[string][]float64 // per-operation values by metric name
	fixed             map[string]float64   // counts and computed metrics
	per               [][]sample           // served traffic of both halves per client, checked in finish
	group             int                  // requests per served operation
	attempted, failed int                  // operations; paper-repro counts them as it goes
	layerSum          map[*request]float64 // per request: time inside the replayed layers, ms
	handler           map[*request]float64 // per request: in-process handler time, ms
}

func newTraceRun() *traceRun {
	return &traceRun{
		t0:       time.Now(),
		vals:     map[string][]float64{},
		fixed:    map[string]float64{},
		layerSum: map[*request]float64{},
		handler:  map[*request]float64{},
	}
}

func (t *traceRun) nextOp() int { t.ops++; return t.ops }

func (t *traceRun) at(ts time.Time) int64 { return ts.Sub(t.t0).Nanoseconds() }

func (t *traceRun) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, Start: t.at(time.Now()), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *traceRun) end(id int) time.Duration {
	t.spans[id].End = t.at(time.Now())
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

func (t *traceRun) add(name string, v float64) { t.vals[name] = append(t.vals[name], v) }

// sink keeps replayed results observable so no call is optimized away.
var sink float64

func half(o options) time.Duration { return time.Duration(o.seconds / 2 * float64(time.Second)) }

// measureServed runs the timed window in two halves on the same server:
// untraced, then traced. The difference of their median operation times is
// the tracing overhead; client spans come from the traced half, cache
// ratios from /metrics deltas over the whole window.
func (t *traceRun) measureServed(o options, group int, srv *server, clients []*client) error {
	before, err := srv.scrape()
	if err != nil {
		return err
	}
	plain, _ := runClients(clients, group, 0, time.Now().Add(half(o)))
	for _, c := range clients {
		c.traced = true
	}
	traced, _ := runClients(clients, group, 0, time.Now().Add(half(o)))
	after, err := srv.scrape()
	if err != nil {
		return err
	}
	t.group = group
	for c := range plain {
		t.per = append(t.per, append(plain[c], traced[c]...))
	}
	shed := 0.0
	for _, s := range flatten(traced) {
		op := t.nextOp()
		root := len(t.spans)
		t.spans = append(t.spans,
			span{Name: "client.op", Start: t.at(s.start), End: t.at(s.start.Add(s.lat)), Parent: -1, Op: op},
			span{Name: "client.network", Start: t.at(s.start), End: t.at(s.start.Add(s.wait)), Parent: root, Op: op},
			span{Name: "client.decode", Start: t.at(s.start.Add(s.wait)), End: t.at(s.start.Add(s.lat)), Parent: root, Op: op})
		t.add("client.decode_ms", float64(s.lat-s.wait)/1e6)
		t.add("client.bytes_in", float64(s.bytesIn))
		if s.status == http.StatusTooManyRequests {
			shed++
		}
	}
	t.fixed["client.p50_ms"] = median(summarize(traced, 1).lats) // per request, like serve.handler_ms
	t.fixed["trace.overhead_ms"] = median(summarize(traced, group).lats) - median(summarize(plain, group).lats)
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("ssnserve_cache_hits_total"), delta("ssnserve_cache_misses_total")
	t.ratio("serve.extract_cache", hits, hits+misses)
	ih := delta(`ssnserve_impedance_cache_total{outcome="hit"}`)
	im := delta(`ssnserve_impedance_cache_total{outcome="miss"}`)
	t.ratio("serve.impedance_cache", ih, ih+im)
	for name := range after {
		if strings.HasPrefix(name, "ssnserve_admission_shed_total") {
			shed += delta(name)
		}
	}
	t.fixed["serve.shed"] = shed
	return nil
}

// ratio records hits over lookups with its base; no lookups reads 0.
func (t *traceRun) ratio(prefix string, hits, lookups float64) {
	t.fixed[prefix+".lookups"] = lookups
	if lookups > 0 {
		t.fixed[prefix+".hit_ratio"] = hits / lookups
	} else {
		t.fixed[prefix+".hit_ratio"] = 0
	}
}

// measureRepro is measureServed for the in-process workload: the client is
// the caller, its bytes are the CSVs, its decode is parsing them.
func (t *traceRun) measureRepro(o options, want [][][]string) error {
	var lat0, lat1 []float64
	for _, tracing := range []bool{false, true} {
		deadline := time.Now().Add(half(o))
		for time.Now().Before(deadline) {
			start := time.Now()
			var op, root int
			var hook func(string, time.Duration)
			if tracing {
				op = t.nextOp()
				root = t.begin("paper-repro.op", -1, op)
				hook = t.artifactSpans(root, op)
			}
			r, err := reproduce(hook)
			if err != nil {
				return err
			}
			lat := float64(time.Since(start)) / 1e6
			if !tracing {
				lat0 = append(lat0, lat)
			} else {
				t.end(root)
				lat1 = append(lat1, lat)
				id := t.begin("client.decode", root, op)
				n := 0
				for _, b := range r.csv {
					n += len(b)
					if _, err := csv.NewReader(bytes.NewReader(b)).ReadAll(); err != nil {
						return err
					}
				}
				t.add("client.decode_ms", float64(t.end(id))/1e6)
				t.add("client.bytes_in", float64(n))
			}
			if err := checkReproduction(r, want); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: reproduction:", err)
				t.failed++
			}
			t.attempted++
		}
	}
	t.fixed["trace.overhead_ms"] = median(lat1) - median(lat0)
	// No server on the path: no cache or admission queue either.
	t.ratio("serve.extract_cache", 0, 0)
	t.ratio("serve.impedance_cache", 0, 0)
	t.fixed["serve.shed"] = 0
	return nil
}

// replayRequests draws the first n requests of client 0 of a workload.
func replayRequests(workload string, seed uint64, n int) []*request {
	g := servedWorkloads[workload].newGen(seed, 0)
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = g.next()
	}
	return reqs
}

// replayHandler sends requests through an in-process server's handler,
// recording time and allocations per request.
func (t *traceRun) replayHandler(reqs []*request) error {
	h := serve.New(serve.Config{}).Handler()
	var ms runtime.MemStats
	for _, req := range reqs {
		op := t.nextOp()
		hr := httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body))
		hr.Header.Set("Content-Type", "application/json")
		if req.accept != "" {
			hr.Header.Set("Accept", req.accept)
		}
		rec := httptest.NewRecorder()
		runtime.ReadMemStats(&ms)
		mallocs, bytesAlloc := ms.Mallocs, ms.TotalAlloc
		id := t.begin("serve.handler", -1, op)
		h.ServeHTTP(rec, hr)
		d := t.end(id)
		runtime.ReadMemStats(&ms)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("replay %s: status %d: %s", req.path, rec.Code, rec.Body.String())
		}
		t.handler[req] = float64(d) / 1e6
		t.add("serve.handler_ms", float64(d)/1e6)
		t.add("serve.handler_allocs", float64(ms.Mallocs-mallocs))
		t.add("serve.handler_alloc_bytes", float64(ms.TotalAlloc-bytesAlloc))
	}
	return nil
}

// replayMaxSSN times the per-item layers of /v1/maxssn batches.
func (t *traceRun) replayMaxSSN(chk *checker, reqs []*request) error {
	ec := serve.NewExtractCache(64, nil)
	pc := serve.NewPlanCache(4096)
	distinct := map[device.ExtractSpec]bool{}
	for _, req := range reqs {
		op := t.nextOp()
		root := t.begin("replay.maxssn", -1, op)
		n := float64(len(req.items))
		specs := make([]device.ExtractSpec, len(req.items))
		ps := make([]ssn.Params, len(req.items))
		for i, it := range req.items {
			var err error
			if specs[i], err = itemSpec(it); err != nil {
				return err
			}
			if ps[i], err = chk.params(it); err != nil {
				return err
			}
			distinct[specs[i]] = true
		}
		sum := 0.0
		id := t.begin("device.spec_key", root, op)
		for _, s := range specs {
			sink += float64(len(s.Key()))
		}
		d := t.end(id)
		sum += float64(d)
		t.add("device.spec_key_ns", float64(d)/n)
		id = t.begin("serve.extract_cache.get", root, op)
		for _, s := range specs {
			m, _, err := ec.Get(s)
			if err != nil {
				return err
			}
			sink += m.K
		}
		d = t.end(id)
		sum += float64(d)
		t.add("serve.extract_cache.get_ns", float64(d)/n)
		id = t.begin("serve.plan_cache.get", root, op)
		for _, p := range ps {
			v, _, _, _ := pc.Get(p)
			sink += v
		}
		d = t.end(id)
		sum += float64(d)
		t.add("serve.plan_cache.get_ns", float64(d)/n)
		id = t.begin("ssn.max_ssn", root, op)
		for _, p := range ps {
			v, _, _ := ssn.MaxSSN(p)
			sink += v
		}
		t.add("ssn.max_ssn_ns", float64(t.end(id))/n)
		id = t.begin("ssn.plan_compile", root, op)
		var pl ssn.Plan
		for _, p := range ps {
			_ = pl.Compile(p, ssn.PlanFixed) // every generated point is valid
			sink += pl.VMax()
		}
		t.add("ssn.plan_compile_ns", float64(t.end(id))/n)
		for i, it := range req.items {
			if !it.Sensitivity {
				continue
			}
			id = t.begin("ssn.lc_sensitivity", root, op)
			s, err := ssn.LCSensitivity(ps[i], 0)
			if err != nil {
				return err
			}
			sink += s.DVdN
			d = t.end(id)
			sum += float64(d)
			t.add("ssn.lc_sensitivity_us", float64(d)/1e3)
		}
		t.end(root)
		t.layerSum[req] = sum / 1e6
	}
	for spec := range distinct {
		id := t.begin("device.extract", -1, t.nextOp())
		m, _, err := spec.Extract()
		if err != nil {
			return err
		}
		sink += m.K
		t.add("device.extract_us", float64(t.end(id))/1e3)
	}
	return nil
}

// replaySweep times sweep.Run with a discard sink and the SSNC codec on
// the rows of the same grids.
func (t *traceRun) replaySweep(chk *checker, reqs []*request) error {
	var stream, buf []byte
	for _, req := range reqs {
		sb := req.sweep
		base, err := chk.params(sb.Params)
		if err != nil {
			return err
		}
		g := sweep.Grid{Base: base}
		for _, a := range sb.Axes {
			g.Axes = append(g.Axes, sweep.Axis{Name: a.Axis, From: a.From, To: a.To, Points: a.Points, Log: a.Log})
		}
		op := t.nextOp()
		root := t.begin("replay.sweep", -1, op)
		id := t.begin("sweep.run", root, op)
		if _, err := sweep.Run(context.Background(), g, sweep.Config{}, func(sweep.Point) error { return nil }); err != nil {
			return err
		}
		d := t.end(id)
		rows := float64(g.Total())
		t.layerSum[req] = float64(d) / 1e6
		t.add("sweep.run_ms", float64(d)/1e6)
		t.add("sweep.ns_per_point", float64(d)/rows)

		cols := make([][]float64, 5)
		if _, err := sweep.Run(context.Background(), g, sweep.Config{}, func(p sweep.Point) error {
			cols[0] = append(cols[0], p.Values[0])
			cols[1] = append(cols[1], p.Values[1])
			cols[2] = append(cols[2], p.VMax)
			cols[3] = append(cols[3], float64(p.Case))
			cols[4] = append(cols[4], float64(p.Depth))
			return nil
		}); err != nil {
			return err
		}
		names := []string{sb.Axes[0].Axis, sb.Axes[1].Axis, "vmax", "case_code", "depth"}
		stream = stream[:0]
		id = t.begin("colwire.encode", root, op)
		for lo := 0; lo < len(cols[0]); lo += 1024 {
			hi := min(lo+1024, len(cols[0]))
			blk := colwire.Block{Columns: make([]colwire.Column, len(cols))}
			for k := range cols {
				blk.Columns[k] = colwire.Column{Name: names[k], Values: cols[k][lo:hi]}
			}
			if buf, err = blk.AppendTo(buf[:0]); err != nil {
				return err
			}
			stream = append(stream, buf...)
		}
		t.add("colwire.encode_ns_per_row", float64(t.end(id))/rows)
		id = t.begin("colwire.decode", root, op)
		for off := 0; off < len(stream); {
			blk, n, err := colwire.Decode(stream[off:])
			if err != nil {
				return err
			}
			sink += float64(blk.Rows())
			off += n
		}
		t.add("colwire.decode_ns_per_row", float64(t.end(id))/rows)
		t.end(root)
	}
	return nil
}

// replayImpedance times mesh synthesis, sweep-context construction, the
// profile sweep and the AC engine's per-frequency solves on each miss.
func (t *traceRun) replayImpedance(reqs []*request) error {
	ctx := context.Background()
	for _, req := range reqs {
		if req.hit {
			t.layerSum[req] = 0 // answered from the profile cache
			continue
		}
		ib := req.imp
		pkg, err := pkgmodel.ByName(ib.Package)
		if err != nil {
			return err
		}
		freqs, err := spice.FreqGrid(ib.From, ib.To, ib.Points, true)
		if err != nil {
			return err
		}
		op := t.nextOp()
		root := t.begin("replay.impedance", -1, op)
		id := t.begin("pkgmodel.build", root, op)
		grid := pkgmodel.DefaultPDN(pkg, ib.Rows, ib.Cols, ib.Pads)
		ckt, obs, err := grid.Build()
		if err != nil {
			return err
		}
		d := t.end(id)
		sum := float64(d)
		t.add("pkgmodel.build_us", float64(d)/1e3)
		id = t.begin("pdn.new_sweeper", root, op)
		sw, err := pdn.NewSweeper(grid, pdn.Config{Workers: runtime.GOMAXPROCS(0), WithSens: ib.WithSens})
		if err != nil {
			return err
		}
		d = t.end(id)
		sum += float64(d)
		t.add("pdn.new_sweeper_ms", float64(d)/1e6)
		id = t.begin("pdn.run_profile", root, op)
		prof, err := sw.RunProfile(ctx, freqs)
		if err != nil {
			return err
		}
		d = t.end(id)
		sum += float64(d)
		sink += prof.Peak().AbsZ
		t.add("pdn.run_profile_ms", float64(d)/1e6)
		t.add("pdn.ns_per_point", float64(d)/float64(len(freqs)))
		t.layerSum[req] = sum / 1e6

		id = t.begin("spice.ac.new", root, op)
		eng, err := spice.NewAC(ckt, spice.ACOptions{})
		if err != nil {
			return err
		}
		t.add("spice.ac.new_ms", float64(t.end(id))/1e6)
		t.add("spice.ac.unknowns", float64(eng.NumUnknowns()))
		var sens []spice.SensEntry
		for i, f := range freqs {
			w := 2 * math.Pi * f
			id = t.begin("spice.ac.impedance", root, op)
			z, err := eng.Impedance(w, obs)
			if err != nil {
				return err
			}
			sink += real(z)
			t.add("spice.ac.impedance_us", float64(t.end(id))/1e3)
			if i%8 == 0 {
				id = t.begin("spice.ac.impedance_sens", root, op)
				if z, sens, err = eng.ImpedanceSens(w, obs, sens); err != nil {
					return err
				}
				sink += real(z)
				t.add("spice.ac.impedance_sens_us", float64(t.end(id))/1e3)
			}
		}
		t.end(root)
	}
	return nil
}

// artifactSpans records each artifact harness of a reproduction as a span
// under root, ending when reproduce reports it.
func (t *traceRun) artifactSpans(root, op int) func(string, time.Duration) {
	return func(name string, d time.Duration) {
		now := time.Now()
		t.spans = append(t.spans, span{Name: "experiments." + name,
			Start: t.at(now.Add(-d)), End: t.at(now), Parent: root, Op: op})
		t.add("experiments."+name+"_ms", float64(d)/1e6)
	}
}

// replayRepro times each artifact harness and the transient engine on the
// Fig. 3 driver arrays.
func (t *traceRun) replayRepro() error {
	for k := 0; k < replayRepro; k++ {
		op := t.nextOp()
		root := t.begin("replay.paper-repro", -1, op)
		if _, err := reproduce(t.artifactSpans(root, op)); err != nil {
			return err
		}
		t.end(root)
	}
	for _, n := range []int{4, 8, 16, 32} {
		gnd := pkgmodel.PGA.Ground(1)
		gnd.C = 0
		cfg := ssnkit.ArrayConfig{Process: device.C018, N: n, Load: 20e-12, Ground: gnd, Rise: 1e-9, Merged: true}
		id := t.begin("spice.transient.simulate", -1, t.nextOp())
		res, err := ssnkit.Simulate(cfg, ssnkit.SimOptions{}, cfg.Rise/150, 0)
		if err != nil {
			return err
		}
		sink += res.MaxSSNWithinRamp()
		t.add("spice.transient.simulate_ms", float64(t.end(id))/1e6)
	}
	return nil
}

// measureLoopback sends reqs one at a time to a freshly spawned server and
// records their median time as the client's; the answers are checked like
// the workload's own.
func (t *traceRun) measureLoopback(bin string, chk *checker, reqs []*request) error {
	srv, err := startServer(bin)
	if err != nil {
		return err
	}
	c := &client{gen: &listGen{reqs: reqs}, http: newHTTPClient(), base: srv.base}
	per, _ := runClients([]*client{c}, 1, len(reqs), time.Time{})
	shutdown(srv, []*client{c})
	t.failed += checkSamples(chk, flatten(per))
	t.fixed["client.p50_ms"] = median(summarize(per, 1).lats)
	return nil
}

// finish checks the window's outputs, replays every layer, writes the
// spans and assembles the per-layer result.
func (t *traceRun) finish(o options, chk *checker, warmFailed int) (*result, error) {
	if t.per != nil {
		checkSamples(chk, flatten(t.per))
		s := summarize(t.per, t.group)
		t.attempted, t.failed = s.attempted, s.failed
	}
	own := o.workload
	if own == "paper-repro" {
		own = "maxssn-batch" // the handler replay needs a served workload
	}
	reqs := map[string][]*request{
		"maxssn-batch":  replayRequests("maxssn-batch", o.seed, replayMaxSSN),
		"sweep-stream":  replayRequests("sweep-stream", o.seed, replaySweep),
		"pdn-impedance": replayRequests("pdn-impedance", o.seed, replayImpedance),
	}
	steps := []func() error{
		func() error { return t.replayHandler(reqs[own]) },
		func() error { return t.replayMaxSSN(chk, reqs["maxssn-batch"]) },
		func() error { return t.replaySweep(chk, reqs["sweep-stream"]) },
		func() error { return t.replayImpedance(reqs["pdn-impedance"]) },
		t.replayRepro,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	var over []float64
	for _, req := range reqs[own] {
		over = append(over, t.handler[req]-t.layerSum[req])
	}
	t.fixed["serve.overhead_ms"] = median(over)
	if o.workload == "paper-repro" {
		// The workload has no server: send the handler replay's requests
		// over loopback so client.network_ms pairs with serve.handler_ms.
		if err := t.measureLoopback(o.server, chk, reqs[own]); err != nil {
			return nil, err
		}
	}
	t.fixed["client.network_ms"] = t.fixed["client.p50_ms"] - median(t.vals["serve.handler_ms"])

	m := map[string]metric{}
	for _, lm := range layerMetrics {
		v, ok := t.fixed[lm.name]
		if !ok {
			vs := t.vals[lm.name]
			if len(vs) == 0 {
				return nil, fmt.Errorf("traced run measured no %s", lm.name)
			}
			v = median(vs)
		}
		m[lm.name] = metric{v, lm.unit}
	}
	if err := t.writeSpans(o); err != nil {
		return nil, err
	}
	for _, lm := range layerMetrics {
		fmt.Printf("  %-32s %14.6g %s\n", lm.name, m[lm.name].Value, lm.unit)
	}
	return &result{Correct: t.failed == 0 && warmFailed == 0, Attempted: max(1, t.attempted), Failed: t.failed, Metrics: m}, nil
}

func (t *traceRun) writeSpans(o options) error {
	dir := filepath.Join(o.root, ".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(t.spans), path)
	return os.WriteFile(path, data, 0o644)
}
