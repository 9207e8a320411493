package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	"ssnkit/internal/device"
	"ssnkit/internal/pdn"
	"ssnkit/internal/pkgmodel"
	"ssnkit/internal/spice"
	"ssnkit/internal/ssn"
)

// Output checks. References come from the scalar public functions, never
// from the server's caches or batch kernels, and are computed after the
// timed window. The comparisons follow the repository's stated contracts:
//
//   - /v1/maxssn and /v1/sweep: bit-exact against scalar ssn.MaxSSN,
//     ssn.LCSensitivity and Params.Beta (DESIGN.md §15);
//   - /v1/impedance: |Z| within the symbolic-vs-dense band of DESIGN.md §17
//     against pdn.RunProfile, and identical bits for identical requests
//     whichever format (NDJSON or SSNC) carried them.

// impedanceTol is the DESIGN.md §17 band (acSweepDenseTol) on |Z|.
const impedanceTol = 1e-6

// coordTol bounds reported sweep and frequency coordinates against the
// benchmark's own spacing; the model outputs are then checked bit-exactly
// at the coordinates the server reported.
const coordTol = 1e-12

type checker struct {
	mu    sync.Mutex
	asdm  map[device.ExtractSpec]*asdmRef
	prof  map[string]*profRef
	first map[string][]float64 // impedance body -> |Z| bits of its first response
}

type asdmRef struct {
	once sync.Once
	m    device.ASDM
	err  error
}

type profRef struct {
	once sync.Once
	p    *pdn.Profile
	err  error
}

func newChecker() *checker {
	return &checker{
		asdm:  map[device.ExtractSpec]*asdmRef{},
		prof:  map[string]*profRef{},
		first: map[string][]float64{},
	}
}

// check compares one decoded response with its reference.
func (c *checker) check(req *request, resp any) error {
	switch r := resp.(type) {
	case *maxssnResp:
		return c.checkMaxSSN(req.items, r)
	case *sweepResp:
		return c.checkSweep(req.sweep, r)
	case *impResp:
		return c.checkImpedance(req, r)
	}
	return fmt.Errorf("no check for %T", resp)
}

func (c *checker) extract(spec device.ExtractSpec) (device.ASDM, error) {
	c.mu.Lock()
	e, ok := c.asdm[spec]
	if !ok {
		e = &asdmRef{}
		c.asdm[spec] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.m, _, e.err = spec.Extract() })
	return e.m, e.err
}

// itemSpec names the extraction a wire item asks for.
func itemSpec(it wireItem) (device.ExtractSpec, error) {
	corner, err := device.CornerByName(it.Corner)
	return device.ExtractSpec{Process: it.Process, Corner: corner, Rail: it.Rail, Size: it.Size}, err
}

// params resolves a wire item the way the API documents it: the device by
// extraction at the item's process corner, the supply from the kit, the
// ground net from the package class, the slope from the rise time.
func (c *checker) params(it wireItem) (ssn.Params, error) {
	spec, err := itemSpec(it)
	if err != nil {
		return ssn.Params{}, err
	}
	dev, err := c.extract(spec)
	if err != nil {
		return ssn.Params{}, err
	}
	vdd, err := spec.Vdd()
	if err != nil {
		return ssn.Params{}, err
	}
	pkg, err := pkgmodel.ByName(it.Package)
	if err != nil {
		return ssn.Params{}, err
	}
	gnd := pkg.Ground(it.Pads)
	return ssn.Params{N: it.N, Dev: dev, Vdd: vdd, Slope: vdd / it.RiseTime, L: gnd.L, C: gnd.C}, nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func within(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

func (c *checker) checkMaxSSN(items []wireItem, r *maxssnResp) error {
	if r.Count != len(items) || len(r.Results) != len(items) {
		return fmt.Errorf("batch: %d results (count %d) for %d items", len(r.Results), r.Count, len(items))
	}
	for i, it := range items {
		got := r.Results[i]
		if got.Index != i {
			return fmt.Errorf("item %d: index %d", i, got.Index)
		}
		if got.Error != nil {
			return fmt.Errorf("item %d: error %s", i, got.Error)
		}
		p, err := c.params(it)
		if err != nil {
			return fmt.Errorf("item %d: reference: %v", i, err)
		}
		m, err := ssn.NewLCModel(p)
		if err != nil {
			return fmt.Errorf("item %d: reference: %v", i, err)
		}
		vmax, cse, err := ssn.MaxSSN(p)
		if err != nil {
			return fmt.Errorf("item %d: reference: %v", i, err)
		}
		if !sameBits(got.VMax, vmax) || got.CaseCode != int(cse) || got.Case != cse.String() {
			return fmt.Errorf("item %d: vmax %v (%s) want %v (%s)", i, got.VMax, got.Case, vmax, cse)
		}
		if !sameBits(got.Beta, p.Beta()) {
			return fmt.Errorf("item %d: beta %v want %v", i, got.Beta, p.Beta())
		}
		zeta := p.DampingRatio()
		finite := !math.IsInf(zeta, 0) && !math.IsNaN(zeta)
		if (got.Zeta != nil) != finite || (finite && !within(*got.Zeta, zeta, coordTol)) {
			return fmt.Errorf("item %d: zeta %v want %v", i, got.Zeta, zeta)
		}
		if !within(got.TMax, m.VMaxTime(), coordTol) {
			return fmt.Errorf("item %d: t_max %v want %v", i, got.TMax, m.VMaxTime())
		}
		if (got.Sens != nil) != it.Sensitivity {
			return fmt.Errorf("item %d: sensitivity presence %v, asked %v", i, got.Sens != nil, it.Sensitivity)
		}
		if it.Sensitivity {
			s, err := ssn.LCSensitivity(p, 0)
			if err != nil {
				return fmt.Errorf("item %d: reference sensitivity: %v", i, err)
			}
			g := got.Sens
			for k, pair := range [][2]float64{
				{g.DVdN, s.DVdN}, {g.DVdL, s.DVdL}, {g.DVdS, s.DVdS}, {g.DVdC, s.DVdC},
				{g.RelN, s.RelN}, {g.RelL, s.RelL}, {g.RelS, s.RelS}, {g.RelC, s.RelC},
			} {
				if !sameBits(pair[0], pair[1]) {
					return fmt.Errorf("item %d: sensitivity field %d = %v want %v", i, k, pair[0], pair[1])
				}
			}
		}
	}
	return nil
}

// axisCoords is the documented axis spacing: Points samples from From to
// To, linear or logarithmic, the last pinned at To.
func axisCoords(a wireAxis) []float64 {
	vs := make([]float64, a.Points)
	for i := range vs {
		t := float64(i) / float64(a.Points-1)
		if a.Log {
			vs[i] = math.Exp(math.Log(a.From) + (math.Log(a.To)-math.Log(a.From))*t)
		} else {
			vs[i] = a.From + (a.To-a.From)*t
		}
	}
	vs[a.Points-1] = a.To
	return vs
}

func applyAxis(p *ssn.Params, axis string, v float64) {
	switch axis {
	case "n":
		p.N = int(v)
	case "l":
		p.L = v
	case "c":
		p.C = v
	case "slope":
		p.Slope = v
	case "tr":
		p.Slope = p.Vdd / v
	}
}

func (c *checker) checkSweep(sb *sweepBody, r *sweepResp) error {
	outer, inner := sb.Axes[0].Points, sb.Axes[1].Points
	total := outer * inner
	if len(r.vmax) != total {
		return fmt.Errorf("sweep: %d points, want %d", len(r.vmax), total)
	}
	if r.stats.GridPoints != total || r.stats.Evaluated != total || r.stats.Errors != 0 || r.stats.RefinedPoints != 0 {
		return fmt.Errorf("sweep: summary %+v for a %d-point grid", r.stats, total)
	}
	base, err := c.params(sb.Params)
	if err != nil {
		return fmt.Errorf("sweep: reference: %v", err)
	}
	coords := [2][]float64{axisCoords(sb.Axes[0]), axisCoords(sb.Axes[1])}
	for k := 0; k < total; k++ {
		p := base
		for a, idx := range [2]int{k / inner, k % inner} {
			got, want := r.vals[a][k], coords[a][idx]
			if sb.Axes[a].Axis == "n" {
				want = math.Max(1, math.Round(want))
				if got != want {
					return fmt.Errorf("sweep point %d: n = %v want %v", k, got, want)
				}
			} else if !within(got, want, coordTol) {
				return fmt.Errorf("sweep point %d: %s = %v want %v", k, sb.Axes[a].Axis, got, want)
			}
			applyAxis(&p, sb.Axes[a].Axis, got)
		}
		vmax, cse, err := ssn.MaxSSN(p)
		if err != nil {
			return fmt.Errorf("sweep point %d: reference: %v", k, err)
		}
		if !sameBits(r.vmax[k], vmax) || r.cse[k] != float64(cse) || r.depth[k] != 0 {
			return fmt.Errorf("sweep point %d: vmax %v case %v depth %v, want %v case %d",
				k, r.vmax[k], r.cse[k], r.depth[k], vmax, cse)
		}
	}
	return nil
}

// profile computes (once per distinct request) the in-process reference
// impedance profile.
func (c *checker) profile(req *request) (*pdn.Profile, error) {
	key := string(req.body)
	c.mu.Lock()
	e, ok := c.prof[key]
	if !ok {
		e = &profRef{}
		c.prof[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		ib := req.imp
		pkg, err := pkgmodel.ByName(ib.Package)
		if err != nil {
			e.err = err
			return
		}
		freqs, err := spice.FreqGrid(ib.From, ib.To, ib.Points, true)
		if err != nil {
			e.err = err
			return
		}
		grid := pkgmodel.DefaultPDN(pkg, ib.Rows, ib.Cols, ib.Pads)
		e.p, e.err = pdn.RunProfile(context.Background(), grid, freqs, pdn.Config{Workers: 1, WithSens: ib.WithSens})
	})
	return e.p, e.err
}

func (c *checker) checkImpedance(req *request, r *impResp) error {
	ref, err := c.profile(req)
	if err != nil {
		return fmt.Errorf("impedance: reference: %v", err)
	}
	n := len(ref.Points)
	if len(r.zmag) != n || r.stats.Points != n {
		return fmt.Errorf("impedance: %d points (summary %d), want %d", len(r.zmag), r.stats.Points, n)
	}
	peak := 0
	for i, pt := range ref.Points {
		if !within(r.freq[i], pt.Freq, coordTol) {
			return fmt.Errorf("impedance point %d: freq %v want %v", i, r.freq[i], pt.Freq)
		}
		if !within(r.zmag[i], pt.AbsZ, impedanceTol) ||
			math.Abs(r.zre[i]-real(pt.Z)) > impedanceTol*pt.AbsZ ||
			math.Abs(r.zim[i]-imag(pt.Z)) > impedanceTol*pt.AbsZ {
			return fmt.Errorf("impedance point %d: Z = %v%+vi |Z| = %v, want %v |Z| = %v",
				i, r.zre[i], r.zim[i], r.zmag[i], pt.Z, pt.AbsZ)
		}
		if r.zmag[i] > r.zmag[peak] {
			peak = i
		}
		if req.imp.WithSens {
			if len(r.sens) != n {
				return fmt.Errorf("impedance: %d points carry sensitivities, want %d", len(r.sens), n)
			}
			if err := checkSens(i, r, pt.Sens); err != nil {
				return err
			}
		}
	}
	if !sameBits(r.stats.PeakZ, r.zmag[peak]) || !sameBits(r.stats.PeakFreq, r.freq[peak]) || r.stats.Workers < 1 {
		return fmt.Errorf("impedance: summary %+v, want peak %v at %v", r.stats, r.zmag[peak], r.freq[peak])
	}
	key := string(req.body)
	c.mu.Lock()
	first, seen := c.first[key]
	if !seen {
		c.first[key] = r.zmag
	}
	c.mu.Unlock()
	if seen {
		for i := range first {
			if !sameBits(first[i], r.zmag[i]) {
				return fmt.Errorf("impedance point %d: |Z| %v differs from %v for the same request", i, r.zmag[i], first[i])
			}
		}
	}
	return nil
}

func checkSens(i int, r *impResp, want []spice.SensEntry) error {
	if len(r.sensNames) != len(want) {
		return fmt.Errorf("impedance point %d: %d sensitivities, want %d", i, len(r.sensNames), len(want))
	}
	scale := 0.0
	for _, w := range want {
		scale = math.Max(scale, math.Abs(w.DAbs))
	}
	got := r.sens[i]
	for k, w := range want {
		value, dabs := got[2*k], got[2*k+1]
		if r.sensNames[k] != w.Name || r.sensKinds[k] != string(w.Kind) || !within(value, w.Value, coordTol) ||
			math.Abs(dabs-w.DAbs) > impedanceTol*math.Max(math.Abs(w.DAbs), 1e-3*scale) {
			return fmt.Errorf("impedance point %d: sensitivity %d = %s %s %v d|Z| %v, want %+v",
				i, k, r.sensKinds[k], r.sensNames[k], value, dabs, w)
		}
	}
	return nil
}
