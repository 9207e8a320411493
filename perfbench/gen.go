package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"ssnkit/internal/colwire"
)

// A request is one generated operation: the exact bytes a client sends plus
// the decoded input the output check needs. Requests depend only on the
// seed, the workload, the client number and the client's earlier requests,
// so the same seed gives a byte-identical sequence per client.
type request struct {
	path   string
	body   []byte
	accept string // "" asks for the route's JSON/NDJSON default
	work   int    // work units the request asks for

	items []wireItem // maxssn-batch
	sweep *sweepBody // sweep-stream
	imp   *impBody   // pdn-impedance
	hit   bool       // pdn-impedance: repeats an earlier request
}

// generator yields one client's request sequence.
type generator interface{ next() *request }

// newRNG derives an independent stream per (seed, workload, client).
func newRNG(seed uint64, workload string, client int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewPCG(seed, h.Sum64()^uint64(client+1)*0x9e3779b97f4a7c15))
}

func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
}

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.IntN(len(xs))] }

// rotation deals a fixed list of sizes round-robin. A request's size is
// what its latency mostly depends on; a fixed, interleaved order gives every
// run the same size mix at every point of its window, so the seed varies the
// instances (devices, nets, ranges, frequency grids) but not the shape of
// the load.
type rotation struct{ next int }

func (r *rotation) draw(vals []int) int {
	v := vals[r.next%len(vals)]
	r.next++
	return v
}

var (
	processes = []string{"c018", "c025", "c035"}
	corners   = []string{"tt", "ss", "ff"}
	sizes     = []float64{1, 2, 4}
	packages  = []string{"pga", "qfp", "bga", "cob"}
)

// wireItem is one /v1/maxssn item, and the fixed parameters of a sweep.
type wireItem struct {
	Process     string  `json:"process"`
	Corner      string  `json:"corner"`
	Rail        bool    `json:"rail,omitempty"`
	Size        float64 `json:"size"`
	N           int     `json:"n"`
	Package     string  `json:"package"`
	Pads        int     `json:"pads"`
	RiseTime    float64 `json:"rise_time"`
	Sensitivity bool    `json:"sensitivity,omitempty"`
}

// randomItem draws a device over the 3 processes x 3 corners x rail x 3
// sizes (54 extraction specs, below the server's 64-entry cache) and a
// ground net and edge over the package catalog.
func randomItem(r *rand.Rand) wireItem {
	return wireItem{
		Process:  pick(r, processes),
		Corner:   pick(r, corners),
		Rail:     r.IntN(2) == 1,
		Size:     pick(r, sizes),
		N:        1 + r.IntN(256),
		Package:  pick(r, packages),
		Pads:     1 + r.IntN(4),
		RiseTime: logUniform(r, 0.1e-9, 10e-9),
	}
}

// --- maxssn-batch ---------------------------------------------------------

const batchItems = 64

type maxssnGen struct{ r *rand.Rand }

func (g *maxssnGen) next() *request {
	items := make([]wireItem, batchItems)
	sensAt := g.r.IntN(8) // sensitivity on exactly 1 item in 8
	for i := range items {
		items[i] = randomItem(g.r)
		items[i].Sensitivity = i%8 == sensAt
	}
	body, _ := json.Marshal(struct {
		Items []wireItem `json:"items"`
	}{items}) // plain structs of numbers and strings always marshal
	return &request{path: "/v1/maxssn", body: body, work: len(items), items: items}
}

// --- sweep-stream ---------------------------------------------------------

type wireAxis struct {
	Axis   string  `json:"axis"`
	From   float64 `json:"from"`
	To     float64 `json:"to"`
	Points int     `json:"points"`
	Log    bool    `json:"log,omitempty"`
}

type sweepBody struct {
	Params wireItem   `json:"params"`
	Axes   []wireAxis `json:"axes"`
}

// sweepTotals are the grid sizes a sweep-stream client requests, dealt by
// one rotation per response format.
var sweepTotals = []int{4096, 24576, 8192, 32768, 6144, 16384, 12288}

// sweepAxisPairs are the two-axis combinations; "edge" is tr or slope.
var sweepAxisPairs = [][2]string{
	{"n", "c"}, {"n", "l"}, {"n", "edge"}, {"c", "l"}, {"c", "edge"}, {"l", "edge"},
}

type sweepGen struct {
	r     *rand.Rand
	i     int
	sizes [2]rotation // by format: NDJSON, SSNC
}

func randomAxis(r *rand.Rand, name string, points int) wireAxis {
	jitter := func() float64 { return logUniform(r, 0.8, 1.25) }
	switch name {
	case "n":
		return wireAxis{Axis: "n", From: 1, To: float64(128 + r.IntN(129)), Points: points}
	case "c":
		return wireAxis{Axis: "c", From: 0.1e-12 * jitter(), To: 50e-12 * jitter(), Points: points, Log: true}
	case "l":
		return wireAxis{Axis: "l", From: 0.2e-9 * jitter(), To: 20e-9 * jitter(), Points: points, Log: true}
	case "tr":
		return wireAxis{Axis: "tr", From: 0.1e-9 * jitter(), To: 10e-9 * jitter(), Points: points, Log: true}
	default: // slope
		return wireAxis{Axis: "slope", From: 1e8 * jitter(), To: 2e10 * jitter(), Points: points, Log: true}
	}
}

func (g *sweepGen) next() *request {
	total := g.sizes[g.i%2].draw(sweepTotals)
	outer := pick(g.r, []int{16, 32, 64})
	pair := pick(g.r, sweepAxisPairs)
	if g.r.IntN(2) == 1 {
		pair[0], pair[1] = pair[1], pair[0]
	}
	for k, name := range pair {
		if name == "edge" {
			pair[k] = pick(g.r, []string{"tr", "slope"})
		}
	}
	base := randomItem(g.r)
	base.N = 1 + g.r.IntN(64)
	sb := &sweepBody{Params: base, Axes: []wireAxis{
		randomAxis(g.r, pair[0], outer),
		randomAxis(g.r, pair[1], total/outer),
	}}
	body, _ := json.Marshal(sb)
	req := &request{path: "/v1/sweep", body: body, work: total, sweep: sb}
	if g.i%2 == 1 {
		req.accept = colwire.ContentType
	}
	g.i++
	return req
}

// --- pdn-impedance --------------------------------------------------------

type impBody struct {
	Package  string  `json:"package"`
	Rows     int     `json:"rows"`
	Cols     int     `json:"cols"`
	Pads     int     `json:"pads"`
	Mode     string  `json:"mode"`
	From     float64 `json:"from"`
	To       float64 `json:"to"`
	Points   int     `json:"points"`
	WithSens bool    `json:"with_sens,omitempty"`
}

var meshSizes = []int{4, 12, 6, 16, 8}

// sensMeshSizes are the meshes sensitivity requests use. Each frequency of
// a sensitivity sweep carries d|Z| for every element: a 16x16 mesh has
// 1484, so one such response is ~22 MB of NDJSON that takes ~800 ms to
// serve, and a handful of them set the run's figures. Meshes of 4x4 and
// 6x6 (92 and 204 elements) keep the adjoint path in the mix at a cost
// comparable to the plain sweeps.
var sensMeshSizes = []int{4, 6}

// impGen issues requests in blocks of four: three misses (a mesh paired with
// a frequency grid not sent before) and one exact repeat of a recent
// sensitivity-free request of the same client, which the profile cache
// answers. Mesh sizes come from one rotation for plain and one for
// sensitivity misses (sensMeshSizes). Even requests ask for NDJSON, odd ones for SSNC; the
// sensitivity requests (3 of every 12 misses) sit on NDJSON slots because
// SSNC carries no sensitivity columns.
type impGen struct {
	r      *rand.Rand
	i      int
	sizes  [2]rotation // plain, with_sens
	recent []*impBody
}

func (g *impGen) next() *request {
	i := g.i
	g.i++
	var ib *impBody
	hit := i%4 == 3
	if hit {
		ib = pick(g.r, g.recent)
	} else {
		sens := 0
		switch i % 16 {
		case 0, 6, 10:
			sens = 1
		}
		n := g.sizes[0].draw(meshSizes)
		if sens == 1 {
			n = g.sizes[1].draw(sensMeshSizes)
		}
		ib = &impBody{WithSens: sens == 1}
		ib.Package = pick(g.r, packages)
		ib.Rows, ib.Cols = n, n
		ib.Pads = pick(g.r, []int{2, 4, 8})
		ib.Mode = "sweep"
		ib.From = logUniform(g.r, 1e5, 1e7)
		ib.To = logUniform(g.r, 2e9, 2e10)
		ib.Points = 100 + g.r.IntN(101)
		if !ib.WithSens {
			g.recent = append(g.recent, ib)
			if len(g.recent) > 8 {
				g.recent = g.recent[1:]
			}
		}
	}
	body, _ := json.Marshal(ib)
	req := &request{path: "/v1/impedance", body: body, work: ib.Points, imp: ib, hit: hit}
	if i%2 == 1 {
		req.accept = colwire.ContentType
	}
	return req
}
