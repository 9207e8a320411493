package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"testing"

	"ssnkit/internal/colwire"
	"ssnkit/internal/serve"
)

// requestLog renders a client's first n requests: path, negotiated format
// and body bytes.
func requestLog(workload string, seed uint64, client, n int) []byte {
	g := servedWorkloads[workload].newGen(seed, client)
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		r := g.next()
		fmt.Fprintf(&b, "%s %s %s\n", r.path, r.accept, r.body)
	}
	return b.Bytes()
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for w := range servedWorkloads {
		a := requestLog(w, 7, 0, 40)
		if !bytes.Equal(a, requestLog(w, 7, 0, 40)) {
			t.Errorf("%s: seed 7 gave two different request sequences", w)
		}
		if bytes.Equal(a, requestLog(w, 8, 0, 40)) {
			t.Errorf("%s: seeds 7 and 8 gave the same requests", w)
		}
		if bytes.Equal(a, requestLog(w, 7, 1, 40)) {
			t.Errorf("%s: clients 0 and 1 sent the same requests", w)
		}
	}
}

func TestImpedanceMix(t *testing.T) {
	g := servedWorkloads["pdn-impedance"].newGen(3, 0)
	seen := map[string]bool{}
	hits, sens, misses := 0, 0, 0
	for i := 0; i < 160; i++ {
		r := g.next()
		if r.hit {
			hits++
			if !seen[string(r.body)] || r.imp.WithSens {
				t.Fatalf("request %d: a repeat must be an earlier sensitivity-free request", i)
			}
			continue
		}
		misses++
		if seen[string(r.body)] {
			t.Fatalf("request %d: a miss repeats an earlier request", i)
		}
		seen[string(r.body)] = true
		if r.imp.WithSens {
			sens++
			if r.accept != "" {
				t.Fatalf("request %d: sensitivities asked for over SSNC", i)
			}
		}
	}
	if hits != 40 || sens*4 != misses {
		t.Fatalf("%d repeats and %d of %d misses with sensitivities; want 40 and 1 in 4", hits, sens, misses)
	}
}

// corrupting serves the real handler and lets a test rewrite each
// response body before it is sent.
func corrupting(t *testing.T, rewrite func([]byte) []byte) *httptest.Server {
	h := serve.New(serve.Config{}).Handler()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
		w.WriteHeader(rec.Code)
		if _, err := w.Write(rewrite(rec.Body.Bytes())); err != nil {
			t.Error(err)
		}
	}))
}

// attempt sends req through the benchmark client and checks the answer,
// as a timed operation does.
func attempt(base string, req *request) error {
	c := &client{http: newHTTPClient(), base: base}
	defer c.http.CloseIdleConnections()
	s := c.do(req)
	if s.err != nil {
		return s.err
	}
	return newChecker().check(req, s.resp)
}

var vmaxField = regexp.MustCompile(`"vmax":([-+0-9.eE]+)`)

// nudgeFirstVMax moves the first JSON vmax by one ULP.
func nudgeFirstVMax(body []byte) []byte {
	loc := vmaxField.FindSubmatchIndex(body)
	v, _ := strconv.ParseFloat(string(body[loc[2]:loc[3]]), 64)
	v = math.Nextafter(v, math.Inf(1))
	return append(append(append([]byte(nil), body[:loc[2]]...), strconv.FormatFloat(v, 'g', -1, 64)...), body[loc[3]:]...)
}

// flipSSNCBit flips bit n of the first value of the named column in an
// SSNC stream.
func flipSSNCBit(column string, n uint) func([]byte) []byte {
	return func(body []byte) []byte {
		var out []byte
		flipped := false
		for off := 0; off < len(body); {
			blk, k, err := colwire.Decode(body[off:])
			if err != nil {
				panic(err)
			}
			off += k
			if v := blk.Column(column); len(v) > 0 && !flipped {
				v[0] = math.Float64frombits(math.Float64bits(v[0]) ^ 1<<n)
				flipped = true
			}
			if out, err = blk.AppendTo(out); err != nil {
				panic(err)
			}
		}
		return out
	}
}

// scaleFirstZMag multiplies the first NDJSON |Z| by 1+1e-5, ten times the
// DESIGN.md §17 band.
func scaleFirstZMag(body []byte) []byte {
	lines := bytes.SplitN(body, []byte("\n"), 2)
	var rec map[string]any
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		panic(err)
	}
	rec["z_mag"] = rec["z_mag"].(float64) * (1 + 1e-5)
	first, _ := json.Marshal(rec)
	return append(append(first, '\n'), lines[1]...)
}

func truncate(body []byte) []byte { return body[:len(body)-len(body)/10] }

func identity(body []byte) []byte { return body }

func TestOneCorruptedFloatFailsTheOperation(t *testing.T) {
	first := func(w string, accept string) *request {
		g := servedWorkloads[w].newGen(5, 0)
		for {
			if r := g.next(); r.accept == accept && (r.imp == nil || !r.hit && !r.imp.WithSens) {
				return r
			}
		}
	}
	cases := []struct {
		name    string
		req     *request
		rewrite func([]byte) []byte
	}{
		{"maxssn JSON vmax", first("maxssn-batch", ""), nudgeFirstVMax},
		{"sweep NDJSON vmax", first("sweep-stream", ""), nudgeFirstVMax},
		// vmax is bit-exact: its lowest mantissa bit must fail.
		{"sweep SSNC vmax", first("sweep-stream", colwire.ContentType), flipSSNCBit("vmax", 0)},
		{"impedance NDJSON |Z|", first("pdn-impedance", ""), scaleFirstZMag},
		// |Z| has the §17 band: bit 40 is a relative change of ~2e-4.
		{"impedance SSNC |Z|", first("pdn-impedance", colwire.ContentType), flipSSNCBit("z_mag", 40)},
		{"sweep NDJSON truncated", first("sweep-stream", ""), truncate},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clean := corrupting(t, identity)
			defer clean.Close()
			if err := attempt(clean.URL, tc.req); err != nil {
				t.Fatalf("unmodified response failed: %v", err)
			}
			bad := corrupting(t, tc.rewrite)
			defer bad.Close()
			if err := attempt(bad.URL, tc.req); err == nil {
				t.Fatal("corrupted response passed its check")
			}
		})
	}
}

func TestBenchmarkJSONListsEveryLayerMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %s %s, traced run reports %s %s", i, b.PerLayer[i].Name, b.PerLayer[i].Unit, m.name, m.unit)
		}
	}
}
