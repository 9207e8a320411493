package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"ssnkit/internal/experiments"
)

// artifact is one paper artifact harness, in ssnrepro's order.
type artifact struct {
	name string
	run  func(experiments.Context) (experiments.Result, error)
}

var artifacts = []artifact{
	{"fig1", func(c experiments.Context) (experiments.Result, error) { return experiments.Fig1(c) }},
	{"fig2", func(c experiments.Context) (experiments.Result, error) { return experiments.Fig2(c) }},
	{"fig3", func(c experiments.Context) (experiments.Result, error) { return experiments.Fig3(c) }},
	{"fig4", func(c experiments.Context) (experiments.Result, error) { return experiments.Fig4(c) }},
	{"table1", func(c experiments.Context) (experiments.Result, error) { return experiments.Table1(c) }},
	{"ablation-a", func(c experiments.Context) (experiments.Result, error) { return experiments.AblationDeviceModel(c) }},
	{"ablation-r", func(c experiments.Context) (experiments.Result, error) { return experiments.AblationResistance(c) }},
	{"ext-process", func(c experiments.Context) (experiments.Result, error) { return experiments.CrossProcess(c) }},
	{"ext-rail", func(c experiments.Context) (experiments.Result, error) { return experiments.Rail(c) }},
	{"ext-delay", func(c experiments.Context) (experiments.Result, error) { return experiments.Delay(c) }},
	{"ext-resonance", func(c experiments.Context) (experiments.Result, error) { return experiments.Resonance(c) }},
}

// reproduction is the output of one operation: every artifact's CSV and
// the paper claims that did not hold.
type reproduction struct {
	csv    [][]byte
	failed []string
}

// reproduce regenerates every artifact at CI resolution, writing each CSV
// to memory. onArtifact, when set, receives each harness's duration.
func reproduce(onArtifact func(name string, d time.Duration)) (*reproduction, error) {
	ctx := experiments.Context{Fast: true}
	out := &reproduction{csv: make([][]byte, len(artifacts))}
	for i, a := range artifacts {
		start := time.Now()
		res, err := a.run(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			return nil, fmt.Errorf("%s: csv: %w", a.name, err)
		}
		if onArtifact != nil {
			onArtifact(a.name, time.Since(start))
		}
		out.csv[i] = buf.Bytes()
		for _, r := range res.Records() {
			if !r.Pass {
				out.failed = append(out.failed, r.ID)
			}
		}
	}
	return out, nil
}

// sameReproduction reports whether two reproductions wrote the same bytes
// and failed the same claims.
func sameReproduction(a, b *reproduction) bool {
	return slices.Equal(a.failed, b.failed) && slices.EqualFunc(a.csv, b.csv, bytes.Equal)
}

// csvTol is the relative tolerance of a reproduced number against the
// committed out/*.csv, which carry 8-9 significant digits.
const csvTol = 1e-6

// expectedCSVs loads the committed artifacts, parsed.
func expectedCSVs(root string) ([][][]string, error) {
	out := make([][][]string, len(artifacts))
	for i, a := range artifacts {
		data, err := os.ReadFile(filepath.Join(root, "out", a.name+".csv"))
		if err != nil {
			return nil, err
		}
		if out[i], err = csv.NewReader(bytes.NewReader(data)).ReadAll(); err != nil {
			return nil, fmt.Errorf("out/%s.csv: %w", a.name, err)
		}
	}
	return out, nil
}

// checkReproduction holds every claim and compares every cell with the
// committed CSVs: text exactly, numbers within csvTol relative, with an
// absolute floor of csvTol x 1e-6 of the column's largest magnitude so a
// cell at or near zero is not held to digits its column cannot carry.
func checkReproduction(r *reproduction, want [][][]string) error {
	if len(r.failed) > 0 {
		return fmt.Errorf("paper claims do not hold: %v", r.failed)
	}
	for i, a := range artifacts {
		got, err := csv.NewReader(bytes.NewReader(r.csv[i])).ReadAll()
		if err != nil {
			return fmt.Errorf("%s.csv: %w", a.name, err)
		}
		if err := compareTables(got, want[i]); err != nil {
			return fmt.Errorf("%s.csv: %w", a.name, err)
		}
	}
	return nil
}

func compareTables(got, want [][]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	scale := map[int]float64{}
	for _, row := range want {
		for j, cell := range row {
			if v, err := strconv.ParseFloat(cell, 64); err == nil {
				scale[j] = math.Max(scale[j], math.Abs(v))
			}
		}
	}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			return fmt.Errorf("row %d: %d cells, want %d", r, len(got[r]), len(want[r]))
		}
		for j, w := range want[r] {
			g := got[r][j]
			wv, werr := strconv.ParseFloat(w, 64)
			gv, gerr := strconv.ParseFloat(g, 64)
			if werr != nil || gerr != nil {
				if g != w {
					return fmt.Errorf("row %d col %d: %q want %q", r, j, g, w)
				}
				continue
			}
			if math.Abs(gv-wv) > csvTol*math.Max(math.Abs(wv), 1e-6*scale[j]) {
				return fmt.Errorf("row %d col %d: %v want %v", r, j, gv, wv)
			}
		}
	}
	return nil
}
