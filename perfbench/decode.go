package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"ssnkit/internal/colwire"
)

// Decoded responses. Every record of every response is decoded before the
// operation's clock stops; the checks in check.go then compare these
// values with references computed after the timed window.

type sensWire struct {
	DVdN float64 `json:"dvmax_dn"`
	DVdL float64 `json:"dvmax_dl"`
	DVdS float64 `json:"dvmax_dslope"`
	DVdC float64 `json:"dvmax_dc"`
	RelN float64 `json:"rel_n"`
	RelL float64 `json:"rel_l"`
	RelS float64 `json:"rel_slope"`
	RelC float64 `json:"rel_c"`
}

type evalResult struct {
	Index    int             `json:"index"`
	VMax     float64         `json:"vmax"`
	Case     string          `json:"case"`
	CaseCode int             `json:"case_code"`
	Beta     float64         `json:"beta"`
	Zeta     *float64        `json:"zeta"`
	TMax     float64         `json:"t_max"`
	Sens     *sensWire       `json:"sensitivity"`
	Error    json.RawMessage `json:"error"`
}

type maxssnResp struct {
	Count   int          `json:"count"`
	Results []evalResult `json:"results"`
}

type sweepStats struct {
	GridPoints    int `json:"grid_points"`
	Evaluated     int `json:"evaluated"`
	Errors        int `json:"errors"`
	RefinedPoints int `json:"refined_points"`
}

// sweepResp holds a sweep stream in columns, whichever format carried it.
type sweepResp struct {
	vals  [2][]float64 // reported axis values, in request axis order
	vmax  []float64
	cse   []float64
	depth []float64
	stats sweepStats
}

type impSens struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`
	DAbs  float64 `json:"dabs"`
}

type impStats struct {
	Points   int     `json:"points"`
	PeakFreq float64 `json:"peak_freq"`
	PeakZ    float64 `json:"peak_z"`
	Workers  int     `json:"workers"`
}

// impResp holds an impedance stream in columns. Sensitivities (NDJSON
// with_sens only) keep the element names and kinds once, from the first
// record, and per record the (value, d|Z|) pairs: every record must name
// the same elements in the same order.
type impResp struct {
	freq, zre, zim, zmag []float64
	sensNames, sensKinds []string
	sens                 [][]float64
	stats                impStats
}

// decodeResponse decodes a 200 response body of req's route in the format
// the content type names.
func decodeResponse(req *request, contentType string, body io.Reader) (any, error) {
	columnar := strings.HasPrefix(contentType, colwire.ContentType)
	if columnar != (req.accept == colwire.ContentType) {
		return nil, fmt.Errorf("content type %q does not match the requested format", contentType)
	}
	switch {
	case req.items != nil:
		return decodeMaxSSN(body)
	case req.sweep != nil && columnar:
		return decodeSweepSSNC(req.sweep, body)
	case req.sweep != nil:
		return decodeSweepNDJSON(req.sweep, body)
	case columnar:
		return decodeImpSSNC(body)
	default:
		return decodeImpNDJSON(body)
	}
}

func decodeMaxSSN(body io.Reader) (*maxssnResp, error) {
	data, err := io.ReadAll(body)
	if err != nil {
		return nil, err
	}
	var resp maxssnResp
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("decode batch: %w", err)
	}
	return &resp, nil
}

func newLineScanner(body io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	return sc
}

// errNoSummary marks a stream that ended without its terminal record: a
// truncated body.
var errNoSummary = errors.New("stream ended without its terminal summary")

type sweepRecord struct {
	Values struct {
		N     *float64 `json:"n"`
		L     *float64 `json:"l"`
		C     *float64 `json:"c"`
		Slope *float64 `json:"slope"`
		Tr    *float64 `json:"tr"`
	} `json:"values"`
	VMax     float64         `json:"vmax"`
	CaseCode int             `json:"case_code"`
	Depth    int             `json:"depth"`
	Error    json.RawMessage `json:"error"`
	Done     bool            `json:"done"`
	Stats    *sweepStats     `json:"stats"`
}

func (r *sweepRecord) axisValue(name string) *float64 {
	switch name {
	case "n":
		return r.Values.N
	case "l":
		return r.Values.L
	case "c":
		return r.Values.C
	case "slope":
		return r.Values.Slope
	default:
		return r.Values.Tr
	}
}

func newSweepResp(sb *sweepBody) *sweepResp {
	total := sb.Axes[0].Points * sb.Axes[1].Points
	return &sweepResp{
		vals:  [2][]float64{make([]float64, 0, total), make([]float64, 0, total)},
		vmax:  make([]float64, 0, total),
		cse:   make([]float64, 0, total),
		depth: make([]float64, 0, total),
	}
}

func decodeSweepNDJSON(sb *sweepBody, body io.Reader) (*sweepResp, error) {
	out := newSweepResp(sb)
	sc := newLineScanner(body)
	done := false
	for sc.Scan() {
		if done {
			return nil, errors.New("record after the terminal summary")
		}
		var rec sweepRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("decode sweep record: %w", err)
		}
		if rec.Error != nil {
			return nil, fmt.Errorf("sweep error record: %s", rec.Error)
		}
		if rec.Done {
			if rec.Stats == nil {
				return nil, errors.New("terminal summary without stats")
			}
			out.stats, done = *rec.Stats, true
			continue
		}
		for k, ax := range sb.Axes {
			v := rec.axisValue(ax.Axis)
			if v == nil {
				return nil, fmt.Errorf("sweep record lacks axis %s", ax.Axis)
			}
			out.vals[k] = append(out.vals[k], *v)
		}
		out.vmax = append(out.vmax, rec.VMax)
		out.cse = append(out.cse, float64(rec.CaseCode))
		out.depth = append(out.depth, float64(rec.Depth))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !done {
		return nil, errNoSummary
	}
	return out, nil
}

// readBlocks decodes an SSNC stream, handing each row block to add and
// decoding the terminal zero-row block's meta into summary.
func readBlocks(body io.Reader, add func(*colwire.Block) error, summary any) error {
	done := false
	for {
		blk, err := colwire.ReadBlock(body)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if done {
			return errors.New("block after the terminal summary")
		}
		if blk.Rows() == 0 {
			var head struct {
				Done  bool            `json:"done"`
				Error json.RawMessage `json:"error"`
			}
			if err := json.Unmarshal(blk.Meta, &head); err != nil {
				return fmt.Errorf("decode terminal meta: %w", err)
			}
			if !head.Done {
				return fmt.Errorf("terminal block is not a summary: %s", blk.Meta)
			}
			if err := json.Unmarshal(blk.Meta, summary); err != nil {
				return fmt.Errorf("decode terminal meta: %w", err)
			}
			done = true
			continue
		}
		if len(blk.Meta) > 0 {
			return fmt.Errorf("row block carries errors: %s", blk.Meta)
		}
		if err := add(blk); err != nil {
			return err
		}
	}
	if !done {
		return errNoSummary
	}
	return nil
}

func columns(blk *colwire.Block, names ...string) ([][]float64, error) {
	cols := make([][]float64, len(names))
	for i, n := range names {
		if cols[i] = blk.Column(n); cols[i] == nil {
			return nil, fmt.Errorf("block lacks column %s", n)
		}
	}
	return cols, nil
}

func decodeSweepSSNC(sb *sweepBody, body io.Reader) (*sweepResp, error) {
	out := newSweepResp(sb)
	var summary struct {
		Stats sweepStats `json:"stats"`
	}
	err := readBlocks(body, func(blk *colwire.Block) error {
		cols, err := columns(blk, sb.Axes[0].Axis, sb.Axes[1].Axis, "vmax", "case_code", "depth")
		if err != nil {
			return err
		}
		out.vals[0] = append(out.vals[0], cols[0]...)
		out.vals[1] = append(out.vals[1], cols[1]...)
		out.vmax = append(out.vmax, cols[2]...)
		out.cse = append(out.cse, cols[3]...)
		out.depth = append(out.depth, cols[4]...)
		return nil
	}, &summary)
	if err != nil {
		return nil, err
	}
	out.stats = summary.Stats
	return out, nil
}

func decodeImpNDJSON(body io.Reader) (*impResp, error) {
	out := &impResp{}
	sc := newLineScanner(body)
	done := false
	for sc.Scan() {
		if done {
			return nil, errors.New("record after the terminal summary")
		}
		var rec struct {
			Freq  float64         `json:"freq"`
			ZRe   float64         `json:"z_re"`
			ZIm   float64         `json:"z_im"`
			ZMag  float64         `json:"z_mag"`
			Sens  []impSens       `json:"sens"`
			Error json.RawMessage `json:"error"`
			Done  bool            `json:"done"`
			Stats *impStats       `json:"stats"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("decode impedance record: %w", err)
		}
		if rec.Error != nil {
			return nil, fmt.Errorf("impedance error record: %s", rec.Error)
		}
		if rec.Done {
			if rec.Stats == nil {
				return nil, errors.New("terminal summary without stats")
			}
			out.stats, done = *rec.Stats, true
			continue
		}
		out.freq = append(out.freq, rec.Freq)
		out.zre = append(out.zre, rec.ZRe)
		out.zim = append(out.zim, rec.ZIm)
		out.zmag = append(out.zmag, rec.ZMag)
		if rec.Sens != nil {
			if err := out.addSens(rec.Sens); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !done {
		return nil, errNoSummary
	}
	return out, nil
}

func (r *impResp) addSens(sens []impSens) error {
	if r.sensNames == nil {
		for _, e := range sens {
			r.sensNames = append(r.sensNames, e.Name)
			r.sensKinds = append(r.sensKinds, e.Kind)
		}
	} else if len(sens) != len(r.sensNames) {
		return fmt.Errorf("record %d has %d sensitivities, the first had %d", len(r.sens), len(sens), len(r.sensNames))
	}
	vals := make([]float64, 0, 2*len(sens))
	for k, e := range sens {
		if e.Name != r.sensNames[k] || e.Kind != r.sensKinds[k] {
			return fmt.Errorf("record %d: sensitivity %d is %s %s, the first record's is %s %s",
				len(r.sens), k, e.Kind, e.Name, r.sensKinds[k], r.sensNames[k])
		}
		vals = append(vals, e.Value, e.DAbs)
	}
	r.sens = append(r.sens, vals)
	return nil
}

func decodeImpSSNC(body io.Reader) (*impResp, error) {
	out := &impResp{}
	var summary struct {
		Stats impStats `json:"stats"`
	}
	err := readBlocks(body, func(blk *colwire.Block) error {
		cols, err := columns(blk, "freq", "z_re", "z_im", "z_mag")
		if err != nil {
			return err
		}
		out.freq = append(out.freq, cols[0]...)
		out.zre = append(out.zre, cols[1]...)
		out.zim = append(out.zim, cols[2]...)
		out.zmag = append(out.zmag, cols[3]...)
		return nil
	}, &summary)
	if err != nil {
		return nil, err
	}
	out.stats = summary.Stats
	return out, nil
}
