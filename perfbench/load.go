package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// sample is one attempted request.
type sample struct {
	req     *request
	start   time.Time
	lat     time.Duration // send to last byte received and decoded
	wait    time.Duration // traced: time blocked on the network (headers + reads)
	bytesIn int64
	status  int   // HTTP status; 0 on a transport error
	resp    any   // decoded body, for the check after the window
	err     error // transport, status, truncation, decode or check failure
}

// client is one closed-loop load generator holding one connection.
type client struct {
	gen    generator
	http   *http.Client
	base   string
	traced bool
}

func newHTTPClient() *http.Client {
	return &http.Client{
		// A safety net against a hung server only: ordinary requests finish
		// in milliseconds, and in-flight requests are never cut at the
		// benchmark's own deadline.
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// timedReader counts bytes and, when traced, the time spent blocked in Read.
type timedReader struct {
	r      io.Reader
	n      int64
	traced bool
	wait   time.Duration
}

func (t *timedReader) Read(p []byte) (int, error) {
	if !t.traced {
		n, err := t.r.Read(p)
		t.n += int64(n)
		return n, err
	}
	start := time.Now()
	n, err := t.r.Read(p)
	t.wait += time.Since(start)
	t.n += int64(n)
	return n, err
}

// do sends one request and decodes the whole response.
func (c *client) do(req *request) sample {
	start := time.Now()
	s := sample{req: req, start: start}
	hreq, err := http.NewRequest(http.MethodPost, c.base+req.path, bytes.NewReader(req.body))
	if err != nil {
		s.err = err
		return s
	}
	hreq.Header.Set("Content-Type", "application/json")
	if req.accept != "" {
		hreq.Header.Set("Accept", req.accept)
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		s.err = fmt.Errorf("transport: %w", err)
		s.lat = time.Since(start)
		return s
	}
	defer resp.Body.Close()
	headers := time.Since(start)
	s.status = resp.StatusCode
	body := &timedReader{r: resp.Body, traced: c.traced}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(body, 512))
		_, _ = io.Copy(io.Discard, body)
		s.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	} else {
		s.resp, s.err = decodeResponse(req, resp.Header.Get("Content-Type"), body)
		if s.err == nil {
			// Anything after the decoded payload is a protocol error.
			if extra, _ := io.Copy(io.Discard, body); extra > 0 {
				s.err = fmt.Errorf("%d bytes after the payload", extra)
			}
		}
	}
	s.lat = time.Since(start)
	s.bytesIn = body.n
	s.wait = headers + body.wait
	return s
}

// runClients drives every client in a closed loop. With a zero deadline
// each client sends exactly count requests; otherwise each keeps sending
// operations of group requests until the deadline passes, and finishes the
// operation in flight. It returns the samples per client and when the
// last one completed.
func runClients(clients []*client, group, count int, deadline time.Time) ([][]sample, time.Time) {
	out := make([][]sample, len(clients))
	ends := make([]time.Time, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for n := 0; ; n++ {
				if deadline.IsZero() && n >= count || !deadline.IsZero() && n%group == 0 && !time.Now().Before(deadline) {
					break
				}
				out[i] = append(out[i], c.do(c.gen.next()))
				ends[i] = time.Now()
			}
		}(i, c)
	}
	wg.Wait()
	last := time.Time{}
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}
	return out, last
}

// listGen hands out a fixed request list: the warm-up, which every set-up
// of a run replays.
type listGen struct {
	reqs []*request
	i    int
}

func (g *listGen) next() *request {
	g.i++
	return g.reqs[g.i-1]
}

// summarize folds each client's checked samples into operations of group
// consecutive requests: an operation's time is the sum of its requests',
// it fails if any of them failed, and its work counts only if none did.
func summarize(per [][]sample, group int) summary {
	var s summary
	for _, ss := range per {
		for lo := 0; lo < len(ss); lo += group {
			var lat time.Duration
			work, failed := 0, false
			for _, sm := range ss[lo:min(lo+group, len(ss))] {
				lat += sm.lat
				work += sm.req.work
				failed = failed || sm.err != nil
			}
			s.attempted++
			s.lats = append(s.lats, float64(lat)/1e6)
			if failed {
				s.failed++
			} else {
				s.work += float64(work)
			}
		}
	}
	return s
}
