package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the number of closed-loop connections: one per CPU of the 2-CPU
// host the benchmark was calibrated on.
const conns = 2

// client drives one rwrd over at most conns keep-alive connections.
type client struct {
	base  string
	n     int // node count, for id range checks
	hc    *http.Client
	trace bool
}

func newClient(base string, n int, trace bool) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, n: n, trace: trace,
		hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is what one request produced. A traced run also keeps the span
// fields: the request's ID and start, with the engine time the answer
// reports as its child span.
type outcome struct {
	status  int           // HTTP status; 0 on a transport error
	rtt     time.Duration // client round trip
	queryMS float64       // engine time the answer reports (reads only)
	start   time.Time     // when it was sent (traced runs)
	id      string        // X-Request-ID (traced runs)
	nodes   []int32       // ranked ids, kept only when asked for
}

// ok reports a full 200 answer.
func (o outcome) ok() bool { return o.status == http.StatusOK }

type answer struct {
	Source   int32    `json:"source"`
	K        int      `json:"k"`
	Results  []ranked `json:"results"`
	QueryMS  float64  `json:"query_ms"`
	Degraded bool     `json:"degraded"`
}

type ranked struct {
	Node  int32   `json:"node"`
	Score float64 `json:"score"`
}

// check returns an error unless a is a well-formed full top-k answer for
// source: k results, ids in range, scores in [0,1] and non-increasing.
func (a answer) check(source int32, n int) error {
	want := topK
	if n < want {
		want = n
	}
	switch {
	case a.Source != source:
		return fmt.Errorf("answer for source %d, asked %d", a.Source, source)
	case a.K != want || len(a.Results) != want:
		return fmt.Errorf("source %d: k=%d with %d results, want %d", source, a.K, len(a.Results), want)
	case a.Degraded:
		return fmt.Errorf("source %d: 200 answer marked degraded", source)
	case a.QueryMS < 0:
		return fmt.Errorf("source %d: negative query_ms %v", source, a.QueryMS)
	}
	for i, r := range a.Results {
		if r.Node < 0 || int(r.Node) >= n {
			return fmt.Errorf("source %d: result %d node %d out of range [0,%d)", source, i, r.Node, n)
		}
		if !(r.Score >= 0 && r.Score <= 1) {
			return fmt.Errorf("source %d: result %d score %v outside [0,1]", source, i, r.Score)
		}
		if i > 0 && r.Score > a.Results[i-1].Score {
			return fmt.Errorf("source %d: scores increase at rank %d", source, i)
		}
	}
	return nil
}

type editReply struct {
	Applied int  `json:"applied"`
	Noop    int  `json:"noop"`
	Swapped bool `json:"swapped"`
}

// do sends one request. Non-200 answers and transport errors are outcomes,
// not errors. A malformed 200 answer is a checkError, which fails the run as
// incorrect; any other error means the request could not be made.
func (c *client) do(ctx context.Context, o op, keepNodes bool) (outcome, error) {
	var req *http.Request
	var err error
	if o.isWrite() {
		body, _ := json.Marshal(map[string]any{"add": o.add, "remove": o.remove, "flush": true}) // plain slices: cannot fail
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/edges", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			c.base+"/v1/query?k="+strconv.Itoa(topK)+"&source="+strconv.Itoa(int(o.source)), nil)
	}
	if err != nil {
		return outcome{}, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return outcome{}, ctx.Err()
		}
		return outcome{rtt: time.Since(start)}, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := outcome{status: resp.StatusCode, rtt: time.Since(start)}
	if err != nil {
		out.status = 0
		return out, nil
	}
	if c.trace {
		out.start = start
		out.id = resp.Header.Get("X-Request-ID")
	}
	if !out.ok() {
		return out, nil
	}
	if o.isWrite() {
		var r editReply
		if err := json.Unmarshal(body, &r); err != nil {
			return out, checkf("edit reply: %v", err)
		}
		// The harness rebuilds the final graph from its own batches, so every
		// edit must have taken effect and become visible.
		if want := len(o.add) + len(o.remove); r.Applied != want || r.Noop != 0 || !r.Swapped {
			return out, checkf("edit batch applied %d of %d (noop %d, swapped %v)", r.Applied, want, r.Noop, r.Swapped)
		}
		return out, nil
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return out, checkf("source %d: %v", o.source, err)
	}
	if err := a.check(o.source, c.n); err != nil {
		return out, checkError{err}
	}
	out.queryMS = a.QueryMS
	if keepNodes {
		for _, r := range a.Results {
			out.nodes = append(out.nodes, r.Node)
		}
	}
	return out, nil
}

// run sends ops in order and records outcome i for ops[i]. Reads between two
// writes are shared by conns closed loops; a write waits for every earlier
// read and runs alone, so the cache state each write meets is fixed.
func (c *client) run(ctx context.Context, ops []op, out []outcome) error {
	for i := 0; i < len(ops); {
		if ops[i].isWrite() {
			o, err := c.do(ctx, ops[i], false)
			if err != nil {
				return err
			}
			out[i] = o
			i++
			continue
		}
		j := i
		for j < len(ops) && !ops[j].isWrite() {
			j++
		}
		if err := c.readSegment(ctx, ops[i:j], out[i:j]); err != nil {
			return err
		}
		i = j
	}
	return nil
}

func (c *client) readSegment(ctx context.Context, ops []op, out []outcome) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				o, err := c.do(ctx, ops[i], false)
				if err != nil {
					errs[w] = err
					cancel()
					return
				}
				out[i] = o
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}
