package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

type loadConfig struct {
	base     string // server base URL, no trailing slash
	workers  int
	duration time.Duration
	skew     float64
	k        int
	batch    int // 0 = single-query mode
	n        int32
	seed     int64
	retries  int           // retries per request on 429/503 (0 = fail fast)
	backoff  time.Duration // base retry backoff (0 = 100ms when retrying)
	client   *http.Client

	// writeMix is the fraction of requests sent as POST /v1/edges edit
	// batches (0 = read-only); editBatch is the edits per write request.
	// The server must run with -live.
	writeMix  float64
	editBatch int

	// slo, when positive, adds an SLO-attainment line to the report:
	// the fraction of query arrivals answered (200/206) within it.
	slo time.Duration
}

// runLoad drives cfg.workers closed loops against the server for
// cfg.duration (or until ctx is cancelled) and returns the aggregate
// outcome counts and latency distribution.
func runLoad(ctx context.Context, cfg loadConfig) (*report, error) {
	if cfg.workers <= 0 {
		return nil, fmt.Errorf("workers must be positive")
	}
	if cfg.n <= 0 {
		return nil, fmt.Errorf("node count must be positive")
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.duration)
	defer cancel()

	rep := newReport()
	rep.slo = cfg.slo
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := newSampler(cfg.n, cfg.skew, cfg.seed, i)
			jit := rand.New(rand.NewSource(streamSeed(cfg.seed, i, streamJitter)))
			edits := &editState{n: cfg.n, batch: cfg.editBatch,
				rng: rand.New(rand.NewSource(streamSeed(cfg.seed, i, streamEdits)))}
			for ctx.Err() == nil {
				write := cfg.writeMix > 0 && jit.Float64() < cfg.writeMix
				t0 := time.Now()
				var status int
				var err error
				if write {
					status, err = cfg.fireWrite(ctx, edits, jit, rep)
				} else {
					status, err = cfg.fireRetry(ctx, src, jit, rep)
				}
				if err != nil {
					if ctx.Err() != nil {
						return // cancelled mid-request, don't count it
					}
					status = -1
				}
				if write {
					rep.recordWrite(status, time.Since(t0), cfg.editBatch)
				} else {
					rep.record(status, time.Since(t0))
				}
			}
		}(i)
	}
	wg.Wait()
	rep.elapsed = time.Since(start)
	return rep, nil
}

// fireRetry issues one logical request, retrying the SAME sampled request
// up to cfg.retries times when the server asks for backoff (429/503). Each
// retry waits an exponentially growing, jittered delay, raised to the
// server's Retry-After when it names a longer one, and aborts early when
// ctx expires. The final status is what gets recorded; retries are counted
// separately in the report. A request still backing off when the run ends
// returns ctx's error, so runLoad drops it uncounted.
func (cfg *loadConfig) fireRetry(ctx context.Context, src *sampler, jit *rand.Rand, rep *report) (int, error) {
	method, url, body, err := cfg.buildReq(src)
	if err != nil {
		return 0, err
	}
	status, retryAfter, err := cfg.send(ctx, method, url, body)
	for attempt := 0; attempt < cfg.retries && err == nil && retryable(status); attempt++ {
		select {
		case <-time.After(cfg.retryDelay(attempt, retryAfter, jit)):
		case <-ctx.Done():
			// The run ended mid-backoff: the request was abandoned, not
			// answered, so report it like one cancelled in flight.
			return status, ctx.Err()
		}
		rep.retries.Add(1)
		status, retryAfter, err = cfg.send(ctx, method, url, body)
	}
	return status, err
}

// editState generates one worker's edit stream: fresh random edges are
// inserted, and once enough have accumulated the oldest batch is deleted
// again — so the write load keeps churning both operations while the
// graph's edge count stays roughly stationary instead of growing without
// bound over a long run.
type editState struct {
	fifo  [][2]int32 // edges this worker has inserted, oldest first
	rng   *rand.Rand
	n     int32
	batch int
}

// nextBody builds the next /v1/edges request body: a remove batch when the
// insert backlog is deep enough, an add batch of fresh random edges
// otherwise.
func (es *editState) nextBody() ([]byte, error) {
	if len(es.fifo) >= 4*es.batch {
		rem := es.fifo[:es.batch:es.batch]
		es.fifo = es.fifo[es.batch:]
		return json.Marshal(map[string]any{"remove": rem})
	}
	add := make([][2]int32, es.batch)
	for i := range add {
		u := es.rng.Int31n(es.n)
		v := es.rng.Int31n(es.n)
		for v == u {
			v = es.rng.Int31n(es.n)
		}
		add[i] = [2]int32{u, v}
	}
	es.fifo = append(es.fifo, add...)
	return json.Marshal(map[string]any{"add": add})
}

// fireWrite issues one edit batch against POST /v1/edges with the same
// backoff-retry discipline as fireRetry.
func (cfg *loadConfig) fireWrite(ctx context.Context, es *editState, jit *rand.Rand, rep *report) (int, error) {
	body, err := es.nextBody()
	if err != nil {
		return 0, err
	}
	status, retryAfter, err := cfg.send(ctx, http.MethodPost, cfg.base+"/v1/edges", body)
	for attempt := 0; attempt < cfg.retries && err == nil && retryable(status); attempt++ {
		select {
		case <-time.After(cfg.retryDelay(attempt, retryAfter, jit)):
		case <-ctx.Done():
			return status, ctx.Err()
		}
		rep.retries.Add(1)
		status, retryAfter, err = cfg.send(ctx, http.MethodPost, cfg.base+"/v1/edges", body)
	}
	return status, err
}

// retryable reports whether the server asked the client to come back later.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// retryDelay computes the wait before retry #attempt: exponential from
// cfg.backoff (default 100ms) capped at 5s, raised to the server's
// Retry-After when longer, with half the delay jittered so a fleet of shed
// clients doesn't return in lockstep.
func (cfg *loadConfig) retryDelay(attempt int, retryAfter time.Duration, jit *rand.Rand) time.Duration {
	base := cfg.backoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	d := base << attempt
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	if retryAfter > d {
		d = retryAfter
	}
	return d/2 + time.Duration(jit.Int63n(int64(d/2)+1))
}

// buildReq samples one request — a single query, or a batch when
// cfg.batch > 0 — so retries can re-send the identical request.
func (cfg *loadConfig) buildReq(src *sampler) (method, url string, body []byte, err error) {
	if cfg.batch > 0 {
		sources := make([]int32, cfg.batch)
		for i := range sources {
			sources[i] = src.next()
		}
		body, err = json.Marshal(map[string]any{"sources": sources, "k": cfg.k})
		if err != nil {
			return "", "", nil, err
		}
		return http.MethodPost, cfg.base + "/v1/batch", body, nil
	}
	return http.MethodGet,
		fmt.Sprintf("%s/v1/query?source=%d&k=%d", cfg.base, src.next(), cfg.k), nil, nil
}

// send performs one HTTP attempt and returns the status plus any parsed
// Retry-After hint. The response body is drained and discarded; the driver
// measures the server, not the client's JSON parser.
func (cfg *loadConfig) send(ctx context.Context, method, url string, body []byte) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cfg.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	var retryAfter time.Duration
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	return resp.StatusCode, retryAfter, nil
}
