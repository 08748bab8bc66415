package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// batchRequest is the POST /v1/batch body: a source list plus an optional
// ranking depth applied to every source (≤ 0 = 10).
type batchRequest struct {
	Sources []int32 `json:"sources"`
	K       int     `json:"k"`
}

// batchItemJSON is one per-source answer; exactly one of Results/Error is
// meaningful (Results is always a JSON array, never null). Degraded marks
// a deadline-truncated item: its scores are anytime underestimates, each
// within Bound of the true value (same contract as /v1/query).
type batchItemJSON struct {
	Source   int32        `json:"source"`
	Results  []rankedJSON `json:"results,omitempty"`
	Error    string       `json:"error,omitempty"`
	Degraded bool         `json:"degraded,omitempty"`
	Bound    float64      `json:"bound,omitempty"`
}

// handleBatch answers many sources in one request: the engine fans the
// list across its worker pool (paced, so a batch cannot starve interactive
// queries out of the queue), deduplicates repeats and shares the result
// cache. Failures are per-source — one bad id does not fail the batch.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := decodeOne(dec, &req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad batch body: " + err.Error()})
		return
	}
	if len(req.Sources) == 0 {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": "sources must be a non-empty array"})
		return
	}
	if len(req.Sources) > s.maxBatch {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("batch of %d exceeds limit %d", len(req.Sources), s.maxBatch)})
		return
	}
	k := req.K
	if k <= 0 {
		k = 10
	}
	if k > s.g.N() {
		k = s.g.N()
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.effectiveTimeout())
	defer cancel()
	start := time.Now()
	results, errs := s.engine.QueryBatch(ctx, req.Sources)

	items := make([]batchItemJSON, len(req.Sources))
	failed, degraded := 0, 0
	for i, source := range req.Sources {
		items[i] = batchItemJSON{Source: source, Results: []rankedJSON{}}
		if errs[i] != nil {
			items[i].Error = errs[i].Error()
			items[i].Results = nil
			failed++
			continue
		}
		for _, t := range results[i].TopK(k) {
			items[i].Results = append(items[i].Results, rankedJSON{t.Node, t.Score})
		}
		if results[i].Degraded {
			items[i].Degraded = true
			items[i].Bound = results[i].Bound
			degraded++
		}
		s.queries.Add(1)
	}
	status := http.StatusOK
	if degraded > 0 {
		status = http.StatusPartialContent
	}
	s.writeJSON(w, status, map[string]any{
		"count":    len(items),
		"failed":   failed,
		"degraded": degraded,
		"k":        k,
		"batch_ms": float64(time.Since(start).Microseconds()) / 1000,
		"results":  items,
	})
}
