package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"resacc"
)

// FuzzEdgesBody sends arbitrary bodies to POST /v1/edges on a live server
// that already holds one pending edit. Whatever the body, the handler must
// not panic or answer 5xx, and a refused body (any non-200 answer) must
// leave the pending edits and the served epoch as they were. The per-request
// edit cap and the backlog bound are small so both refusals are reachable.
func FuzzEdgesBody(f *testing.F) {
	for _, body := range []string{
		`{"add":[[0,5]]}`,
		`{"add":[[190,191]]}`,
		`{"flush":true}`,
		`not json`,
		`{"add":[[0,0]]}`,
		`{"add":[[0,9999]]}`,
		`{"remove":[[-1,2]]}`,
		`{"add":[[1,7]],"remove":[[0,9999]]}`,
		`{"add":[[0,1],[1,2],[2,3]]}`,
		`{"add":[[199,198]],"flush":true}`,
		`{"add":[[190,191]]}{"add":[[0,0]]} trailing`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		s := liveServer(t, serverOpts{MaxEdits: 2, LiveOptions: resacc.LiveOptions{
			MaxStaleness: time.Hour, MaxPending: 100, MaxBacklog: 3}})
		if res, err := s.live.Apply([][2]int32{{190, 191}}, nil); err != nil || res.Applied != 1 {
			t.Fatalf("pending edit: %+v %v", res, err)
		}
		before := s.live.Stats()
		rec, _ := postJSON(t, s, "/v1/edges", body)
		if rec.Code >= 500 {
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body.String())
		}
		if rec.Code == http.StatusOK {
			return
		}
		after := s.live.Stats()
		if after.PendingAdds != before.PendingAdds || after.PendingRemoves != before.PendingRemoves || after.Epoch != before.Epoch {
			t.Fatalf("body %q: status %d changed the write path: %+v -> %+v", body, rec.Code, before, after)
		}
	})
}

// FuzzBatchBody sends arbitrary bodies to POST /v1/batch. The handler must
// not panic or answer 5xx, and a 200 or 206 answer must carry one item per
// requested source, in request order.
func FuzzBatchBody(f *testing.F) {
	for _, body := range []string{
		`{"sources":[1,2,1,3],"k":4}`,
		`{"sources":[1,99999]}`,
		``,
		`not json`,
		`{"sources":[]}`,
		`{"sources":[1],"bogus":true}`,
		`{"sources":[1,2,3]}`,
		`{"sources":[1]} garbage`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		s := testServer(t)
		rec, _ := postJSON(t, s, "/v1/batch", body)
		if rec.Code >= 500 {
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body.String())
		}
		if rec.Code != http.StatusOK && rec.Code != http.StatusPartialContent {
			return
		}
		// The handler accepted the body, so decoding it the same way must
		// succeed and name the sources it answered.
		var req batchRequest
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := decodeOne(dec, &req); err != nil {
			t.Fatalf("body %q: status %d for a body that does not decode: %v", body, rec.Code, err)
		}
		var resp struct {
			Count   int             `json:"count"`
			Results []batchItemJSON `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("body %q: %v", body, err)
		}
		if resp.Count != len(req.Sources) || len(resp.Results) != len(req.Sources) {
			t.Fatalf("body %q: %d sources, count %d, %d items", body, len(req.Sources), resp.Count, len(resp.Results))
		}
		for i, item := range resp.Results {
			if item.Source != req.Sources[i] {
				t.Fatalf("body %q: item %d answers source %d, want %d", body, i, item.Source, req.Sources[i])
			}
		}
	})
}
