package live

import (
	"testing"
	"time"

	"resacc/internal/graph"
)

// fuzzBatch is one Apply call decoded from fuzz input.
type fuzzBatch struct{ add, remove [][2]int32 }

// decodeBatches splits data into edit batches, three bytes per op: a kind
// byte whose bit 0 makes the op a removal and whose bit 1 closes the batch
// after it, then the two endpoints as signed bytes. Against a small graph
// that makes out-of-range and negative ids, self-loops, duplicates and
// add-then-remove pairs all common.
func decodeBatches(data []byte) []fuzzBatch {
	var out []fuzzBatch
	var cur fuzzBatch
	for len(data) >= 3 {
		kind, e := data[0], [2]int32{int32(int8(data[1])), int32(int8(data[2]))}
		data = data[3:]
		if kind&1 == 0 {
			cur.add = append(cur.add, e)
		} else {
			cur.remove = append(cur.remove, e)
		}
		if kind&2 != 0 {
			out = append(out, cur)
			cur = fuzzBatch{}
		}
	}
	if len(cur.add)+len(cur.remove) > 0 {
		out = append(out, cur)
	}
	return out
}

// encodeBatches is decodeBatches' inverse, for the seed corpus.
func encodeBatches(batches ...fuzzBatch) []byte {
	var data []byte
	op := func(kind byte, e [2]int32) {
		data = append(data, kind, byte(int8(e[0])), byte(int8(e[1])))
	}
	for _, b := range batches {
		for _, e := range b.add {
			op(0, e)
		}
		for _, e := range b.remove {
			op(1, e)
		}
		data[len(data)-3] |= 2
	}
	return data
}

// FuzzManagerApply drives a Manager with arbitrary edit batches. A rejected
// batch must change nothing; after Flush, the published graph must hold
// every edge whose last accepted op was an add and lack every edge whose
// last accepted op was a remove. Small MaxPending and MaxBacklog values
// make inline swaps and backlog rejections reachable.
func FuzzManagerApply(f *testing.F) {
	f.Add(encodeBatches(fuzzBatch{add: [][2]int32{{0, 5}, {0, 5}, {0, 1}}}))
	f.Add(encodeBatches(fuzzBatch{add: [][2]int32{{0, 5}, {3, 99}}}, fuzzBatch{add: [][2]int32{{2, 2}}}))
	f.Add(encodeBatches(fuzzBatch{add: [][2]int32{{0, 9}, {0, 10}, {0, 11}}}))
	f.Add(encodeBatches(fuzzBatch{add: [][2]int32{{1, 7}}}, fuzzBatch{remove: [][2]int32{{1, 7}, {0, 1}}}))
	f.Add(encodeBatches(fuzzBatch{remove: [][2]int32{{-1, 2}}}))
	f.Add(encodeBatches(fuzzBatch{add: [][2]int32{{1, 7}}, remove: [][2]int32{{0, 99}}}))
	const n = 16
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewManager(chain(t, n), func(*graph.Graph, func()) int { return 0 },
			Config{MaxStaleness: time.Hour, MaxPending: 4, MaxBacklog: 6})
		defer m.Close()
		want := make(map[[2]int32]bool) // last accepted op per edge
		for _, b := range decodeBatches(data) {
			before := m.Stats()
			if _, err := m.Apply(b.add, b.remove); err != nil {
				after := m.Stats()
				after.RejectedBacklog = before.RejectedBacklog
				if after != before {
					t.Fatalf("rejected batch %+v (%v) changed the manager: %+v -> %+v", b, err, before, after)
				}
				continue
			}
			for _, e := range b.add {
				want[e] = true
			}
			for _, e := range b.remove {
				want[e] = false
			}
		}
		if _, err := m.Flush(); err != nil {
			t.Fatal(err)
		}
		g := m.Graph()
		for e, present := range want {
			if g.HasEdge(e[0], e[1]) != present {
				t.Fatalf("edge %v: present=%v after flush, want %v", e, !present, present)
			}
		}
		if st := m.Stats(); st.PendingAdds+st.PendingRemoves != 0 {
			t.Fatalf("edits still pending after flush: %+v", st)
		}
	})
}
