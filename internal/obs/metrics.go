// Package obs is the query-level observability layer: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms) with
// Prometheus text exposition, plus per-query phase traces with a ring
// buffer for postmortem inspection (see trace.go).
//
// The registry is safe for concurrent use. Metric lookups are
// get-or-create, so hot paths can call
//
//	reg.Counter("rwr_http_requests_total", "", "path", "/v1/query").Inc()
//
// without holding a reference, though holding one avoids the map lookup.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64 value.
type Counter struct{ bits atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (negative deltas are ignored — counters only go up).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	atomicAddFloat(&c.bits, delta)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an arbitrary float64 value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta float64) { atomicAddFloat(&g.bits, delta) }

// Inc adds 1 and Dec subtracts 1; together they track in-flight work.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func atomicAddFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// kind discriminates metric families in the exposition output.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k kind) String() string {
	switch k {
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// family groups every label combination (series) of one metric name under
// a single HELP/TYPE pair, as the exposition format requires.
type family struct {
	name string
	help string
	kind kind

	mu     sync.Mutex
	series map[string]any // rendered label string -> *Counter | *Gauge | *Histogram | func() float64
	order  []string       // insertion order of label strings
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter for name and the given label pairs, creating
// it on first use. help is recorded on first registration of name; labels
// are alternating key, value strings.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	v := r.series(name, help, kindCounter, labels, func() any { return &Counter{} })
	return v.(*Counter)
}

// Gauge is Counter for gauges.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	v := r.series(name, help, kindGauge, labels, func() any { return &Gauge{} })
	return v.(*Gauge)
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for totals maintained elsewhere (e.g. an edit quota's rejections).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.series(name, help, kindCounterFunc, labels, func() any { return fn })
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.series(name, help, kindGaugeFunc, labels, func() any { return fn })
}

// Histogram returns the histogram for name and label pairs, creating it
// with the given bucket upper bounds on first use (nil = DefBuckets).
// Bounds must be sorted ascending; an implicit +Inf bucket is always added.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	v := r.series(name, help, kindHistogram, labels, func() any { return newHistogram(buckets) })
	return v.(*Histogram)
}

func (r *Registry) series(name, help string, k kind, labels []string, make func() any) any {
	if len(labels)%2 != 0 {
		panic("obs: labels must be alternating key, value pairs")
	}
	r.mu.Lock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, series: map[string]any{}}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	r.mu.Unlock()
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, k, f.kind))
	}

	ls := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[ls]
	if !ok {
		s = make()
		f.series[ls] = s
		f.order = append(f.order, ls)
	}
	return s
}

// renderLabels renders pairs sorted by key as `{k1="v1",k2="v2"}` (empty
// string for no labels) so the same label set always maps to one series.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q produces exactly the \\, \", \n escapes the exposition
		// format defines.
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabels splices an extra pair (e.g. le="0.5") into a rendered label
// string.
func mergeLabels(rendered, key, value string) string {
	extra := fmt.Sprintf("%s=%q", key, value)
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4). Families appear in registration
// order; series within a family in their registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		f.mu.Lock()
		type row struct {
			ls string
			v  any
		}
		rows := make([]row, 0, len(f.order))
		for _, ls := range f.order {
			rows = append(rows, row{ls, f.series[ls]})
		}
		f.mu.Unlock()
		for _, s := range rows {
			if err := writeSeries(w, f, s.ls, s.v); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, ls string, v any) error {
	switch m := v.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, ls, formatFloat(m.Value()))
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, ls, formatFloat(m.Value()))
		return err
	case func() float64:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, ls, formatFloat(m()))
		return err
	case *Histogram:
		counts, sum, total := m.snapshot()
		cum := uint64(0)
		for i, c := range counts {
			cum += c
			le := mergeLabels(ls, "le", formatFloat(m.bounds[i]))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, le, cum); err != nil {
				return err
			}
		}
		le := mergeLabels(ls, "le", "+Inf")
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, le, total); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, ls, formatFloat(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, ls, total)
		return err
	default:
		return fmt.Errorf("obs: unknown series type %T", v)
	}
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}
