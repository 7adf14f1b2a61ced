// Package metrics is the daemon's Prometheus exposition layer: a small,
// dependency-free metric registry rendering the text exposition format
// (version 0.0.4) that Prometheus scrapes, plus the per-route request
// families the daemon's request middleware feeds (http.go).
//
// The needs of jsinferd are deliberately modest — monotonic counters for
// ingest volume, function-backed gauges mirroring registry.Stats, and
// latency histograms per route — so the package implements exactly
// those three instrument kinds instead of pulling in a client library:
//
//	reg := metrics.NewRegistry()
//	docs := reg.Counter("jsinferd_ingest_docs_total", "Documents merged.")
//	docs.Add(42)
//	reg.Gauge("jsinferd_registry_collections", "Live collections.",
//	        func() float64 { return float64(len(cols)) })
//	http.Handle("GET /metrics", reg.Handler())
//
// All instruments are safe for concurrent use; counters and histograms
// update with atomics only. Rendering is deterministic: families sort
// by name, series by label values, so two scrapes of a quiet registry
// are byte-identical (and tests can pin output).
package metrics

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a set of metric families and renders them in the
// Prometheus text exposition format. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family is one named metric family: a kind, help text, a fixed label
// schema and its series (one for label-less instruments).
type family struct {
	name   string
	help   string
	kind   string // "counter", "gauge" or "histogram"
	labels []string

	mu     sync.Mutex
	series map[string]renderable // key: joined label values
	gauge  func() float64        // function-backed gauge families only
}

// renderable is one series: it appends its sample lines to b.
type renderable interface {
	render(b *strings.Builder, fam *family, labelValues string)
}

// NewRegistry returns an empty metric registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) family(name, help, kind string, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("metrics: %s re-registered as %s with %d labels (was %s/%d)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels,
		series: make(map[string]renderable)}
	r.fams[name] = f
	return f
}

// Counter registers (or returns) a label-less monotonic counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, "counter", nil)
	return f.counter("")
}

// CounterVec registers a counter family with the given label keys;
// series materialise on first With.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.family(name, help, "counter", labels)}
}

// Gauge registers a function-backed gauge: fn is called at scrape time,
// so the gauge always reports the live value without bookkeeping.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	f := r.family(name, help, "gauge", nil)
	f.mu.Lock()
	f.gauge = fn
	f.mu.Unlock()
}

// HistogramVec registers a histogram family over the given buckets
// (upper bounds, ascending; +Inf is implicit) with the given label
// keys.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("metrics: histogram buckets must ascend")
		}
	}
	return &HistogramVec{fam: r.family(name, help, "histogram", labels), buckets: buckets}
}

// Counter is a monotonic counter. Increments are atomic; Value is the
// exact count (the exposition renders it integer-formatted, so counters
// reconcile exactly against other integer surfaces such as /v1/stats).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

func (c *Counter) render(b *strings.Builder, fam *family, lv string) {
	b.WriteString(fam.name)
	b.WriteString(lv)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(c.v.Load(), 10))
	b.WriteByte('\n')
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct {
	fam *family
}

// With returns the counter for the given label values (in the order the
// keys were registered), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.fam.counter(v.fam.seriesKey(values))
}

func (f *family) counter(key string) *Counter {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s.(*Counter)
	}
	c := &Counter{}
	f.series[key] = c
	return c
}

// HistogramVec is a family of cumulative histograms sharing one bucket
// layout.
type HistogramVec struct {
	fam     *family
	buckets []float64
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	key := v.fam.seriesKey(values)
	v.fam.mu.Lock()
	defer v.fam.mu.Unlock()
	if s, ok := v.fam.series[key]; ok {
		return s.(*Histogram)
	}
	h := &Histogram{buckets: v.buckets, counts: make([]atomic.Uint64, len(v.buckets))}
	v.fam.series[key] = h
	return h
}

// Histogram counts observations into its buckets. Observe is atomic;
// the rendered _bucket series are cumulative as the text format
// requires.
type Histogram struct {
	buckets []float64
	counts  []atomic.Uint64 // per-bucket (non-cumulative)
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-added
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (h *Histogram) render(b *strings.Builder, fam *family, lv string) {
	// lv is either "" or "{k=\"v\",...}"; _bucket needs le spliced in.
	open := `{`
	if lv != "" {
		open = lv[:len(lv)-1] + `,`
	}
	var cum uint64
	for i, ub := range h.buckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%sle=%q} %d\n", fam.name, open, formatFloat(ub), cum)
	}
	fmt.Fprintf(b, "%s_bucket%sle=\"+Inf\"} %d\n", fam.name, open, h.count.Load())
	fmt.Fprintf(b, "%s_sum%s %s\n", fam.name, lv, formatFloat(math.Float64frombits(h.sumBits.Load())))
	fmt.Fprintf(b, "%s_count%s %d\n", fam.name, lv, h.count.Load())
}

// seriesKey renders the label braces for the given values — it doubles
// as the series map key, so equal label values share a series.
func (f *family) seriesKey(values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	if len(values) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the text exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Render writes every family in the text exposition format, families
// sorted by name and series by label values.
func (r *Registry) Render() string {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		if f.gauge != nil {
			fmt.Fprintf(&b, "%s %s\n", f.name, formatFloat(f.gauge()))
		}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			f.series[k].render(&b, f, k)
		}
		f.mu.Unlock()
	}
	return b.String()
}

// escapeHelp escapes help text per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler serves the registry in the text exposition format — mount it
// on GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, r.Render())
	})
}
