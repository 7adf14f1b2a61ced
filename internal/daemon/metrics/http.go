// http.go is the daemon's HTTP instrumentation: the per-endpoint
// request counters and latency histograms /metrics serves, by route
// pattern and status code.

package metrics

import (
	"strconv"
	"time"
)

// DefBuckets are the default latency buckets (seconds) — the spread
// Prometheus client libraries ship, wide enough for both in-memory
// snapshot reads and GB-scale ingest requests.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// HTTP meters served requests: totals by (route, code) and a latency
// histogram by route. Route is the mux pattern that matched
// (e.g. "POST /v1/collections/{name}/ingest"), so path parameters don't
// explode the label cardinality; unrouted requests meter as "unmatched".
type HTTP struct {
	requests *CounterVec
	latency  *HistogramVec
}

// NewHTTP registers the request families on reg under the given
// namespace prefix (e.g. "jsinferd").
func NewHTTP(reg *Registry, namespace string) *HTTP {
	return &HTTP{
		requests: reg.CounterVec(namespace+"_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "route", "code"),
		latency: reg.HistogramVec(namespace+"_http_request_seconds",
			"HTTP request latency in seconds, by route pattern.", DefBuckets, "route"),
	}
}

// Observe meters one finished request: route is the mux pattern that
// matched (or "unmatched"), code the status written, d how long the
// request took. The daemon's request middleware calls it once per
// request, with the same figures it logs and traces.
func (h *HTTP) Observe(route string, code int, d time.Duration) {
	h.requests.With(route, strconv.Itoa(code)).Inc()
	h.latency.With(route).Observe(d.Seconds())
}
