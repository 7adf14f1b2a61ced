// observability_test.go exercises the daemon's flight recorder: the
// pprof debug listener surface, traceparent propagation into the
// /debug/traces ring, the structured request log, and the pipeline
// stage counters travelling end to end from an adversarial ingest to
// /v1/stats, /metrics and the trace attributes.

package main

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/daemon/trace"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/registry"
)

// newObservedServer is newTestServer with the tracing/logging seams
// exposed: the caller sees the tracer ring and the log buffer the
// handler writes into.
func newObservedServer(t *testing.T, opts registry.Options, cfg handlerConfig) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg := registry.New(opts)
	srv := httptest.NewServer(newHandler(reg, cfg))
	t.Cleanup(func() {
		srv.Close()
		reg.Close()
	})
	return srv, reg
}

// TestDebugHandlerServesPprof is the flip side of the matrix's
// pprof-absent-from-api-404 rows: the -debug-addr handler is where the
// profiles actually live.
func TestDebugHandlerServesPprof(t *testing.T) {
	srv := httptest.NewServer(newDebugHandler())
	defer srv.Close()

	code, body := get(t, srv.URL+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: %d, body %.80q", code, body)
	}
	if code, _ := get(t, srv.URL+"/debug/pprof/cmdline"); code != 200 {
		t.Errorf("pprof cmdline: %d", code)
	}
	// The heap profile streams protobuf; status is what matters.
	if code, _ := get(t, srv.URL+"/debug/pprof/heap"); code != 200 {
		t.Errorf("pprof heap: %d", code)
	}
}

// findTrace locates the /debug/traces entry with the given trace ID.
func findTrace(t *testing.T, tracesBody, traceID string) *jsonvalue.Value {
	t.Helper()
	tv, err := jsontext.ParseString(tracesBody)
	if err != nil {
		t.Fatal(err)
	}
	traces, ok := tv.Get("traces")
	if !ok {
		t.Fatalf(`/debug/traces lacks "traces": %s`, tracesBody)
	}
	for _, tr := range traces.Elems() {
		if id, ok := tr.Get("trace_id"); ok && id.Str() == traceID {
			return tr
		}
	}
	t.Fatalf("trace %s not in /debug/traces:\n%s", traceID, tracesBody)
	return nil
}

// TestTraceparentJoinsAndRecords drives one traced ingest end to end: a
// W3C traceparent goes in, the same trace ID comes back on the
// response, and /debug/traces shows the request joined to the caller's
// trace with the admission→quota→ingest→flush stage spans and the
// ingest volume attributes on the root.
func TestTraceparentJoinsAndRecords(t *testing.T) {
	srv, _ := newObservedServer(t, registry.Options{}, handlerConfig{tracer: trace.New(8)})

	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const callerSpan = "00f067aa0ba902b7"
	req, err := http.NewRequest("POST", srv.URL+"/v1/collections/traced/ingest",
		strings.NewReader(`{"a": 1}`+"\n"+`{"a": 2, "b": "x"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Traceparent", "00-"+callerTrace+"-"+callerSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	// The response advertises the daemon's span inside the caller's
	// trace, so the caller can stitch the two sides together.
	tp, ok := trace.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q unparsable", resp.Header.Get("Traceparent"))
	}
	if tp.TraceID.String() != callerTrace {
		t.Errorf("response trace ID %s, want the caller's %s", tp.TraceID, callerTrace)
	}

	_, body := get(t, srv.URL+"/debug/traces")
	tr := findTrace(t, body, callerTrace)
	if remote, _ := tr.Get("remote"); !remote.Bool() {
		t.Error("joined trace must be marked remote")
	}
	spans, _ := tr.Get("spans")
	root := spans.Elem(0)
	if name, _ := root.Get("name"); name.Str() != "POST /v1/collections/{name}/ingest" {
		t.Errorf("root span name %q, want the route pattern", name.Str())
	}
	if parent, _ := root.Get("parent_id"); parent.Str() != callerSpan {
		t.Errorf("root hangs under %q, want the caller's span %s", parent.Str(), callerSpan)
	}
	attrs, _ := root.Get("attrs")
	for attr, want := range map[string]int64{"docs": 2, "status": 200, "fallback_records": 0} {
		if v, ok := attrs.Get(attr); !ok || v.Int() != want {
			t.Errorf("root attr %s = %v, want %d", attr, v, want)
		}
	}
	if v, ok := attrs.Get("collection"); !ok || v.Str() != "traced" {
		t.Errorf("root attr collection = %v", v)
	}
	// The root's children are exactly the stages an ingest has: the
	// collector absorbs as the pipeline commits, so nothing follows
	// "ingest".
	var stages []string
	for _, sp := range spans.Elems()[1:] {
		name, _ := sp.Get("name")
		stages = append(stages, name.Str())
	}
	if want := []string{"admission", "decode", "quota", "ingest"}; !slices.Equal(stages, want) {
		t.Errorf("stage spans %v, want %v", stages, want)
	}
}

// TestTracesRingWithoutParent covers the common case: no caller
// traceparent, every request still lands in the ring under a fresh
// trace ID, newest last.
func TestTracesRingWithoutParent(t *testing.T) {
	srv, _ := newObservedServer(t, registry.Options{}, handlerConfig{tracer: trace.New(4)})

	for i := 0; i < 6; i++ {
		get(t, srv.URL+"/healthz")
	}
	_, body := get(t, srv.URL+"/debug/traces")
	tv, err := jsontext.ParseString(body)
	if err != nil {
		t.Fatal(err)
	}
	traces, _ := tv.Get("traces")
	if traces.Len() != 4 {
		t.Fatalf("ring holds %d traces, want capacity 4", traces.Len())
	}
	for _, tr := range traces.Elems() {
		name, _ := tr.Get("name")
		if name.Str() != "GET /healthz" {
			t.Errorf("ring entry %q, want only the healthz requests to survive", name.Str())
		}
		if remote, _ := tr.Get("remote"); remote.Bool() {
			t.Error("parentless trace must not be marked remote")
		}
	}
}

// TestRequestLogging pins the structured request log: one line per
// request carrying method, route pattern, status, duration and the
// trace ID, plus a warning line past the -slow-request threshold.
func TestRequestLogging(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{mu: &mu, w: &buf}, nil))
	srv, _ := newObservedServer(t, registry.Options{},
		handlerConfig{logger: logger, slow: time.Nanosecond})

	get(t, srv.URL+"/healthz")
	get(t, srv.URL+"/nowhere")
	post(t, srv.URL+"/v1/collections/c/ingest", []byte(`{"a": 1}`+"\n"))
	get(t, srv.URL+"/v1/collections/c/schema") // text form: Write without WriteHeader

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	byMsgRoute := map[[2]string]*jsonvalue.Value{}
	for _, line := range lines {
		lv, err := jsontext.ParseString(line)
		if err != nil {
			t.Fatalf("unparsable log line %q: %v", line, err)
		}
		msg, _ := lv.Get("msg")
		route, _ := lv.Get("route")
		byMsgRoute[[2]string{msg.Str(), route.Str()}] = lv
	}

	healthz, ok := byMsgRoute[[2]string{"request", "GET /healthz"}]
	if !ok {
		t.Fatalf("no request line for GET /healthz in %v", lines)
	}
	if status, _ := healthz.Get("status"); status.Int() != 200 {
		t.Errorf("healthz log status = %d", status.Int())
	}
	if id, ok := healthz.Get("trace_id"); !ok || len(id.Str()) != 32 {
		t.Errorf("healthz log trace_id = %v, want a 32-hex trace ID", id)
	}
	if dur, ok := healthz.Get("duration_ms"); !ok || dur.Num() < 0 {
		t.Errorf("healthz log duration_ms = %v", dur)
	}
	// Unmatched requests log under the "unmatched" route with the mux's
	// 404, so route-label cardinality stays bounded.
	if unmatched, ok := byMsgRoute[[2]string{"request", "unmatched"}]; !ok {
		t.Error("no request line for the unmatched route")
	} else if status, _ := unmatched.Get("status"); status.Int() != 404 {
		t.Errorf("unmatched log status = %d, want 404", status.Int())
	}
	// The request metrics are fed the very route and status the log line
	// carries — one middleware derives them once.
	_, exposition := get(t, srv.URL+"/metrics")
	for _, series := range []string{
		`jsinferd_http_requests_total{route="GET /healthz",code="200"}`,
		`jsinferd_http_requests_total{route="unmatched",code="404"}`,
		`jsinferd_http_requests_total{route="GET /v1/collections/{name}/schema",code="200"}`,
		`jsinferd_http_request_seconds_count{route="unmatched"}`,
	} {
		if got := metricValue(t, exposition, series); got != 1 {
			t.Errorf("%s = %v, want 1", series, got)
		}
	}
	// slow = 1ns: every request also warns, with the threshold attached.
	slow, ok := byMsgRoute[[2]string{"slow request", "GET /healthz"}]
	if !ok {
		t.Fatal("no slow-request warning despite a 1ns threshold")
	}
	if lvl, _ := slow.Get("level"); lvl.Str() != "WARN" {
		t.Errorf("slow-request level = %q, want WARN", lvl.Str())
	}
	if _, ok := slow.Get("threshold_ms"); !ok {
		t.Error("slow-request line lacks threshold_ms")
	}
}

// lockedWriter serialises handler log writes against the test's reads.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestNewLoggerFormats(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		if logger, err := newLogger(format); err != nil || logger == nil {
			t.Errorf("newLogger(%q): %v", format, err)
		}
	}
	if _, err := newLogger("logfmt"); err == nil {
		t.Error("newLogger accepted an unknown format")
	}
}

// TestPipelineCountersEndToEnd is the acceptance criterion for the
// stage stats: a default daemon ingests clean and adversarial
// payloads, and the fallback counter — and the window counter: every
// body here is one chunk — come out, with the same values, on
// /v1/stats and /metrics, the fallback counter also on the request's
// trace attributes, where every other attribute names the request or
// is a flight-recorder counter under its table name.
func TestPipelineCountersEndToEnd(t *testing.T) {
	tracer := trace.New(16)
	srv, _ := newObservedServer(t, registry.Options{}, handlerConfig{tracer: tracer})

	// Clean ingest: everything absorbs off the structural index.
	if code, out := post(t, srv.URL+"/v1/collections/c/ingest",
		[]byte(`{"a": 1}`+"\n"+`{"a": 2}`+"\n"+`{"a": 3}`+"\n")); code != 200 {
		t.Fatalf("clean ingest: %d %s", code, out)
	}
	// A bad literal bails the index absorber into the token fallback
	// (which also rejects it — the kept prefix survives).
	if code, _ := post(t, srv.URL+"/v1/collections/c/ingest",
		[]byte(`{"a": 4}`+"\n"+`{"a": trve}`+"\n")); code != 400 {
		t.Fatal("bad literal: want 400")
	}
	// An unterminated string breaks quote parity; the chunk is indexed
	// all the same, the record before it comes off the index and the
	// broken one is the token fallback's to reject.
	if code, _ := post(t, srv.URL+"/v1/collections/c/ingest",
		[]byte(`{"a": 5}`+"\n"+`{"a": "unterminated`)); code != 400 {
		t.Fatal("unterminated string: want 400")
	}

	_, stats := get(t, srv.URL+"/v1/stats")
	sv, err := jsontext.ParseString(stats)
	if err != nil {
		t.Fatal(err)
	}
	pv, ok := sv.Get("pipeline")
	if !ok {
		t.Fatalf("/v1/stats lacks pipeline: %s", stats)
	}
	for stat, want := range map[string]int64{
		"fallback_records": 2, // the two broken records; the 5 before them came off the index
		"chunks_split":     3,
	} {
		if v, _ := pv.Get(stat); v.Int() != want {
			t.Errorf("/v1/stats pipeline.%s = %d, want %d", stat, v.Int(), want)
		}
	}

	_, exp := get(t, srv.URL+"/metrics")
	for metric, want := range map[string]float64{
		"jsinferd_pipeline_fallback_records_total": 2,
		"jsinferd_pipeline_chunks_split_total":     3,
	} {
		if got := metricValue(t, exp, metric); got != want {
			t.Errorf("%s = %v, want %v", metric, got, want)
		}
	}

	// The per-request view: each ingest trace carries its own share of
	// the counters, so the three requests' attributes sum to the totals.
	_, body := get(t, srv.URL+"/debug/traces")
	tv, err := jsontext.ParseString(body)
	if err != nil {
		t.Fatal(err)
	}
	traces, _ := tv.Get("traces")
	sums := map[string]int64{}
	ingests := 0
	for _, tr := range traces.Elems() {
		name, _ := tr.Get("name")
		if name.Str() != "POST /v1/collections/{name}/ingest" {
			continue
		}
		ingests++
		spans, _ := tr.Get("spans")
		attrs, _ := spans.Elem(0).Get("attrs")
		for _, attr := range attrs.Fields() {
			request := slices.Contains([]string{"method", "route", "status", "collection", "docs", "bytes"}, attr.Name)
			if !request && !slices.ContainsFunc(infer.StatsFields, func(f infer.StatsField) bool { return f.Name == attr.Name }) {
				t.Errorf("ingest trace attr %q is neither the request's nor a counter of infer.StatsFields", attr.Name)
			}
		}
		for _, key := range []string{"docs", "fallback_records"} {
			v, ok := attrs.Get(key)
			if !ok {
				t.Fatalf("ingest trace lacks attr %q: %s", key, tr)
			}
			sums[key] += v.Int()
		}
	}
	if ingests != 3 {
		t.Fatalf("found %d ingest traces, want 3", ingests)
	}
	for key, want := range map[string]int64{
		"docs": 5, "fallback_records": 2,
	} {
		if sums[key] != want {
			t.Errorf("trace attr %s sums to %d, want %d (must reconcile with /v1/stats)", key, sums[key], want)
		}
	}
}

// TestPipelineSurfacesFollowStatsFields holds the daemon's faces of the
// flight recorder to its one table (infer.StatsFields): the "pipeline"
// object of /v1/stats and of every /v1/collections entry has exactly the
// table's names as keys, in table order, and /metrics has exactly one
// jsinferd_pipeline_* family per row — <name>_total, or for a stage's
// clock <stage>_seconds_total — with the row's help text.
func TestPipelineSurfacesFollowStatsFields(t *testing.T) {
	srv, _ := newTestServer(t, registry.Options{})
	if code, out := post(t, srv.URL+"/v1/collections/c/ingest", []byte(`{"a": 1}`+"\n")); code != 200 {
		t.Fatalf("ingest: %d %s", code, out)
	}
	var wantKeys, wantFamilies []string
	for _, f := range infer.StatsFields {
		wantKeys = append(wantKeys, f.Name)
		family := "jsinferd_pipeline_" + f.Name + "_total"
		if f.Clock() {
			family = "jsinferd_pipeline_" + f.Stage + "_seconds_total"
		}
		wantFamilies = append(wantFamilies, "# HELP "+family+" "+f.Help)
	}

	parse := func(body string) *jsonvalue.Value {
		t.Helper()
		v, err := jsontext.ParseString(body)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	_, stats := get(t, srv.URL+"/v1/stats")
	if pv, ok := parse(stats).Get("pipeline"); !ok || !slices.Equal(pv.FieldNames(), wantKeys) {
		t.Errorf("/v1/stats pipeline = %v, want the table's keys %v", pv, wantKeys)
	}
	_, list := get(t, srv.URL+"/v1/collections")
	cols, _ := parse(list).Get("collections")
	if pv, ok := cols.Elem(0).Get("pipeline"); !ok || !slices.Equal(pv.FieldNames(), wantKeys) {
		t.Errorf("/v1/collections pipeline = %v, want the table's keys %v", pv, wantKeys)
	}

	_, exposition := get(t, srv.URL+"/metrics")
	var gotFamilies []string
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "# HELP jsinferd_pipeline_") {
			gotFamilies = append(gotFamilies, line)
		}
	}
	slices.Sort(wantFamilies) // the exposition sorts families by name
	if !slices.Equal(gotFamilies, wantFamilies) {
		t.Errorf("/metrics pipeline families:\n%s\nwant one per table row:\n%s",
			strings.Join(gotFamilies, "\n"), strings.Join(wantFamilies, "\n"))
	}
}
