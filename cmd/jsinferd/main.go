// Command jsinferd is the schema-inference ingest daemon: a long-running
// HTTP service over the live-merge registry (internal/registry). Clients
// stream NDJSON at named collections and read back the monotonically
// growing schema at any time, in any of jsinfer's output formats — the
// batch CLI turned into a service, with byte-identical schemas: both
// commands write every form through one writer,
// core.Inference.WriteSchema, and the daemon decides only the
// Content-Type and the 400 for an unknown form.
//
// Usage:
//
//	jsinferd [-addr :8787] [-engine parametric-L|parametric-K]
//	         [-max-body N] [-rate-docs N] [-rate-bytes N]
//	         [-log-format text|json] [-slow-request D]
//	         [-trace-buffer N] [-debug-addr addr]
//
// Observability (see docs/ARCHITECTURE.md, "Observability"):
//
//   - Logs go to stderr through log/slog; -log-format picks text
//     (default) or json. Every request logs one line with method, route
//     pattern, status, duration and trace ID; a request slower than
//     -slow-request additionally logs at warning level (0 disables).
//   - Every request runs under a span tracer: an incoming W3C
//     traceparent header is joined (the response echoes the daemon's
//     own traceparent either way), ingest requests grow child spans per
//     stage (admission → decode → quota → ingest) with document, byte
//     and index-fallback attributes, and the last -trace-buffer
//     finished traces are served as JSON from GET /debug/traces.
//   - -debug-addr (off by default) serves net/http/pprof on a separate
//     listener, keeping profiling off the public API surface.
//
// API:
//
//	PUT /v1/collections/{name}[?equiv=K|L][&quota=docs=N,bytes=N]
//	    Creates the collection without ingesting — under the given
//	    merge equivalence when ?equiv= is set, the daemon default
//	    otherwise. 201 on creation, 200 when it already exists with a
//	    compatible equivalence, 409 when ?equiv= disagrees with the
//	    equivalence the collection was created under. ?quota= pins a
//	    per-collection ingest rate limit overriding the daemon's
//	    -rate-docs/-rate-bytes defaults (0 or an empty value lifts the
//	    limit); on an existing collection it re-targets the live quota
//	    in place.
//	POST /v1/collections/{name}/ingest[?equiv=K|L][&quota=...]
//	    Body: NDJSON or concatenated JSON, streamed straight into the
//	    chunked inference pipeline (bounded memory; the body is never
//	    materialised). Content-Encoding: gzip bodies decode
//	    transparently — schemas and doc counts are byte-identical to
//	    the identity encoding, and -max-body applies to *decompressed*
//	    bytes, so a compressed body cannot smuggle past the limit. An
//	    unsupported encoding (zstd included) yields 415 before any
//	    byte is read.
//	    With ?equiv=, a collection created by this call folds under
//	    that equivalence instead of the daemon default; on an existing
//	    collection a disagreeing ?equiv= yields 409 before any byte is
//	    read. A collection over its ingest quota yields 429 with a
//	    Retry-After header, likewise before any body byte is read.
//	    Returns a JSON summary {collection, docs, total_docs,
//	    version}. A malformed document merges exactly the documents
//	    before it and yields 400 with the absolute body offset; the
//	    collection keeps the prefix. With -max-body N, a body
//	    exceeding N (decoded) bytes yields 413 with the same
//	    bytes-kept semantics: the documents that fit under the limit
//	    are merged and reported.
//	DELETE /v1/collections/{name}
//	    Removes the collection and its accumulator (404 when the name
//	    is unknown). The name is immediately reusable; a later ingest
//	    starts from scratch.
//	GET /v1/collections/{name}/schema?output=type|counted|jsonschema|typescript|swift
//	    The live schema in jsinfer's output formats, byte for byte what
//	    `jsinfer -output FORM` prints over the same documents (counted
//	    is `jsinfer -counted`): text/plain for
//	    type/counted/typescript/swift, application/json for jsonschema.
//	    With ?meta=1, a JSON envelope with docs/version/schema instead.
//	GET /v1/collections
//	    JSON list of collections with docs/version/error counters, the
//	    schema's size (schema_nodes, and per_doc against docs, as
//	    jsinfer -stats prints it) and each collection's pipeline stage
//	    counters.
//	GET /v1/stats
//	    Registry-wide aggregates (collections, docs, bytes, ingests,
//	    errors, rate-limited rejections, sealed schema nodes) plus the
//	    aggregated pipeline flight recorder:
//	    chunk/doc counters, index fast-path vs token-fallback records,
//	    seals and collector fuses, and per-stage clocks.
//	GET /debug/traces
//	    The most recent finished request traces (JSON, oldest first):
//	    span trees with per-stage timings and ingest attributes.
//	GET /metrics
//	    Prometheus text exposition (format 0.0.4): ingest volume and
//	    error counters, per-route request totals and latency
//	    histograms, live registry gauges, pipeline stage counters and
//	    runtime (goroutine/heap) gauges. The ingest and pipeline
//	    figures reconcile exactly with /v1/stats once in-flight
//	    requests quiesce.
//	GET /healthz
//	    Liveness.
//
// Concurrent ingests — to one collection or many — absorb into each
// collection's sharded collector; a schema read seals and fuses what
// was added since the last one, or answers from a cache. See
// docs/ARCHITECTURE.md for the collector and the consistency model.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/daemon/intake"
	"repro/internal/daemon/metrics"
	"repro/internal/daemon/trace"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/registry"
	"repro/internal/typelang"
)

// daemonFlags are jsinferd's flags. registerFlags defines them on a flag
// set of the caller's choosing so the README test can walk exactly the
// set main parses.
type daemonFlags struct {
	addr, engine, logFormat, debugAddr *string
	traceBuf                           *int
	maxBody                            *int64
	rateDocs, rateBytes                *float64
	slowReq                            *time.Duration
}

func registerFlags(fs *flag.FlagSet) daemonFlags {
	return daemonFlags{
		addr:      fs.String("addr", ":8787", "listen address"),
		engine:    fs.String("engine", "parametric-L", "inference engine: parametric-L or parametric-K"),
		maxBody:   fs.Int64("max-body", 0, "max ingest request body in bytes (decoded, for compressed bodies); 0 disables the limit"),
		rateDocs:  fs.Float64("rate-docs", 0, "default per-collection ingest quota in documents/sec; 0 disables the limit"),
		rateBytes: fs.Float64("rate-bytes", 0, "default per-collection ingest quota in decoded bytes/sec; 0 disables the limit"),
		logFormat: fs.String("log-format", "text", "log line format: text or json"),
		slowReq:   fs.Duration("slow-request", 0, "log a warning for requests slower than this (0 disables)"),
		traceBuf:  fs.Int("trace-buffer", trace.DefaultCapacity, "finished request traces kept for /debug/traces"),
		debugAddr: fs.String("debug-addr", "", "serve net/http/pprof on this extra listener (empty disables)"),
	}
}

// check rejects the flag values that would silently mean something
// else: a quota rate ?quota= would refuse (negative, NaN or infinite —
// Quota.Limited would read it as no limit), and a negative -max-body,
// -trace-buffer or -slow-request (which would read as off or as the
// default).
func (f daemonFlags) check() error {
	for _, r := range []struct {
		flag, key string
		rate      float64
	}{{"-rate-docs", "docs", *f.rateDocs}, {"-rate-bytes", "bytes", *f.rateBytes}} {
		if _, err := parseQuota(r.key + "=" + strconv.FormatFloat(r.rate, 'g', -1, 64)); err != nil {
			return fmt.Errorf("%s: %w", r.flag, err)
		}
	}
	switch {
	case *f.maxBody < 0:
		return errors.New("-max-body must be 0 (no limit) or more")
	case *f.traceBuf < 0:
		return fmt.Errorf("-trace-buffer must be 0 (the default, %d) or more", trace.DefaultCapacity)
	case *f.slowReq < 0:
		return errors.New("-slow-request must be 0 (off) or more")
	}
	return nil
}

// Both listeners get the same connection deadlines: a client that
// stalls before finishing its request headers, or parks an idle
// keep-alive connection, is disconnected instead of pinning a goroutine
// forever. A body has no overall deadline (a legitimate multi-GB ingest
// is long), only bodyIdleTimeout for each read of it (see idleBody).
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	bodyIdleTimeout   = time.Minute
)

// newServer builds the http.Server both listeners are served through.
func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	opt := registerFlags(flag.CommandLine)
	flag.Parse()

	logger, err := newLogger(*opt.logFormat)
	if err == nil {
		err = opt.check()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "jsinferd: %v\n", err)
		os.Exit(1)
	}

	opts := registry.Options{Quota: registry.Quota{DocsPerSec: *opt.rateDocs, BytesPerSec: *opt.rateBytes}}
	switch *opt.engine {
	case "parametric-L":
		opts.Equiv = typelang.EquivLabel
	case "parametric-K":
		opts.Equiv = typelang.EquivKind
	default:
		logger.Error("unknown engine (want parametric-L or parametric-K)", "engine", *opt.engine)
		os.Exit(1)
	}

	reg := registry.New(opts)
	srv := newServer(newHandler(reg, handlerConfig{
		maxBody: *opt.maxBody,
		logger:  logger,
		tracer:  trace.New(*opt.traceBuf),
		slow:    *opt.slowReq,
	}))
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down")
		// Drain in-flight ingests: an interrupted POST would leave the
		// client unable to tell which prefix of its body was merged.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "err", err)
		}
	}()

	if *opt.debugAddr != "" {
		// pprof lives on its own listener, never on the API mux: an
		// operator opts in with -debug-addr (typically bound to
		// localhost) and profiling stays off the public surface.
		dln, err := net.Listen("tcp", *opt.debugAddr)
		if err != nil {
			logger.Error("debug listen", "addr", *opt.debugAddr, "err", err)
			os.Exit(1)
		}
		logger.Info("debug server listening (pprof)", "addr", dln.Addr().String())
		go func() {
			if err := newServer(newDebugHandler()).Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server", "err", err)
			}
		}()
	}

	// Bind before announcing: the "listening" line only appears once the
	// socket is actually accepting, so scripts that wait for it (the
	// smoke test, container healthchecks) cannot race the bind — and a
	// bind failure is reported instead of a premature success line.
	ln, err := net.Listen("tcp", *opt.addr)
	if err != nil {
		logger.Error("listen", "addr", *opt.addr, "err", err)
		os.Exit(1)
	}
	logger.Info("listening", "engine", *opt.engine, "addr", ln.Addr().String())
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve", "err", err)
		os.Exit(1)
	}
	<-done
}

// newLogger builds the daemon's slog logger on stderr in the requested
// line format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
}

// handlerConfig carries the daemon handler's cross-cutting dependencies
// — the seam that lets tests run with a discarded logger and a private
// tracer.
type handlerConfig struct {
	// maxBody > 0 caps the ingest request body in *decoded* bytes (the
	// -max-body backpressure flag); 0 means unlimited.
	maxBody int64
	// logger receives the per-request and slow-request lines; nil
	// discards them.
	logger *slog.Logger
	// tracer records request traces; nil mints a private tracer.
	tracer *trace.Tracer
	// slow is the slow-request warning threshold; 0 disables it.
	slow time.Duration
	// bodyIdle is how long one read of an ingest body may make no
	// progress; 0 means bodyIdleTimeout. Tests shorten it.
	bodyIdle time.Duration
}

// newHandler builds the daemon's routing table over reg, instrumented
// end to end: every route is traced and metered, and the ingest path
// feeds the volume counters /metrics serves. It is the seam the tests
// drive through httptest.
func newHandler(reg *registry.Registry, cfg handlerConfig) http.Handler {
	if cfg.logger == nil {
		cfg.logger = slog.New(slog.DiscardHandler)
	}
	if cfg.tracer == nil {
		cfg.tracer = trace.New(0)
	}
	if cfg.bodyIdle == 0 {
		cfg.bodyIdle = bodyIdleTimeout
	}
	prom := metrics.NewRegistry()
	// The ingest counters mirror the registry's own accounting, fed from
	// the same IngestResult, so after in-flight requests quiesce they
	// reconcile exactly with /v1/stats: docs/bytes include kept prefixes
	// of failed ingests, errors counts only failures that reached the
	// pipeline (not 409/429 admission rejections, which never read a
	// byte).
	ingestDocs := prom.Counter("jsinferd_ingest_docs_total",
		"Documents merged by ingest calls, kept prefixes of failed ingests included.")
	ingestBytes := prom.Counter("jsinferd_ingest_bytes_total",
		"Decoded payload bytes read by ingest calls.")
	ingestErrors := prom.Counter("jsinferd_ingest_errors_total",
		"Ingest calls that ended in a pipeline error (malformed document, over-limit or corrupt body).")
	rateLimited := prom.Counter("jsinferd_rate_limited_total",
		"Ingest requests rejected by a collection quota (429s).")
	// Runtime gauges back the -debug-addr pprof endpoints: the scrape
	// shows *that* goroutines or heap grew, the profiles show *why* (the
	// heap gauges are statsGauges': they share one ReadMemStats).
	prom.Gauge("jsinferd_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })

	mux := http.NewServeMux()
	// The registry aggregates and the pipeline flight recorder are
	// gauges over the registry.Stats /v1/stats serves, so the two
	// surfaces reconcile exactly once ingest quiesces (counters reset
	// when a collection is deleted, like the registry's own accounting).
	mux.Handle("GET /metrics", statsGauges(prom, reg.Stats, runtime.ReadMemStats))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, jsonvalue.ObjectFromPairs("status", "ok"))
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		st := reg.Stats()
		writeJSON(w, http.StatusOK, jsonvalue.ObjectFromPairs(
			"collections", st.Collections,
			"docs", st.Docs,
			"bytes", st.Bytes,
			"ingests", st.Ingests,
			"errors", st.Errors,
			"rate_limited", st.RateLimited,
			"schema_nodes", st.SchemaNodes,
			"pipeline", pipelineMeta(st.Pipeline),
		))
	})
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		recent := cfg.tracer.Recent()
		items := make([]*jsonvalue.Value, len(recent))
		for i, tr := range recent {
			items[i] = traceMeta(tr.Info())
		}
		writeJSON(w, http.StatusOK, jsonvalue.ObjectFromPairs(
			"traces", jsonvalue.NewArray(items...)))
	})
	mux.HandleFunc("GET /v1/collections", func(w http.ResponseWriter, r *http.Request) {
		snaps := reg.List()
		items := make([]*jsonvalue.Value, len(snaps))
		for i, s := range snaps {
			items[i] = snapshotMeta(s)
		}
		writeJSON(w, http.StatusOK, jsonvalue.ObjectFromPairs(
			"collections", jsonvalue.NewArray(items...)))
	})
	mux.HandleFunc("PUT /v1/collections/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if name == "" {
			writeError(w, http.StatusBadRequest, "empty collection name")
			return
		}
		co, err := collectionOpts(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		snap, created, err := reg.Create(name, co)
		if err != nil {
			writeError(w, http.StatusConflict, err.Error())
			return
		}
		status := http.StatusOK
		if created {
			status = http.StatusCreated
		}
		writeJSON(w, status, snapshotMeta(snap).WithField("created", jsonvalue.FromGo(created)))
	})
	mux.HandleFunc("POST /v1/collections/{name}/ingest", func(w http.ResponseWriter, r *http.Request) {
		tr := traceFrom(r.Context())
		admission := tr.StartSpan("admission", nil)
		name := r.PathValue("name")
		if name == "" {
			admission.End()
			writeError(w, http.StatusBadRequest, "empty collection name")
			return
		}
		co, err := collectionOpts(r)
		admission.End()
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		// intake.Body is lazy — headers only — so quota and equivalence
		// admission below still happen before any body byte is read.
		decode := tr.StartSpan("decode", nil)
		r.Body = &idleBody{ReadCloser: r.Body, conn: http.NewResponseController(w), idle: cfg.bodyIdle}
		body, err := intake.Body(w, r, cfg.maxBody)
		decode.End()
		if err != nil {
			writeError(w, http.StatusUnsupportedMediaType, err.Error())
			return
		}
		if tr != nil {
			// The registry's stage observer hangs the quota/ingest
			// spans off this request's trace; the registry itself stays
			// tracing-agnostic.
			co.Observer = func(stage string) func() {
				if stage == "pipeline" {
					stage = "ingest"
				}
				return tr.StartSpan(stage, nil).End
			}
		}
		res, err := reg.IngestWith(name, body, co)
		if root := tr.Root(); root != nil {
			root.SetAttr("collection", name)
			root.SetAttr("docs", int64(res.Docs))
			root.SetAttr("bytes", res.Bytes)
			root.SetAttr("chunks_direct", res.Stats.ChunksDirect)
			root.SetAttr("index_records", res.Stats.IndexRecords)
			root.SetAttr("fallback_records", res.Stats.FallbackRecords)
		}
		// Kept prefixes of failed ingests count too: the documents are
		// merged, so the counters reflect them (and reconcile with
		// /v1/stats, which sees the same IngestResult accounting).
		ingestDocs.Add(uint64(res.Docs))
		ingestBytes.Add(uint64(res.Bytes))
		if err != nil {
			var rl *registry.RateLimitError
			if errors.As(err, &rl) {
				rateLimited.Inc()
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(rl.RetryAfter)))
				writeError(w, http.StatusTooManyRequests, err.Error())
				return
			}
			if errors.Is(err, registry.ErrEquivMismatch) {
				writeError(w, http.StatusConflict, err.Error())
				return
			}
			ingestErrors.Inc()
			// The prefix before the error is merged and kept; report
			// both the failure and how far ingest got. An over-limit
			// body surfaces as 413 with exactly the malformed-doc
			// bytes-kept semantics: the documents that fit are merged —
			// the limit counts decoded bytes, so compressed bodies get
			// identical treatment.
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, status, jsonvalue.ObjectFromPairs(
				"error", err.Error(),
				"collection", res.Collection,
				"docs", res.Docs,
				"total_docs", res.TotalDocs,
				"version", int64(res.Version),
			))
			return
		}
		writeJSON(w, http.StatusOK, jsonvalue.ObjectFromPairs(
			"collection", res.Collection,
			"docs", res.Docs,
			"total_docs", res.TotalDocs,
			"version", int64(res.Version),
		))
	})
	mux.HandleFunc("DELETE /v1/collections/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if !reg.Delete(name) {
			writeError(w, http.StatusNotFound, "unknown collection "+name)
			return
		}
		writeJSON(w, http.StatusOK, jsonvalue.ObjectFromPairs(
			"collection", name,
			"deleted", true,
		))
	})
	mux.HandleFunc("GET /v1/collections/{name}/schema", func(w http.ResponseWriter, r *http.Request) {
		snap, ok := reg.Get(r.PathValue("name"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown collection "+r.PathValue("name"))
			return
		}
		output := r.URL.Query().Get("output")
		if output == "" {
			output = "type"
		}
		contentType, ok := schemaContentTypes[output]
		if !ok {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown output %q (want type, counted, jsonschema, typescript or swift)", output))
			return
		}
		inf := &core.Inference{Type: snap.Type}
		if r.URL.Query().Get("meta") != "" {
			writeJSON(w, http.StatusOK, snapshotMeta(snap).WithField("schema", metaSchema(inf, output)))
			return
		}
		w.Header().Set("Content-Type", contentType)
		// The status line is sent: a failed write is a client gone,
		// and nothing is left to tell it.
		_ = inf.WriteSchema(w, output)
	})
	return instrument(cfg, metrics.NewHTTP(prom, "jsinferd"), mux)
}

// newDebugHandler is the -debug-addr surface: net/http/pprof wired onto
// an explicit mux (never http.DefaultServeMux, never the API mux).
func newDebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// traceKey carries the request's *trace.Trace through the context.
type traceKey struct{}

// traceFrom returns the request's trace, or nil outside the middleware
// (trace.Trace methods are nil-tolerant, so handlers never check).
func traceFrom(ctx context.Context) *trace.Trace {
	tr, _ := ctx.Value(traceKey{}).(*trace.Trace)
	return tr
}

// instrument is the daemon's one request middleware: every request runs
// under a span (an incoming W3C traceparent joins the caller's trace,
// the response carries the daemon's own, the finished trace lands in the
// /debug/traces ring), and its route, status and duration — each taken
// once — feed the trace, the request metrics and one structured log line
// (warning-level past the -slow-request threshold).
func instrument(cfg handlerConfig, meter *metrics.HTTP, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := trace.ParseTraceparent(r.Header.Get("Traceparent"))
		tr := cfg.tracer.StartTrace(r.Method+" "+r.URL.Path, parent)
		w.Header().Set("Traceparent", tr.Root().Context().Traceparent())
		sw := &statusRecorder{ResponseWriter: w}
		r2 := r.WithContext(context.WithValue(r.Context(), traceKey{}, tr))
		next.ServeHTTP(sw, r2)
		// The mux records the pattern it matched on the clone it was
		// handed. A matched pattern already carries its method
		// ("GET /healthz"); only the unmatched bucket needs it prefixed.
		route := r2.Pattern
		name := route
		if route == "" {
			route = "unmatched"
			name = r.Method + " unmatched"
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		root := tr.Root()
		root.SetName(name)
		root.SetAttr("method", r.Method)
		root.SetAttr("route", route)
		root.SetAttr("status", int64(status))
		tr.Finish()
		dur := tr.Duration()
		meter.Observe(route, status, dur)
		attrs := []any{
			"method", r.Method,
			"route", route,
			"status", status,
			"duration_ms", float64(dur.Nanoseconds()) / 1e6,
			"trace_id", tr.ID().String(),
		}
		cfg.logger.Info("request", attrs...)
		if cfg.slow > 0 && dur >= cfg.slow {
			cfg.logger.Warn("slow request",
				append(attrs, "threshold_ms", float64(cfg.slow.Nanoseconds())/1e6)...)
		}
	})
}

// statusRecorder records the status code a handler wrote, for
// instrument. Unwrap keeps http.ResponseController features (the ingest
// body's read deadlines) reachable.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

// WriteHeader also closes the connection after a 413: the recorder hides
// the server's own response from http.MaxBytesReader, which would
// otherwise mark the connection for closing, so a rejected body would be
// answered on a kept-alive connection the server then reads the rest of
// the body from.
func (w *statusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	if code == http.StatusRequestEntityTooLarge {
		w.Header().Set("Connection", "close")
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// collectionOpts parses the per-collection override parameters of a
// create or ingest request: ?equiv=K|L (the jsinfer engine names
// parametric-K/parametric-L are accepted too) pins the collection's
// merge equivalence, ?quota=docs=N,bytes=N its ingest rate limit (a
// bare ?quota= or all-zero terms lift the limit).
func collectionOpts(r *http.Request) (registry.CollectionOptions, error) {
	var co registry.CollectionOptions
	switch q := r.URL.Query().Get("equiv"); q {
	case "":
	case "K", "k", "parametric-K":
		e := typelang.EquivKind
		co.Equiv = &e
	case "L", "l", "parametric-L":
		e := typelang.EquivLabel
		co.Equiv = &e
	default:
		return co, fmt.Errorf("unknown equiv %q (want K or L)", q)
	}
	if r.URL.Query().Has("quota") {
		q, err := parseQuota(r.URL.Query().Get("quota"))
		if err != nil {
			return co, err
		}
		co.Quota = &q
	}
	return co, nil
}

// parseQuota parses the ?quota= override: comma-separated docs=N and
// bytes=N terms, each a non-negative per-second rate (0 = unlimited).
// The empty string is the all-zero quota — ?quota= lifts the limit.
func parseQuota(s string) (registry.Quota, error) {
	var q registry.Quota
	if s == "" {
		return q, nil
	}
	for _, term := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(term, "=")
		if !ok {
			return q, fmt.Errorf("bad quota term %q (want docs=N or bytes=N)", term)
		}
		rate, err := strconv.ParseFloat(v, 64)
		if err != nil || rate < 0 || math.IsInf(rate, 0) || math.IsNaN(rate) {
			return q, fmt.Errorf("bad quota rate %q (want a non-negative number)", term)
		}
		switch k {
		case "docs":
			q.DocsPerSec = rate
		case "bytes":
			q.BytesPerSec = rate
		default:
			return q, fmt.Errorf("unknown quota key %q (want docs or bytes)", k)
		}
	}
	return q, nil
}

// retryAfterSeconds renders a recovery delay as a Retry-After value:
// whole seconds, rounded up so the advertised wait is never too short,
// and at least 1 (Retry-After: 0 invites an immediate, doomed retry).
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// schemaContentTypes maps each output form the schema GET serves — the
// forms core.Inference.WriteSchema writes, byte for byte as jsinfer
// prints them — to the Content-Type it is served under.
var schemaContentTypes = map[string]string{
	"type":       "text/plain; charset=utf-8",
	"counted":    "text/plain; charset=utf-8",
	"jsonschema": "application/json",
	"typescript": "text/plain; charset=utf-8",
	"swift":      "text/plain; charset=utf-8",
}

// metaSchema is the schema a ?meta=1 envelope carries: the JSON Schema
// document itself, or the text the plain GET serves as one string, less
// the newline Render ends the type forms with.
func metaSchema(inf *core.Inference, output string) *jsonvalue.Value {
	if output == "jsonschema" {
		return inf.JSONSchema()
	}
	var b strings.Builder
	_ = inf.WriteSchema(&b, output) // a strings.Builder does not fail
	text := b.String()
	if output == "type" || output == "counted" {
		text = strings.TrimSuffix(text, "\n")
	}
	return jsonvalue.NewString(text)
}

// statsGauges registers the registry aggregates, the pipeline flight
// recorder and the heap gauges as function-backed families — the
// /metrics face of the numbers /v1/stats serves — and returns the
// handler that serves prom. Each exposition takes stats and readMem
// once and every family here reads those values: stats walks each
// collection's sealed schema, readMem (runtime.ReadMemStats) stops the
// world, and one scrape's figures belong to one instant (scrapes in
// flight together may share the later value).
func statsGauges(prom *metrics.Registry, stats func() registry.Stats, readMem func(*runtime.MemStats)) http.Handler {
	type scrape struct {
		registry.Stats
		mem runtime.MemStats
	}
	var cur atomic.Pointer[scrape]
	prom.Gauge("jsinferd_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 { return float64(cur.Load().mem.HeapAlloc) })
	prom.Gauge("jsinferd_heap_objects", "Allocated heap objects.",
		func() float64 { return float64(cur.Load().mem.HeapObjects) })
	prom.Gauge("jsinferd_registry_collections", "Live collections.",
		func() float64 { return float64(cur.Load().Collections) })
	prom.Gauge("jsinferd_registry_docs", "Documents summarised across all collections.",
		func() float64 { return float64(cur.Load().Docs) })
	prom.Gauge("jsinferd_registry_schema_nodes", "Sealed schema nodes across all collection schemas.",
		func() float64 { return float64(cur.Load().SchemaNodes) })
	for _, f := range infer.StatsFields {
		name, div := f.Name+"_total", 1.0
		if f.Clock() {
			// Divide (× 1e-9 rounds differently): /v1/stats must reconcile exactly.
			name, div = f.Stage+"_seconds_total", 1e9
		}
		prom.Gauge("jsinferd_pipeline_"+name, f.Help,
			func() float64 { return float64(*f.At(&cur.Load().Pipeline)) / div })
	}
	render := prom.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next := &scrape{Stats: stats()}
		readMem(&next.mem)
		cur.Store(next)
		render.ServeHTTP(w, r)
	})
}

// idleBody puts an ingest body under a per-read idle deadline: a client
// that stalls mid-body fails the pending read after idle instead of
// pinning the handler — the pipeline reads the body on the handler's
// own goroutine, holding no shard while it waits — and the collection's
// life lock (wedging DELETE) forever. The expired read is the pipeline's read
// error — 400, prefix kept — and the deadline stays expired, so net/http's
// own drain of the unread body fails at once and the connection closes.
type idleBody struct {
	io.ReadCloser
	conn *http.ResponseController
	idle time.Duration
}

func (b *idleBody) Read(p []byte) (int, error) {
	// ErrNotSupported (a writer over no connection: httptest recorders)
	// leaves nothing to time out.
	_ = b.conn.SetReadDeadline(time.Now().Add(b.idle))
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		// Body complete; the connection's next read is not this body's.
		_ = b.conn.SetReadDeadline(time.Time{})
	}
	return n, err
}

// pipelineMeta is the JSON envelope of a pipeline stats snapshot — the
// shape shared by /v1/stats ("pipeline") and each collection's entry in
// /v1/collections.
func pipelineMeta(p infer.StatsSnapshot) *jsonvalue.Value {
	fields := make([]jsonvalue.Field, len(infer.StatsFields))
	for i, f := range infer.StatsFields {
		fields[i] = jsonvalue.Field{Name: f.Name, Value: jsonvalue.FromGo(*f.At(&p))}
	}
	return jsonvalue.NewObject(fields...)
}

// traceMeta is the JSON envelope of one finished trace for
// /debug/traces: the root duration up front, then every span with its
// offsets and attributes.
func traceMeta(info trace.TraceInfo) *jsonvalue.Value {
	spans := make([]*jsonvalue.Value, len(info.Spans))
	var start time.Time
	if len(info.Spans) > 0 {
		start = info.Spans[0].Start
	}
	for i, sp := range info.Spans {
		attrs := make(map[string]any, len(sp.Attrs))
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		spans[i] = jsonvalue.ObjectFromPairs(
			"name", sp.Name,
			"span_id", sp.SpanID,
			"parent_id", sp.ParentID,
			"offset_us", sp.Start.Sub(start).Microseconds(),
			"duration_us", sp.Duration.Microseconds(),
			"attrs", attrs,
		)
	}
	meta := jsonvalue.ObjectFromPairs(
		"trace_id", info.TraceID,
		"remote", info.Remote,
		"spans", jsonvalue.NewArray(spans...),
	)
	if len(info.Spans) > 0 {
		meta = meta.WithField("name", jsonvalue.FromGo(info.Spans[0].Name)).
			WithField("start", jsonvalue.FromGo(start.UTC().Format(time.RFC3339Nano))).
			WithField("duration_us", jsonvalue.FromGo(info.Spans[0].Duration.Microseconds()))
	}
	return meta
}

// snapshotMeta is the JSON envelope of one collection snapshot, minus
// the schema itself.
func snapshotMeta(s registry.Snapshot) *jsonvalue.Value {
	nodes := s.Type.Size()
	return jsonvalue.ObjectFromPairs(
		"name", s.Name,
		"equiv", s.Equiv.String(),
		"docs", s.Docs,
		"bytes", s.Bytes,
		"version", int64(s.Version),
		"ingests", s.Ingests,
		"errors", s.Errors,
		"rate_limited", s.RateLimited,
		"quota", s.Quota.String(),
		"schema_nodes", nodes,
		"per_doc", perDoc(nodes, s.Docs),
		"pipeline", pipelineMeta(s.Pipeline),
	)
}

// perDoc is schema nodes per document with two decimals, the figure
// jsinfer -stats prints: under L, one that stays high as docs grow says
// the equivalence is not summarising the collection. 0 before any
// document.
func perDoc(nodes int, docs int64) *jsonvalue.Value {
	if docs == 0 {
		return jsonvalue.NewInt(0)
	}
	raw := fmt.Sprintf("%.2f", float64(nodes)/float64(docs))
	f, _ := strconv.ParseFloat(raw, 64)
	return jsonvalue.NewNumberRaw(f, raw)
}

func writeJSON(w http.ResponseWriter, status int, v *jsonvalue.Value) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(jsontext.MarshalIndent(v, "  "))
	w.Write([]byte("\n"))
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, jsonvalue.ObjectFromPairs("error", msg))
}
