package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/registry"
	"repro/internal/typelang"
)

func newTestServer(t *testing.T, opts registry.Options) (*httptest.Server, *registry.Registry) {
	t.Helper()
	return newTestServerMaxBody(t, opts, 0)
}

func newTestServerMaxBody(t *testing.T, opts registry.Options, maxBody int64) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg := registry.New(opts)
	srv := httptest.NewServer(newHandler(reg, handlerConfig{maxBody: maxBody}))
	t.Cleanup(func() {
		srv.Close()
		reg.Close()
	})
	return srv, reg
}

func post(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// TestServedSchemaMatchesBatchCLI is the acceptance criterion end to
// end: ingest a checked-in fixture over HTTP and the served schema must
// be byte-identical to what `jsinfer` prints for the same file
// (the CLI writes core.InferSchemaStreamFilesWith's Inference through
// WriteSchema; TestServedFormsAreJsinferStdout runs the built command).
func TestServedSchemaMatchesBatchCLI(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ndjson"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("fixtures: %v (%d found)", err, len(fixtures))
	}
	srv, _ := newTestServer(t, registry.Options{Equiv: typelang.EquivLabel})
	for _, name := range fixtures {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		col := filepath.Base(name)
		if code, body := post(t, srv.URL+"/v1/collections/"+col+"/ingest", data); code != http.StatusOK {
			t.Fatalf("%s: ingest status %d: %s", col, code, body)
		}
		inf, n, err := core.InferSchemaStreamFilesWith([]string{name}, core.ParametricL, core.StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, served := get(t, srv.URL+"/v1/collections/"+col+"/schema")
		if want := inf.Type.String() + "\n"; served != want {
			t.Errorf("%s: served schema diverges from jsinfer\n cli:    %s daemon: %s", col, want, served)
		}
		_, counted := get(t, srv.URL+"/v1/collections/"+col+"/schema?output=counted")
		if want := inf.Type.StringCounted() + "\n"; counted != want {
			t.Errorf("%s: counted rendering diverges\n cli:    %s daemon: %s", col, want, counted)
		}
		_, body := get(t, srv.URL+"/v1/collections/"+col+"/schema?meta=1")
		meta, err := jsontext.Parse([]byte(body))
		if err != nil {
			t.Fatalf("%s: meta envelope is not JSON: %v", col, err)
		}
		if docs, _ := meta.Get("docs"); docs.Int() != int64(n) {
			t.Errorf("%s: meta docs = %d, want %d", col, docs.Int(), n)
		}
	}
}

// TestConcurrentIngestOneCollection: many clients POSTing slices of one
// stream concurrently must converge to exactly the batch schema.
func TestConcurrentIngestOneCollection(t *testing.T) {
	docs := genjson.Collection(genjson.Twitter{Seed: 301}, 600)
	data := jsontext.MarshalLines(docs)
	lines := bytes.SplitAfter(data, []byte("\n"))
	const clients = 6
	var parts [clients][]byte
	for i, ln := range lines {
		parts[i%clients] = append(parts[i%clients], ln...)
	}
	srv, reg := newTestServer(t, registry.Options{Equiv: typelang.EquivLabel})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/collections/tweets/ingest", "", bytes.NewReader(parts[c]))
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", c, resp.StatusCode)
			}
		}(c)
	}
	wg.Wait()
	want, _, err := core.InferSchemaStreamWith(bytes.NewReader(data), core.ParametricL, core.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, served := get(t, srv.URL+"/v1/collections/tweets/schema")
	if served != want.Type.String()+"\n" {
		t.Errorf("concurrent ingest diverges from batch\n batch:  %s\n daemon: %s", want.Type, served)
	}
	snap, _ := reg.Get("tweets")
	if snap.Docs != int64(len(docs)) || snap.Version != clients {
		t.Errorf("docs=%d version=%d, want %d/%d", snap.Docs, snap.Version, len(docs), clients)
	}
}

// TestIngestErrorReturns400AndKeepsPrefix: malformed bodies report the
// absolute offset, keep the valid prefix, and show up in stats.
func TestIngestErrorReturns400AndKeepsPrefix(t *testing.T) {
	srv, _ := newTestServer(t, registry.Options{})
	code, body := post(t, srv.URL+"/v1/collections/c/ingest", []byte("{\"a\": 1}\n{]\n"))
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", code, body)
	}
	v, err := jsontext.Parse([]byte(body))
	if err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if msg, ok := v.Get("error"); !ok || !strings.Contains(msg.Str(), "offset") {
		t.Errorf("error message should carry the offset, got %s", body)
	}
	if d, _ := v.Get("docs"); d.Int() != 1 {
		t.Errorf("docs = %d, want the 1 doc before the error", d.Int())
	}
	_, served := get(t, srv.URL+"/v1/collections/c/schema")
	if served != "{a: Int}\n" {
		t.Errorf("prefix schema = %q, want {a: Int}", served)
	}
	_, stats := get(t, srv.URL+"/v1/stats")
	sv, err := jsontext.Parse([]byte(stats))
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := sv.Get("errors"); e.Int() != 1 {
		t.Errorf("stats errors = %d, want 1\n%s", e.Int(), stats)
	}
}

// TestEndpointsAndFormats covers healthz, list, the remaining output
// formats and the error paths.
func TestEndpointsAndFormats(t *testing.T) {
	srv, _ := newTestServer(t, registry.Options{Equiv: typelang.EquivLabel})
	if code, body := get(t, srv.URL+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz = %d %s", code, body)
	}
	if code, _ := get(t, srv.URL+"/v1/collections/none/schema"); code != http.StatusNotFound {
		t.Errorf("unknown collection schema status = %d, want 404", code)
	}
	if code, _ := post(t, srv.URL+"/v1/collections/orders/ingest",
		[]byte(`{"id": 1, "total": 9.5, "tags": ["a"]}`+"\n")); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	if code, _ := get(t, srv.URL+"/v1/collections/orders/schema?output=nope"); code != http.StatusBadRequest {
		t.Errorf("unknown output status = %d, want 400", code)
	}

	_, js := get(t, srv.URL+"/v1/collections/orders/schema?output=jsonschema")
	doc, err := jsontext.Parse([]byte(js))
	if err != nil {
		t.Fatalf("jsonschema output is not JSON: %v", err)
	}
	if ty, _ := doc.Get("type"); ty.Str() != "object" {
		t.Errorf("jsonschema type = %q, want object", ty.Str())
	}
	_, ts := get(t, srv.URL+"/v1/collections/orders/schema?output=typescript")
	if !strings.Contains(ts, "total") {
		t.Errorf("typescript output missing fields: %s", ts)
	}
	_, sw := get(t, srv.URL+"/v1/collections/orders/schema?output=swift")
	if !strings.Contains(sw, "total") {
		t.Errorf("swift output missing fields: %s", sw)
	}

	_, list := get(t, srv.URL+"/v1/collections")
	lv, err := jsontext.Parse([]byte(list))
	if err != nil {
		t.Fatal(err)
	}
	cols, _ := lv.Get("collections")
	if cols.Len() != 1 {
		t.Fatalf("list holds %d collections, want 1\n%s", cols.Len(), list)
	}
	first := cols.Elem(0)
	if name, _ := first.Get("name"); name.Str() != "orders" {
		t.Errorf("list name = %q", name.Str())
	}
	if d, _ := first.Get("docs"); d.Int() != 1 {
		t.Errorf("list docs = %d, want 1", d.Int())
	}

	// GET on the ingest route (wrong method) must not be routed.
	resp, err := http.Get(srv.URL + "/v1/collections/orders/ingest")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET ingest status = %d, want 405/404", resp.StatusCode)
	}
}

// TestManyCollectionsConcurrently drives distinct collections in
// parallel and checks isolation: each ends with its own schema.
func TestManyCollectionsConcurrently(t *testing.T) {
	srv, reg := newTestServer(t, registry.Options{})
	const cols = 5
	var wg sync.WaitGroup
	for c := 0; c < cols; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				body := fmt.Sprintf("{\"col%d\": %d}\n", c, i)
				if code, out := post(t, fmt.Sprintf("%s/v1/collections/c%d/ingest", srv.URL, c), []byte(body)); code != http.StatusOK {
					t.Errorf("c%d: status %d: %s", c, code, out)
				}
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < cols; c++ {
		snap, ok := reg.Get(fmt.Sprintf("c%d", c))
		if !ok || snap.Docs != 4 {
			t.Errorf("c%d: docs=%d ok=%v, want 4", c, snap.Docs, ok)
			continue
		}
		if want := fmt.Sprintf("{col%d: Int}", c); snap.Type.String() != want {
			t.Errorf("c%d: schema %s, want %s", c, snap.Type, want)
		}
	}
}

// del issues a DELETE and returns status and body.
func del(t *testing.T, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// TestDeleteCollectionEndpoint covers the admin delete: 404 on a
// missing name, removal of the collection and its accumulator on an
// existing one, and immediate reuse of the name from scratch.
func TestDeleteCollectionEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, registry.Options{Equiv: typelang.EquivLabel})
	if code, body := del(t, srv.URL+"/v1/collections/ghost"); code != http.StatusNotFound {
		t.Fatalf("delete of unknown collection = %d (%s), want 404", code, body)
	}
	if code, _ := post(t, srv.URL+"/v1/collections/c/ingest", []byte(`{"a": 1}`+"\n")); code != http.StatusOK {
		t.Fatal("ingest failed")
	}
	code, body := del(t, srv.URL+"/v1/collections/c")
	if code != http.StatusOK {
		t.Fatalf("delete = %d (%s), want 200", code, body)
	}
	v, err := jsontext.Parse([]byte(body))
	if err != nil {
		t.Fatalf("delete body is not JSON: %v", err)
	}
	if d, _ := v.Get("deleted"); !d.Bool() {
		t.Errorf("delete body = %s, want deleted: true", body)
	}
	if code, _ := get(t, srv.URL+"/v1/collections/c/schema"); code != http.StatusNotFound {
		t.Errorf("schema after delete = %d, want 404", code)
	}
	if code, _ := del(t, srv.URL+"/v1/collections/c"); code != http.StatusNotFound {
		t.Errorf("second delete = %d, want 404", code)
	}
	// The name is reusable: a fresh ingest starts an empty collection.
	if code, _ := post(t, srv.URL+"/v1/collections/c/ingest", []byte(`{"b": "x"}`+"\n")); code != http.StatusOK {
		t.Fatal("re-ingest failed")
	}
	if _, served := get(t, srv.URL+"/v1/collections/c/schema"); served != "{b: Str}\n" {
		t.Errorf("recreated schema = %q, want {b: Str}", served)
	}
}

// TestMaxBodyReturns413AndKeepsPrefix pins the -max-body backpressure:
// a body over the limit yields 413 with exactly the malformed-doc
// bytes-kept semantics — the documents that fit under the limit are
// merged and reported, and the collection serves that prefix.
func TestMaxBodyReturns413AndKeepsPrefix(t *testing.T) {
	srv, _ := newTestServerMaxBody(t, registry.Options{}, 40)
	doc := `{"a": 1}` + "\n" // 9 bytes; 40-byte limit fits 4 whole docs
	code, body := post(t, srv.URL+"/v1/collections/c/ingest", []byte(strings.Repeat(doc, 10)))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", code, body)
	}
	v, err := jsontext.Parse([]byte(body))
	if err != nil {
		t.Fatalf("413 body is not JSON: %v", err)
	}
	if d, _ := v.Get("docs"); d.Int() != 4 {
		t.Errorf("docs = %d, want the 4 docs under the limit\n%s", d.Int(), body)
	}
	if msg, ok := v.Get("error"); !ok || !strings.Contains(msg.Str(), "request body too large") {
		t.Errorf("error message = %s", body)
	}
	if _, served := get(t, srv.URL+"/v1/collections/c/schema?output=counted"); served != "{a:4: Int(4)}(4)\n" {
		t.Errorf("kept prefix schema = %q, want counts of 4", served)
	}

	// An under-limit body on the same server ingests normally.
	if code, out := post(t, srv.URL+"/v1/collections/ok/ingest", []byte(doc)); code != http.StatusOK {
		t.Errorf("under-limit ingest = %d (%s), want 200", code, out)
	}

	// A body cut exactly on a document boundary keeps every whole doc.
	srv2, _ := newTestServerMaxBody(t, registry.Options{}, 18)
	code, body = post(t, srv2.URL+"/v1/collections/c/ingest", []byte(strings.Repeat(doc, 3)))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("boundary cut status %d (%s), want 413", code, body)
	}
	v, err = jsontext.Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := v.Get("docs"); d.Int() != 2 {
		t.Errorf("boundary cut docs = %d, want 2\n%s", d.Int(), body)
	}
}

// TestStatsSchemaNodesServed pins the sealed-snapshot stats surfaced on
// /v1/stats, and a collection's schema nodes per document on
// /v1/collections: jsinfer -stats' per_doc, two decimals.
func TestStatsSchemaNodesServed(t *testing.T) {
	srv, reg := newTestServer(t, registry.Options{Equiv: typelang.EquivLabel})
	body := strings.Repeat(`{"a": 1, "b": "x"}`+"\n"+`{"c": null}`+"\n", 2)
	if code, _ := post(t, srv.URL+"/v1/collections/c/ingest", []byte(body)); code != http.StatusOK {
		t.Fatal("ingest failed")
	}
	snap, _ := reg.Get("c")
	_, stats := get(t, srv.URL+"/v1/stats")
	v, err := jsontext.Parse([]byte(stats))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := v.Get("schema_nodes"); int(n.Int()) != snap.Type.Size() {
		t.Errorf("schema_nodes = %d, want %d\n%s", n.Int(), snap.Type.Size(), stats)
	}
	_, list := get(t, srv.URL+"/v1/collections")
	lv, err := jsontext.Parse([]byte(list))
	if err != nil {
		t.Fatal(err)
	}
	cols, _ := lv.Get("collections")
	// {a: Int, b: Str} + {c: Null}: 9 nodes over 4 documents.
	if pd, _ := cols.Elem(0).Get("per_doc"); snap.Type.Size() != 9 || pd.NumRaw() != "2.25" {
		t.Errorf("per_doc = %s with %d schema nodes, want 2.25 with 9\n%s", pd.NumRaw(), snap.Type.Size(), list)
	}
}

// TestEquivParamCreateAndIngest pins the per-collection equivalence
// parameter: PUT creates under ?equiv=, ingest honours it, a
// disagreeing ?equiv= on either endpoint is 409, and an unknown value
// is 400.
func TestEquivParamCreateAndIngest(t *testing.T) {
	// Daemon default K; the collection pins L.
	srv, _ := newTestServer(t, registry.Options{Equiv: typelang.EquivKind})
	docs := genjson.Collection(genjson.SkewedOptional{Seed: 9, NumFields: 6}, 200)
	body := jsontext.MarshalLines(docs)
	wantL, _, err := core.InferSchemaStreamWith(bytes.NewReader(body), core.ParametricL, core.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantK, _, err := core.InferSchemaStreamWith(bytes.NewReader(body), core.ParametricK, core.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if wantL.Type.String() == wantK.Type.String() {
		t.Fatal("fixture does not distinguish K from L")
	}

	// PUT create with ?equiv=L -> 201, meta reports L.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/collections/pinned?equiv=L", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT create: status %d body %s", resp.StatusCode, out)
	}
	meta, err := jsontext.Parse(out)
	if err != nil {
		t.Fatalf("PUT create body is not JSON: %v", err)
	}
	if e, _ := meta.Get("equiv"); e.Str() != "L" {
		t.Fatalf("PUT create meta equiv = %q, want L (body %s)", e.Str(), out)
	}
	// Idempotent re-create -> 200.
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/v1/collections/pinned?equiv=L", nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT re-create: status %d", resp.StatusCode)
	}
	// Conflicting re-create -> 409.
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/v1/collections/pinned?equiv=K", nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("PUT conflicting create: status %d, want 409", resp.StatusCode)
	}

	// Ingest without override goes into the pinned collection fine, and
	// the served schema is the L schema (not the daemon-default K one).
	if code, body := post(t, srv.URL+"/v1/collections/pinned/ingest", body); code != http.StatusOK {
		t.Fatalf("ingest: status %d body %s", code, body)
	}
	if _, got := get(t, srv.URL+"/v1/collections/pinned/schema"); got != wantL.Type.String()+"\n" {
		t.Errorf("served schema:\n%s\nwant L schema:\n%s", got, wantL.Type)
	}

	// Ingest with a disagreeing override -> 409, nothing merged.
	if code, out := post(t, srv.URL+"/v1/collections/pinned/ingest?equiv=K", body); code != http.StatusConflict {
		t.Fatalf("conflicting ingest: status %d body %s", code, out)
	}
	// Ingest with ?equiv= creating a fresh collection honours it.
	if code, out := post(t, srv.URL+"/v1/collections/fresh/ingest?equiv=parametric-L", body); code != http.StatusOK {
		t.Fatalf("creating ingest: status %d body %s", code, out)
	}
	if _, got := get(t, srv.URL+"/v1/collections/fresh/schema"); got != wantL.Type.String()+"\n" {
		t.Errorf("fresh collection schema:\n%s\nwant L schema:\n%s", got, wantL.Type)
	}
	// Unknown equiv value -> 400.
	if code, _ := post(t, srv.URL+"/v1/collections/x/ingest?equiv=Z", body); code != http.StatusBadRequest {
		t.Fatalf("equiv=Z: status %d, want 400", code)
	}
}

// TestFlagCheckRejectsWhatQuotaRejects: a rate flag is held to the rule
// ?quota= is held to, and a negative size, buffer or threshold is
// refused rather than read as off or as the default — before main binds.
func TestFlagCheckRejectsWhatQuotaRejects(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // "" accepts
	}{
		{nil, ""},
		{[]string{"-rate-docs", "0", "-rate-bytes", "1.5e6", "-max-body", "0", "-trace-buffer", "0", "-slow-request", "0"}, ""},
		{[]string{"-rate-docs", "100", "-max-body", "1048576", "-trace-buffer", "8", "-slow-request", "1s"}, ""},
		{[]string{"-rate-docs", "-1"}, `-rate-docs: bad quota rate "docs=-1" (want a non-negative number)`},
		{[]string{"-rate-docs", "NaN"}, `-rate-docs: bad quota rate "docs=NaN" (want a non-negative number)`},
		{[]string{"-rate-bytes", "+Inf"}, `-rate-bytes: bad quota rate "bytes=+Inf" (want a non-negative number)`},
		{[]string{"-rate-bytes", "-Inf"}, `-rate-bytes: bad quota rate "bytes=-Inf" (want a non-negative number)`},
		{[]string{"-max-body", "-1"}, "-max-body must be 0 (no limit) or more"},
		{[]string{"-trace-buffer", "-5"}, "-trace-buffer must be 0 (the default, 128) or more"},
		{[]string{"-slow-request", "-1ms"}, "-slow-request must be 0 (off) or more"},
	} {
		fs := flag.NewFlagSet("jsinferd", flag.ContinueOnError)
		opt := registerFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		err := opt.check()
		if got := fmt.Sprint(err); c.want == "" && err != nil || c.want != "" && got != c.want {
			t.Errorf("%v: check() = %v, want %q", c.args, err, c.want)
		}
	}
}
