// daemon_matrix_test.go is the production-intake test matrix: every
// endpoint × status path × Content-Encoding, driven table-style through
// httptest, plus fault injection (truncated gzip frames, client
// disconnect mid-POST, decompression bombs) and the /metrics
// reconciliation acceptance check.

package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daemon/metrics"
	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/registry"
	"repro/internal/typelang"
)

// encodings is the Content-Encoding axis of the matrix. "" is the
// identity baseline every other column must match byte for byte.
var encodings = []string{"", "gzip"}

// encodeBody compresses data per enc ("" passes through).
func encodeBody(t *testing.T, enc string, data []byte) []byte {
	t.Helper()
	switch enc {
	case "", "identity":
		return data
	case "gzip":
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	default:
		t.Fatalf("unknown test encoding %q", enc)
		return nil
	}
}

// request issues method+url with an optional Content-Encoding header
// and returns status, body and headers.
func request(t *testing.T, method, url, enc string, body []byte) (int, string, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if enc != "" {
		req.Header.Set("Content-Encoding", enc)
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
	return resp.StatusCode, string(out), resp.Header
}

// TestDaemonMatrix drives every endpoint through every status path it
// can produce, across content encodings where a body is involved. Each
// row gets a fresh daemon so rows are independent and the matrix stays
// order-insensitive.
func TestDaemonMatrix(t *testing.T) {
	okDocs := []byte(`{"a": 1}` + "\n" + `{"a": 2, "b": "x"}` + "\n")
	badDocs := []byte(`{"a": 1}` + "\n{]\n")
	bigDocs := []byte(strings.Repeat(`{"a": 1}`+"\n", 10)) // 90 bytes

	// A zstd frame as a real encoder emits it — its single block is
	// entropy-coded (type 2). The daemon decodes no zstd at all, so the
	// request is refused on its header, before the frame is read.
	entropyZstd := []byte{
		0x28, 0xB5, 0x2F, 0xFD, // magic
		0x00, 0x00, // frame header: no FCS, window descriptor
		0x25, 0x00, 0x00, // block header: last=1, type=2 (compressed), size=4
		0xde, 0xad, 0xbe, 0xef,
	}

	type row struct {
		name       string
		opts       registry.Options
		maxBody    int64
		setup      [][3]string // {method, path+query, body-literal} pre-requests
		method     string
		path       string
		encoding   string
		body       []byte // encoded with encoding before sending
		rawBody    []byte // pre-encoded bytes sent as-is (overrides body)
		wantStatus int
		wantBody   string // substring the response body must contain
		wantHeader string // header that must be present and non-empty
	}

	rows := []row{
		{name: "healthz-200", method: "GET", path: "/healthz",
			wantStatus: 200, wantBody: `"status"`},
		{name: "metrics-200", method: "GET", path: "/metrics",
			wantStatus: 200, wantBody: "# TYPE jsinferd_http_requests_total counter"},
		{name: "stats-200", method: "GET", path: "/v1/stats",
			wantStatus: 200, wantBody: `"rate_limited"`},
		{name: "collections-200", method: "GET", path: "/v1/collections",
			wantStatus: 200, wantBody: `"collections"`},
		{name: "unmatched-404", method: "GET", path: "/v1/nope",
			wantStatus: 404},
		{name: "debug-traces-200", method: "GET", path: "/debug/traces",
			wantStatus: 200, wantBody: `"traces"`},
		// pprof is the -debug-addr listener's surface only (see
		// TestDebugHandlerServesPprof); the API mux must not know it.
		{name: "pprof-absent-from-api-404", method: "GET", path: "/debug/pprof/",
			wantStatus: 404},
		{name: "pprof-profile-absent-from-api-404", method: "GET", path: "/debug/pprof/profile",
			wantStatus: 404},

		{name: "put-create-201", method: "PUT", path: "/v1/collections/c",
			wantStatus: 201, wantBody: `"created": true`},
		{name: "put-exists-200",
			setup:  [][3]string{{"PUT", "/v1/collections/c", ""}},
			method: "PUT", path: "/v1/collections/c",
			wantStatus: 200, wantBody: `"created": false`},
		{name: "put-equiv-conflict-409",
			opts:   registry.Options{Equiv: typelang.EquivLabel},
			setup:  [][3]string{{"PUT", "/v1/collections/c?equiv=K", ""}},
			method: "PUT", path: "/v1/collections/c?equiv=L",
			wantStatus: 409},
		{name: "put-bad-equiv-400", method: "PUT", path: "/v1/collections/c?equiv=Z",
			wantStatus: 400, wantBody: "unknown equiv"},
		{name: "put-bad-quota-400", method: "PUT", path: "/v1/collections/c?quota=docs=fast",
			wantStatus: 400, wantBody: "bad quota rate"},
		{name: "put-bad-quota-key-400", method: "PUT", path: "/v1/collections/c?quota=rows=5",
			wantStatus: 400, wantBody: "unknown quota key"},

		{name: "delete-200",
			setup:  [][3]string{{"POST", "/v1/collections/c/ingest", `{"a": 1}` + "\n"}},
			method: "DELETE", path: "/v1/collections/c",
			wantStatus: 200, wantBody: `"deleted": true`},
		{name: "delete-404", method: "DELETE", path: "/v1/collections/ghost",
			wantStatus: 404},

		{name: "schema-200",
			setup:  [][3]string{{"POST", "/v1/collections/c/ingest", `{"a": 1}` + "\n"}},
			method: "GET", path: "/v1/collections/c/schema",
			wantStatus: 200, wantBody: "{a: Int}"},
		{name: "schema-404", method: "GET", path: "/v1/collections/ghost/schema",
			wantStatus: 404},
		{name: "schema-bad-output-400",
			setup:  [][3]string{{"POST", "/v1/collections/c/ingest", `{"a": 1}` + "\n"}},
			method: "GET", path: "/v1/collections/c/schema?output=nope",
			wantStatus: 400, wantBody: "unknown output"},

		{name: "ingest-equiv-conflict-409",
			opts:   registry.Options{Equiv: typelang.EquivLabel},
			setup:  [][3]string{{"PUT", "/v1/collections/c?equiv=K", ""}},
			method: "POST", path: "/v1/collections/c/ingest?equiv=L", body: okDocs,
			wantStatus: 409},
		{name: "ingest-429-retry-after",
			opts:   registry.Options{Quota: registry.Quota{DocsPerSec: 1}},
			setup:  [][3]string{{"POST", "/v1/collections/c/ingest", string(bigDocs)}},
			method: "POST", path: "/v1/collections/c/ingest", body: okDocs,
			wantStatus: 429, wantBody: "quota", wantHeader: "Retry-After"},
		{name: "ingest-quota-param-429",
			setup: [][3]string{
				{"PUT", "/v1/collections/c?quota=docs=1", ""},
				{"POST", "/v1/collections/c/ingest", string(bigDocs)},
			},
			method: "POST", path: "/v1/collections/c/ingest", body: okDocs,
			wantStatus: 429, wantHeader: "Retry-After"},
		{name: "ingest-quota-lift-200",
			setup: [][3]string{
				{"PUT", "/v1/collections/c?quota=docs=1", ""},
				{"POST", "/v1/collections/c/ingest", string(bigDocs)},
				{"PUT", "/v1/collections/c?quota=", ""},
			},
			method: "POST", path: "/v1/collections/c/ingest", body: okDocs,
			wantStatus: 200},
		{name: "ingest-415-unknown-encoding",
			method: "POST", path: "/v1/collections/c/ingest",
			encoding: "br", rawBody: okDocs,
			wantStatus: 415, wantBody: "unsupported Content-Encoding"},
		{name: "ingest-415-encoding-list",
			method: "POST", path: "/v1/collections/c/ingest",
			encoding: "gzip, zstd", rawBody: okDocs,
			wantStatus: 415, wantBody: "supported: identity, gzip"},
		{name: "ingest-415-zstd-entropy-coded",
			method: "POST", path: "/v1/collections/c/ingest",
			encoding: "zstd", rawBody: entropyZstd,
			wantStatus: 415, wantBody: "supported: identity, gzip"},
	}

	// The encoding axis: ingest 200 / 400-kept-prefix / 413 for
	// identity and gzip.
	for _, enc := range encodings {
		label := enc
		if label == "" {
			label = "identity"
		}
		rows = append(rows,
			row{name: "ingest-200-" + label,
				method: "POST", path: "/v1/collections/c/ingest",
				encoding: enc, body: okDocs,
				wantStatus: 200, wantBody: `"docs": 2`},
			row{name: "ingest-400-kept-prefix-" + label,
				method: "POST", path: "/v1/collections/c/ingest",
				encoding: enc, body: badDocs,
				wantStatus: 400, wantBody: `"docs": 1`},
			row{name: "ingest-413-decoded-limit-" + label,
				maxBody: 40, // fits 4 of the 10 nine-byte docs
				method:  "POST", path: "/v1/collections/c/ingest",
				encoding: enc, body: bigDocs,
				wantStatus: 413, wantBody: `"docs": 4`},
		)
	}

	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := newTestServerMaxBody(t, tc.opts, tc.maxBody)
			for _, s := range tc.setup {
				var body []byte
				if s[2] != "" {
					body = []byte(s[2])
				}
				if code, out, _ := request(t, s[0], srv.URL+s[1], "", body); code >= 400 {
					t.Fatalf("setup %s %s: status %d: %s", s[0], s[1], code, out)
				}
			}
			body := tc.rawBody
			if body == nil && tc.body != nil {
				body = encodeBody(t, tc.encoding, tc.body)
			}
			code, out, hdr := request(t, tc.method, srv.URL+tc.path, tc.encoding, body)
			if code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body: %s)", code, tc.wantStatus, out)
			}
			if tc.wantBody != "" && !strings.Contains(out, tc.wantBody) {
				t.Errorf("body missing %q:\n%s", tc.wantBody, out)
			}
			if tc.wantHeader != "" {
				v := hdr.Get(tc.wantHeader)
				if v == "" {
					t.Fatalf("missing %s header", tc.wantHeader)
				}
				if tc.wantHeader == "Retry-After" {
					if secs, err := strconv.Atoi(v); err != nil || secs < 1 {
						t.Errorf("Retry-After = %q, want an integer >= 1", v)
					}
				}
			}
		})
	}
}

// TestEncodedIngestByteIdentical is the first acceptance criterion:
// every checked-in fixture ingested under gzip yields a counted schema and doc count byte-identical to the identity encoding.
func TestEncodedIngestByteIdentical(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ndjson"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("fixtures: %v (%d found)", err, len(fixtures))
	}
	srv, reg := newTestServer(t, registry.Options{Equiv: typelang.EquivLabel})
	for _, name := range fixtures {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Base(name)
		type outcome struct {
			schema string
			docs   int64
		}
		var baseline outcome
		for i, enc := range encodings {
			col := fmt.Sprintf("%s-%d", base, i)
			code, out, _ := request(t, "POST", srv.URL+"/v1/collections/"+col+"/ingest",
				enc, encodeBody(t, enc, data))
			if code != http.StatusOK {
				t.Fatalf("%s (%s): ingest status %d: %s", base, enc, code, out)
			}
			_, counted, _ := request(t, "GET", srv.URL+"/v1/collections/"+col+"/schema?output=counted", "", nil)
			snap, _ := reg.Get(col)
			got := outcome{schema: counted, docs: snap.Docs}
			if i == 0 {
				baseline = got
				continue
			}
			if got != baseline {
				t.Errorf("%s: %s ingest diverges from identity\n identity: docs=%d %s %s: docs=%d %s",
					base, enc, baseline.docs, baseline.schema, enc, got.docs, got.schema)
			}
			// Decoded bytes must match the identity payload size exactly.
			if snap.Bytes != int64(len(data)) {
				t.Errorf("%s (%s): decoded bytes = %d, want %d", base, enc, snap.Bytes, len(data))
			}
		}
	}
}

// TestTruncatedGzipKeepsPrefix injects a gzip frame cut mid-stream: the
// documents whose decoded bytes arrived before the cut are kept, the
// request reports 400 with the kept count, the error is counted, and
// the collection stays usable.
func TestTruncatedGzipKeepsPrefix(t *testing.T) {
	srv, reg := newTestServer(t, registry.Options{})
	payload := []byte(strings.Repeat(`{"a": 1}`+"\n", 2000))
	frame := encodeBody(t, "gzip", payload)
	code, out, _ := request(t, "POST", srv.URL+"/v1/collections/c/ingest", "gzip", frame[:len(frame)/2])
	if code != http.StatusBadRequest {
		t.Fatalf("truncated gzip status = %d, want 400 (%s)", code, out)
	}
	v, err := jsontext.Parse([]byte(out))
	if err != nil {
		t.Fatalf("400 body is not JSON: %v", err)
	}
	snap, _ := reg.Get("c")
	if d, _ := v.Get("docs"); d.Int() != snap.Docs {
		t.Errorf("reported kept docs %d != collection docs %d", d.Int(), snap.Docs)
	}
	if snap.Errors != 1 {
		t.Errorf("collection errors = %d, want 1", snap.Errors)
	}
	// A wholly corrupt frame (bad magic) decodes nothing but still 400s.
	code, _, _ = request(t, "POST", srv.URL+"/v1/collections/c/ingest", "gzip", []byte("not gzip at all"))
	if code != http.StatusBadRequest {
		t.Errorf("corrupt gzip status = %d, want 400", code)
	}
	// The collection remains usable: a good ingest merges on top of the
	// kept prefix.
	code, _, _ = request(t, "POST", srv.URL+"/v1/collections/c/ingest", "gzip",
		encodeBody(t, "gzip", []byte(`{"b": true}`+"\n")))
	if code != http.StatusOK {
		t.Fatalf("ingest after faults: status %d", code)
	}
	if _, served, _ := request(t, "GET", srv.URL+"/v1/collections/c/schema", "", nil); !strings.Contains(served, "b?") {
		t.Errorf("schema after recovery = %q, want optional b merged in", served)
	}
}

// TestClientDisconnectMidPOST drops the TCP connection halfway through
// an ingest body: the documents that made it over the wire are merged
// (committed-prefix semantics), the failure is counted as an ingest
// error, and the collection serves normally afterwards.
func TestClientDisconnectMidPOST(t *testing.T) {
	srv, reg := newTestServer(t, registry.Options{})
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sent := `{"a": 1}` + "\n" + `{"a": 2}` + "\n"
	// Promise far more bytes than we deliver, then hang up.
	fmt.Fprintf(conn, "POST /v1/collections/drop/ingest HTTP/1.1\r\nHost: t\r\nContent-Length: 1000000\r\n\r\n%s", sent)
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	// The server sees unexpected EOF and answers on the half-open
	// connection; read its response to synchronise instead of polling.
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("disconnect status = %d, want 400", resp.StatusCode)
		}
	}
	conn.Close()
	// Either way the registry must have committed the delivered prefix.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snap, ok := reg.Get("drop"); ok && snap.Ingests >= 1 {
			if snap.Docs != 2 {
				t.Errorf("committed docs = %d, want the 2 delivered", snap.Docs)
			}
			if snap.Errors != 1 {
				t.Errorf("errors = %d, want 1", snap.Errors)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ingest never finished after disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Collection is alive and consistent.
	code, out, _ := request(t, "POST", srv.URL+"/v1/collections/drop/ingest", "", []byte(`{"a": 3}`+"\n"))
	if code != http.StatusOK {
		t.Fatalf("ingest after disconnect: %d %s", code, out)
	}
	if _, served, _ := request(t, "GET", srv.URL+"/v1/collections/drop/schema?output=counted", "", nil); !strings.Contains(served, "(3)") {
		t.Errorf("schema after disconnect = %q, want 3 docs counted", served)
	}
}

// TestDecompressionBomb413 sends a tiny compressed body that inflates
// far past -max-body: the decoded-byte limit cuts it off with the same
// 413 + kept-prefix semantics as an oversized identity body.
func TestDecompressionBomb413(t *testing.T) {
	docs := []byte(strings.Repeat(`{"a": 1}`+"\n", 10))
	const inflate = 900_000
	payload := append(append([]byte{}, docs...), bytes.Repeat([]byte(" "), inflate)...)
	for _, enc := range []string{"gzip"} {
		t.Run(enc, func(t *testing.T) {
			srv, reg := newTestServerMaxBody(t, registry.Options{}, 40)
			bomb := encodeBody(t, enc, payload)
			if len(bomb) >= len(payload)/100 {
				t.Fatalf("bomb did not compress (%d vs %d decoded)", len(bomb), len(payload))
			}
			code, out, _ := request(t, "POST", srv.URL+"/v1/collections/c/ingest", enc, bomb)
			if code != http.StatusRequestEntityTooLarge {
				t.Fatalf("bomb status = %d, want 413 (%s)", code, out)
			}
			v, err := jsontext.Parse([]byte(out))
			if err != nil {
				t.Fatal(err)
			}
			if d, _ := v.Get("docs"); d.Int() != 4 {
				t.Errorf("kept docs = %d, want the 4 under the 40-byte decoded limit", d.Int())
			}
			snap, _ := reg.Get("c")
			if snap.Bytes > 41 {
				t.Errorf("decoded bytes read = %d, want <= limit+1", snap.Bytes)
			}
		})
	}
}

// TestOversizedBodyClosesConnection pins that a 413 ends its
// connection, for identity and gzip bodies: the response carries
// Connection: close, and the client's next read on that connection sees
// EOF, where a kept-alive connection would leave it waiting for the
// server to read the rest of the rejected body.
func TestOversizedBodyClosesConnection(t *testing.T) {
	docs := []byte(strings.Repeat(`{"a": 1}`+"\n", 10))
	for _, enc := range encodings {
		t.Run("enc="+enc, func(t *testing.T) {
			srv, _ := newTestServerMaxBody(t, registry.Options{}, 40)
			conn, err := net.Dial("tcp", srv.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			body := encodeBody(t, enc, docs)
			head := fmt.Sprintf("POST /v1/collections/c/ingest HTTP/1.1\r\nHost: jsinferd\r\nContent-Length: %d\r\n", len(body))
			if enc != "" {
				head += "Content-Encoding: " + enc + "\r\n"
			}
			if _, err := conn.Write(append([]byte(head+"\r\n"), body...)); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			br := bufio.NewReader(conn)
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatal(err)
			}
			out, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("status = %d (%s), want 413", resp.StatusCode, out)
			}
			if !resp.Close { // ReadResponse consumes the Connection: close header
				t.Error("the 413 does not carry Connection: close")
			}
			if n, err := br.Read(make([]byte, 1)); err != io.EOF {
				t.Errorf("next read on the connection = %d bytes, %v; want EOF", n, err)
			}
		})
	}
}

// TestStormWithMetricsAndDeletes hammers the daemon with concurrent
// encoded ingests while other goroutines scrape /metrics, delete and
// recreate a churn collection, and bounce off a rate-limited one. The
// steady collection must still converge deterministically, and every
// scrape must succeed mid-storm.
func TestStormWithMetricsAndDeletes(t *testing.T) {
	srv, reg := newTestServer(t, registry.Options{})
	const writers, rounds = 4, 6
	doc := []byte(`{"k": 1, "v": "x"}` + "\n")

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				enc := encodings[(w+i)%len(encodings)]
				code, out, _ := request(t, "POST", srv.URL+"/v1/collections/steady/ingest", enc, encodeBody(t, enc, doc))
				if code != http.StatusOK {
					t.Errorf("steady ingest (%s): %d %s", enc, code, out)
				}
				// Churn: ingest then maybe delete; both outcomes are legal
				// races, only 200/404 may come back.
				request(t, "POST", srv.URL+"/v1/collections/churn/ingest", "", doc)
				if code, _, _ := request(t, "DELETE", srv.URL+"/v1/collections/churn", "", nil); code != 200 && code != 404 {
					t.Errorf("churn delete: status %d", code)
				}
				// Rate-limited collection: 200 or 429 only.
				if code, _, _ := request(t, "POST", srv.URL+"/v1/collections/tight/ingest?quota=docs=1", "", doc); code != 200 && code != 429 {
					t.Errorf("tight ingest: status %d", code)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if code, body, _ := request(t, "GET", srv.URL+"/metrics", "", nil); code != 200 || !strings.Contains(body, "jsinferd_ingest_docs_total") {
					t.Errorf("mid-storm scrape: status %d", code)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	scrapes.Wait()

	snap, ok := reg.Get("steady")
	if !ok || snap.Docs != writers*rounds || snap.Errors != 0 {
		t.Errorf("steady: docs=%d errors=%d, want %d/0", snap.Docs, snap.Errors, writers*rounds)
	}
	if snap.Type.String() != "{k: Int, v: Str}" {
		t.Errorf("steady schema = %s", snap.Type)
	}
}

// metricValue extracts one label-less sample from an exposition dump.
func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition:\n%s", name, exposition)
	return 0
}

// TestMetricsReconcileWithStats is the third acceptance criterion:
// after a quiesced mix of successful, failing and rate-limited ingests,
// GET /metrics serves well-formed exposition text whose ingest counters
// agree exactly with /v1/stats.
func TestMetricsReconcileWithStats(t *testing.T) {
	srv, _ := newTestServer(t, registry.Options{Equiv: typelang.EquivLabel})

	// Successful ingests across encodings.
	for i, enc := range encodings {
		body := encodeBody(t, enc, []byte(fmt.Sprintf(`{"n": %d, "s": "v"}`+"\n", i)))
		if code, out, _ := request(t, "POST", srv.URL+"/v1/collections/mix/ingest", enc, body); code != 200 {
			t.Fatalf("ingest (%s): %d %s", enc, code, out)
		}
	}
	// One pipeline error (counts its kept prefix).
	if code, _, _ := request(t, "POST", srv.URL+"/v1/collections/mix/ingest", "", []byte(`{"n": 9}`+"\n{]\n")); code != 400 {
		t.Fatal("want 400")
	}
	// One rate-limited rejection on a quota-pinned collection.
	if code, _, _ := request(t, "PUT", srv.URL+"/v1/collections/tight?quota=docs=1", "", nil); code != 201 {
		t.Fatal("PUT quota failed")
	}
	request(t, "POST", srv.URL+"/v1/collections/tight/ingest", "", []byte(strings.Repeat(`{"x": 1}`+"\n", 5)))
	if code, _, _ := request(t, "POST", srv.URL+"/v1/collections/tight/ingest", "", []byte(`{"x": 1}`+"\n")); code != 429 {
		t.Fatal("want 429")
	}
	// Two count-free forms, one read twice: two renderings.
	for _, form := range []string{"type", "swift", "type"} {
		if code, _, _ := request(t, "GET", srv.URL+"/v1/collections/mix/schema?output="+form, "", nil); code != 200 {
			t.Fatalf("GET %s schema failed", form)
		}
	}

	code, stats, _ := request(t, "GET", srv.URL+"/v1/stats", "", nil)
	if code != 200 {
		t.Fatal("stats failed")
	}
	sv, err := jsontext.Parse([]byte(stats))
	if err != nil {
		t.Fatal(err)
	}
	code, exp, hdr := request(t, "GET", srv.URL+"/metrics", "", nil)
	if code != 200 {
		t.Fatal("metrics failed")
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics content type = %q", ct)
	}
	// Well-formed exposition: every line is a comment, blank, or
	// name{labels} value.
	for _, line := range strings.Split(strings.TrimRight(exp, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		// Label values may hold spaces (route patterns), so the value is
		// everything after the last space.
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(line[cut+1:], 64); err != nil {
			t.Fatalf("non-numeric sample value in %q", line)
		}
	}

	for metric, stat := range map[string]string{
		"jsinferd_ingest_docs_total":    "docs",
		"jsinferd_ingest_bytes_total":   "bytes",
		"jsinferd_ingest_errors_total":  "errors",
		"jsinferd_rate_limited_total":   "rate_limited",
		"jsinferd_registry_collections": "collections",
		"jsinferd_registry_docs":        "docs",
		"jsinferd_schema_renders_total": "renders",
	} {
		want, ok := sv.Get(stat)
		if !ok {
			t.Fatalf("/v1/stats lacks %q", stat)
		}
		if got := metricValue(t, exp, metric); got != float64(want.Int()) {
			t.Errorf("%s = %v, /v1/stats %s = %d — counters must reconcile", metric, got, stat, want.Int())
		}
	}
	if r, _ := sv.Get("renders"); r.Int() != 2 {
		t.Errorf("/v1/stats renders = %d after reads of two count-free forms, want 2", r.Int())
	}
	// The pipeline flight recorder reconciles field for field: the
	// jsinferd_pipeline_* gauges read the same registry snapshots the
	// /v1/stats "pipeline" object serializes, so after quiesce they are
	// equal — counters exactly, stage clocks under the same nanos→seconds
	// conversion.
	pv, ok := sv.Get("pipeline")
	if !ok {
		t.Fatal(`/v1/stats lacks "pipeline"`)
	}
	for metric, stat := range map[string]string{
		"jsinferd_pipeline_chunks_split_total":     "chunks_split",
		"jsinferd_pipeline_pattern_records_total":  "pattern_records",
		"jsinferd_pipeline_fallback_records_total": "fallback_records",
		"jsinferd_pipeline_scan_delegations_total": "scan_delegations",
		"jsinferd_pipeline_root_fuses_total":       "root_fuses",
		"jsinferd_pipeline_seals_total":            "seals",
	} {
		want, ok := pv.Get(stat)
		if !ok {
			t.Fatalf("/v1/stats pipeline lacks %q", stat)
		}
		if got := metricValue(t, exp, metric); got != float64(want.Int()) {
			t.Errorf("%s = %v, /v1/stats pipeline.%s = %d — counters must reconcile",
				metric, got, stat, want.Int())
		}
	}
	for metric, stat := range map[string]string{
		"jsinferd_pipeline_read_seconds_total":   "read_nanos",
		"jsinferd_pipeline_split_seconds_total":  "split_nanos",
		"jsinferd_pipeline_map_seconds_total":    "map_nanos",
		"jsinferd_pipeline_reduce_seconds_total": "reduce_nanos",
		"jsinferd_pipeline_fuse_seconds_total":   "fuse_nanos",
	} {
		want, ok := pv.Get(stat)
		if !ok {
			t.Fatalf("/v1/stats pipeline lacks %q", stat)
		}
		if got := metricValue(t, exp, metric); got != float64(want.Int())/1e9 {
			t.Errorf("%s = %v, /v1/stats pipeline.%s = %dns — clocks must reconcile",
				metric, got, stat, want.Int())
		}
	}
	// The mixed workload left its signature in the recorder: windows
	// were cut, every one absorbed in line: no committer, no reduce.
	if split, _ := pv.Get("chunks_split"); split.Int() == 0 {
		t.Error("pipeline.chunks_split = 0 after successful ingests")
	} else if reduce, _ := pv.Get("reduce_nanos"); reduce.Int() != 0 {
		t.Errorf("pipeline.reduce_nanos = %d over %d windows; every ingest is absorbed in line", reduce.Int(), split.Int())
	}
	// The middleware metered the ingest route with its status codes.
	for _, series := range []string{
		`jsinferd_http_requests_total{route="POST /v1/collections/{name}/ingest",code="200"}`,
		`jsinferd_http_requests_total{route="POST /v1/collections/{name}/ingest",code="400"}`,
		`jsinferd_http_requests_total{route="POST /v1/collections/{name}/ingest",code="429"}`,
		`jsinferd_http_request_seconds_count{route="GET /v1/stats"}`,
	} {
		if !strings.Contains(exp, series) {
			t.Errorf("exposition lacks series %s", series)
		}
	}
}

// TestMetricsScrapeTakesStatsOnce: registry.Stats lists every
// collection and walks every sealed schema, and runtime.ReadMemStats
// stops the world, so one exposition takes each once — every registry,
// pipeline and heap family renders from those values — not once per
// family.
func TestMetricsScrapeTakesStatsOnce(t *testing.T) {
	calls, memReads := 0, 0
	h := statsGauges(metrics.NewRegistry(), func() registry.Stats {
		calls++
		return registry.Stats{Collections: calls, Docs: 10 * int64(calls),
			Pipeline: core.StatsSnapshot{Seals: 1000 * int64(calls)}}
	}, func(ms *runtime.MemStats) {
		memReads++
		ms.HeapAlloc, ms.HeapObjects = 4096*uint64(memReads), 7*uint64(memReads)
	})
	for scrape := 1; scrape <= 2; scrape++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if calls != scrape || memReads != scrape {
			t.Fatalf("scrape %d: stats taken %d times and MemStats read %d times in all, want once each per scrape",
				scrape, calls, memReads)
		}
		exp := rec.Body.String()
		for metric, want := range map[string]float64{
			"jsinferd_registry_collections": float64(scrape),
			"jsinferd_registry_docs":        10 * float64(scrape),
			"jsinferd_pipeline_seals_total": 1000 * float64(scrape),
			"jsinferd_heap_alloc_bytes":     4096 * float64(scrape),
			"jsinferd_heap_objects":         7 * float64(scrape),
		} {
			if got := metricValue(t, exp, metric); got != want {
				t.Errorf("scrape %d: %s = %v, want %v (this scrape's stats)", scrape, metric, got, want)
			}
		}
	}
}

// TestShipperLoopAbsorbsInLine drives the repository benchmark's
// serve_mixed script through the handler — one closed-loop shipper, 100
// documents a POST, every 4th gzip-encoded, a schema GET after every
// 8th — and reads the cost model off /v1/stats: every body is one
// chunk absorbed in line (no worker, no chunk seal, no committer
// clock), the lone shipper fills one shard, so each read that finds
// new structure renders, sealing once and fusing nothing, and what is
// served is what `jsinfer` makes of the same documents. A second pass
// over the same bodies moves counts only: its reads are served from
// the kept rendering and seal nothing, until /v1/stats seals once.
func TestShipperLoopAbsorbsInLine(t *testing.T) {
	const posts, perPost = 24, 100
	data := jsontext.MarshalLines(genjson.Collection(genjson.Twitter{Seed: 19}, posts*perPost))
	lines := bytes.SplitAfter(data, []byte("\n"))
	srv, _ := newTestServer(t, registry.Options{Equiv: typelang.EquivLabel})
	stats := func() (*jsonvalue.Value, *jsonvalue.Value) {
		_, stats := get(t, srv.URL+"/v1/stats")
		sv, err := jsontext.ParseString(stats)
		if err != nil {
			t.Fatal(err)
		}
		pv, _ := sv.Get("pipeline")
		return sv, pv
	}
	var renders int64
	for pass := 1; pass <= 2; pass++ {
		for i := 0; i < posts; i++ {
			enc := ""
			if i%4 == 3 {
				enc = "gzip"
			}
			body := bytes.Join(lines[i*perPost:(i+1)*perPost], nil)
			if code, out, _ := request(t, "POST", srv.URL+"/v1/collections/c/ingest", enc, encodeBody(t, enc, body)); code != http.StatusOK {
				t.Fatalf("POST %d: %d %s", i, code, out)
			}
			if i%8 == 7 {
				upTo := lines[:(i+1)*perPost]
				if pass == 2 {
					upTo = lines
				}
				want, _, err := core.InferSchemaStreamWith(bytes.NewReader(bytes.Join(upTo, nil)), core.ParametricL, core.StreamOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if _, served := get(t, srv.URL+"/v1/collections/c/schema"); served != want.Type.String()+"\n" {
					t.Fatalf("pass %d: after POST %d the served schema diverges from jsinfer\n cli:    %s\n daemon: %s", pass, i, want.Type, served)
				}
			}
		}
		if pass == 1 {
			// Quiet since the last read, which rendered: a cache hit.
			sv, pv := stats()
			r, _ := sv.Get("renders")
			renders = r.Int()
			if renders == 0 || renders > posts/8 {
				t.Errorf("/v1/stats renders = %d over %d reads, want 1 to %d", renders, posts/8, posts/8)
			}
			for stat, want := range map[string]int64{
				"chunks_split": posts,
				"reduce_nanos": 0, "seals": renders, "root_fuses": renders,
			} {
				if v, _ := pv.Get(stat); v.Int() != want {
					t.Errorf("pass 1: /v1/stats pipeline.%s = %d, want %d", stat, v.Int(), want)
				}
			}
		}
	}
	sv, pv := stats()
	if r, _ := sv.Get("renders"); r.Int() != renders {
		t.Errorf("/v1/stats renders = %d after a count-only pass, want %d", r.Int(), renders)
	}
	for stat, want := range map[string]int64{
		"chunks_split": 2 * posts,
		"reduce_nanos": 0, "seals": renders + 1, "root_fuses": renders + 1,
	} {
		if v, _ := pv.Get(stat); v.Int() != want {
			t.Errorf("pass 2: /v1/stats pipeline.%s = %d, want %d", stat, v.Int(), want)
		}
	}
}

// TestStalledHeaderClientIsDisconnected: a client that sends half a
// request line and stalls is dropped once the header deadline passes —
// it holds a connection and a goroutine until then, never an ingest —
// and the daemon keeps serving. Both listeners are built by newServer,
// so both carry the deadlines; the test shortens the header one.
func TestStalledHeaderClientIsDisconnected(t *testing.T) {
	reg := registry.New(registry.Options{})
	srv := newServer(newHandler(reg, handlerConfig{}))
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("newServer: ReadHeaderTimeout=%v IdleTimeout=%v, want both set", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	srv.ReadHeaderTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-served
		reg.Close()
	})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/collections/c/ing")); err != nil {
		t.Fatal(err)
	}
	// The server answers the expired header read by closing the
	// connection (possibly after a 408 line): the read ends well before
	// the generous deadline below.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("stalled connection was not closed by the server: %v", err)
	}

	code, out, _ := request(t, "POST", "http://"+ln.Addr().String()+"/v1/collections/c/ingest", "", []byte(`{"a": 1}`+"\n"))
	if code != http.StatusOK || !strings.Contains(out, `"docs": 1`) {
		t.Errorf("ingest after the stalled client: %d %s", code, out)
	}
}

// TestStalledBodyClientIsDisconnected: a client that announces a body,
// sends part of it and stalls is failed by the body idle deadline
// instead of holding the handler — and with it the collection's life
// lock — forever: the request ends with the usual kept-prefix 400, the
// document before the stall is merged, and a DELETE of the collection,
// which must wait out in-flight ingests, returns.
func TestStalledBodyClientIsDisconnected(t *testing.T) {
	reg := registry.New(registry.Options{})
	srv := httptest.NewServer(newHandler(reg, handlerConfig{bodyIdle: 50 * time.Millisecond}))
	t.Cleanup(func() {
		srv.Close()
		reg.Close()
	})

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/collections/c/ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n" +
		`{"a": 1}` + "\n" + `{"b":`)); err != nil {
		t.Fatal(err)
	}
	// The reply arrives and the server closes the connection — the rest
	// of the announced body is never coming — well before the generous
	// deadline below.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("stalled request was not ended by the server: %v (read %q)", err, reply)
	}
	if out := string(reply); !strings.HasPrefix(out, "HTTP/1.1 400 ") || !strings.Contains(out, `"docs": 1`) {
		t.Errorf("stalled ingest reply, want a 400 keeping 1 doc:\n%s", out)
	}
	if snap, ok := reg.Get("c"); !ok || snap.Docs != 1 || snap.Errors != 1 {
		t.Errorf("collection after the stalled ingest: %+v, want the 1 document before the stall and 1 error", snap)
	}
	if code, out, _ := request(t, "DELETE", srv.URL+"/v1/collections/c", "", nil); code != http.StatusOK {
		t.Errorf("DELETE after the stalled ingest: %d %s", code, out)
	}
}

// TestShuffledBodiesMatchCLI is the CLI-vs-daemon leg of the metamorphic
// invariant: every fixture's documents, shuffled with a fixed seed, cut
// at document boundaries into 1, 3 or 7 bodies with every other one
// gzipped, and POSTed to one collection, serve the counted schema and
// document count the files facade gives over the unshuffled file, under
// K and under L.
func TestShuffledBodiesMatchCLI(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ndjson"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("fixtures: %v (%d found)", err, len(fixtures))
	}
	srv, reg := newTestServer(t, registry.Options{})
	for _, name := range fixtures {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		if len(lines[len(lines)-1]) == 0 {
			lines = lines[:len(lines)-1]
		}
		for _, eng := range []struct {
			param  string
			engine core.Engine
		}{{"K", core.ParametricK}, {"L", core.ParametricL}} {
			want, n, err := core.InferSchemaStreamFilesWith([]string{name}, eng.engine, core.StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, bodies := range []int{1, 3, 7} {
				shuffled := slices.Clone(lines)
				rand.New(rand.NewSource(int64(bodies))).Shuffle(len(shuffled), func(i, j int) {
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				})
				col := fmt.Sprintf("%s-%s-%d", filepath.Base(name), eng.param, bodies)
				for i := range bodies {
					enc := encodings[i%2]
					body := bytes.Join(shuffled[i*len(shuffled)/bodies:(i+1)*len(shuffled)/bodies], nil)
					code, out, _ := request(t, "POST", srv.URL+"/v1/collections/"+col+"/ingest?equiv="+eng.param, enc, encodeBody(t, enc, body))
					if code != http.StatusOK {
						t.Fatalf("%s body %d (%q): status %d: %s", col, i, enc, code, out)
					}
				}
				_, counted, _ := request(t, "GET", srv.URL+"/v1/collections/"+col+"/schema?output=counted", "", nil)
				snap, _ := reg.Get(col)
				if counted != want.Type.StringCounted()+"\n" || snap.Docs != int64(n) {
					t.Errorf("%s: daemon served docs=%d %s\nthe files facade gives docs=%d %s", col, snap.Docs, counted, n, want.Type.StringCounted())
				}
			}
		}
	}
}
