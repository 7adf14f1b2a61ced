package intake

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// req builds a request with the given body and Content-Encoding.
func req(encoding string, body []byte) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
	if encoding != "" {
		r.Header.Set("Content-Encoding", encoding)
	}
	return r
}

func gzipped(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gw := gzip.NewWriter(&buf)
	gw.Write(data)
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBodyDecodesEncodings(t *testing.T) {
	payload := []byte(`{"a": 1}` + "\n" + `{"b": 2}` + "\n")
	cases := []struct {
		enc  string
		body []byte
	}{
		{"", payload},
		{"identity", payload},
		{"gzip", gzipped(t, payload)},
		{"x-gzip", gzipped(t, payload)},
		{"GZIP", gzipped(t, payload)}, // header values are case-insensitive
	}
	for _, c := range cases {
		rc, err := Body(nil, req(c.enc, c.body), 0)
		if err != nil {
			t.Errorf("%q: %v", c.enc, err)
			continue
		}
		got, err := io.ReadAll(rc)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("%q: decoded %q err %v", c.enc, got, err)
		}
		rc.Close()
	}
}

func TestBodyUnsupportedEncoding(t *testing.T) {
	for _, enc := range []string{"br", "deflate", "zstd", "gzip, zstd", "snappy"} {
		_, err := Body(nil, req(enc, []byte("x")), 0)
		if !errors.Is(err, ErrUnsupportedEncoding) || !strings.Contains(err.Error(), "supported: identity, gzip)") {
			t.Errorf("%q: err = %v, want ErrUnsupportedEncoding naming identity and gzip", enc, err)
		}
	}
}

// TestDecompressedLimit pins the tentpole semantics: -max-body applies
// to decompressed bytes, surfacing as *http.MaxBytesError exactly like
// the identity path, even when the wire body is tiny (a bomb).
func TestDecompressedLimit(t *testing.T) {
	doc := []byte(`{"a": 1}` + "\n")
	big := bytes.Repeat(doc, 100_000) // ~900 KB decompressed
	for _, c := range []struct {
		enc  string
		body []byte
	}{
		{"gzip", gzipped(t, big)}, // a few KB on the wire
	} {
		rc, err := Body(nil, req(c.enc, c.body), 50)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(rc)
		var mbe *http.MaxBytesError
		if !errors.As(err, &mbe) || mbe.Limit != 50 {
			t.Errorf("%s bomb: err = %v, want MaxBytesError{50}", c.enc, err)
		}
		if len(got) > 50 {
			t.Errorf("%s bomb: delivered %d decompressed bytes past the limit", c.enc, len(got))
		}
		// The delivered prefix is intact document bytes.
		if !bytes.HasPrefix(big, got) {
			t.Errorf("%s bomb: delivered bytes are not a prefix", c.enc)
		}
	}
	// A body exactly at the limit passes.
	rc, _ := Body(nil, req("gzip", gzipped(t, doc)), int64(len(doc)))
	if got, err := io.ReadAll(rc); err != nil || len(got) != len(doc) {
		t.Errorf("exact-limit body: %d bytes, err %v", len(got), err)
	}
}

func TestBodyLazyDecodeErrors(t *testing.T) {
	// A corrupt gzip body must not fail Body (headers only); the error
	// surfaces on Read, inside the pipeline.
	rc, err := Body(nil, req("gzip", []byte("not gzip at all")), 0)
	if err != nil {
		t.Fatalf("Body must be lazy, got %v", err)
	}
	if _, err := io.ReadAll(rc); err == nil || !strings.Contains(err.Error(), "gzip") {
		t.Errorf("read err = %v, want gzip header error", err)
	}
	// Truncated gzip: valid header, cut deflate stream.
	full := gzipped(t, bytes.Repeat([]byte(`{"a": 1}`+"\n"), 1000))
	rc, _ = Body(nil, req("gzip", full[:len(full)/2]), 0)
	got, err := io.ReadAll(rc)
	if err == nil {
		t.Errorf("truncated gzip read %d bytes with no error", len(got))
	}
	// An empty gzip body is an empty stream, not an error.
	rc, _ = Body(nil, req("gzip", nil), 0)
	if got, err := io.ReadAll(rc); err != nil || len(got) != 0 {
		t.Errorf("empty gzip body: %d bytes, err %v", len(got), err)
	}
}
