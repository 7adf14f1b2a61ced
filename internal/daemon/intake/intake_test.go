package intake

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
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

func gzipped(t testing.TB, data []byte) []byte {
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
	// Concatenated members decode as one stream, back to back; bytes
	// after a member that open no other fail the read, after the member.
	a, b := []byte(`{"a": 1}`+"\n"), []byte(`{"b": 2}`+"\n")
	rc, _ = Body(nil, req("gzip", slices.Concat(gzipped(t, a), gzipped(t, b))), 0)
	if got, err := io.ReadAll(rc); err != nil || !bytes.Equal(got, slices.Concat(a, b)) {
		t.Errorf("two gzip members: %q, err %v; want both documents", got, err)
	}
	rc, _ = Body(nil, req("gzip", slices.Concat(gzipped(t, a), []byte("trailing garbage"))), 0)
	if got, err := io.ReadAll(rc); err == nil || !strings.HasPrefix(err.Error(), "gzip:") || !bytes.Equal(got, a) {
		t.Errorf("gzip member + garbage: %q, err %v; want the member, then a gzip: error", got, err)
	}
}

// decodeReference decodes wire with compress/gzip (gz) or as is, behind
// http.MaxBytesReader when limit > 0: what Body must deliver. An empty
// gzip body is an empty stream, as Body has it.
func decodeReference(wire []byte, gz bool, limit int64) ([]byte, error) {
	var r io.Reader = bytes.NewReader(wire)
	if gz {
		zr, err := gzip.NewReader(r)
		if err == io.EOF {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		r = zr
	}
	if limit > 0 {
		r = http.MaxBytesReader(nil, io.NopCloser(r), limit)
	}
	return io.ReadAll(r)
}

// FuzzIntakeBody holds Body to compress/gzip plus http.MaxBytesReader
// over the same wire bytes, as identity and as gzip, under a fuzz-chosen
// limit on decoded bytes (0: none): the same decoded prefix, never more
// than limit bytes, *http.MaxBytesError exactly when the decoded stream
// passes the limit, and every other failure a gzip: read error.
func FuzzIntakeBody(f *testing.F) {
	doc := []byte(`{"a": 1}` + "\n")
	member := gzipped(f, doc)
	bomb := bytes.Repeat(doc, 4096)
	for _, s := range []struct {
		wire  []byte
		limit uint32
	}{
		{member[:len(member)/2], 0},                       // a truncated member
		{slices.Concat(member, member), uint32(len(doc))}, // concatenated members, the limit inside the second
		{slices.Concat(member, []byte("junk")), 0},        // trailing garbage
		{gzipped(f, bomb), uint32(len(bomb))},             // a bomb exactly at the limit
		{gzipped(f, bomb), uint32(len(bomb) - 1)},         // and one byte past it
		{doc, 3},
		{nil, 0},
	} {
		for _, gz := range []bool{true, false} {
			f.Add(s.wire, gz, s.limit)
		}
	}
	f.Fuzz(func(t *testing.T, wire []byte, gz bool, limit uint32) {
		enc := "identity"
		if gz {
			enc = "gzip"
		}
		rc, err := Body(nil, req(enc, wire), int64(limit))
		if err != nil {
			t.Fatalf("%s: Body: %v", enc, err)
		}
		got, err := io.ReadAll(rc)
		want, wantErr := decodeReference(wire, gz, int64(limit))
		if !bytes.Equal(got, want) {
			t.Fatalf("%s limit %d: decoded %q, reference %q", enc, limit, got, want)
		}
		if limit > 0 && len(got) > int(limit) {
			t.Fatalf("%s: delivered %d bytes past the limit %d", enc, len(got), limit)
		}
		full, _ := decodeReference(wire, gz, 0)
		passes := limit > 0 && len(full) > int(limit)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) != passes || (passes && mbe.Limit != int64(limit)) {
			t.Fatalf("%s limit %d: err %v over a %d-byte decoded stream; want *http.MaxBytesError exactly past the limit", enc, limit, err, len(full))
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s limit %d: err %v, reference %v", enc, limit, err, wantErr)
		}
		if err != nil && !passes && (!gz || !strings.HasPrefix(err.Error(), "gzip:")) {
			t.Fatalf("%s: err %v, want a gzip: read error", enc, err)
		}
	})
}
