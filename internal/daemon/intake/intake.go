// Package intake is the daemon's request-body front door: transparent
// Content-Encoding decoding (identity, gzip) with the body limit
// enforced on *decompressed* bytes, so a compressed request cannot
// smuggle an over-limit body past -max-body (decompression bombs
// included) and 413 semantics are identical across encodings.
//
// Decoding is lazy: Body never reads the request, it only inspects the
// headers, so admission decisions (quota, equivalence) stay "before any
// body byte is read" and decode errors — a corrupt gzip header, a
// truncated stream — surface as read errors inside the ingest pipeline,
// where they get the same kept-prefix semantics as a malformed
// document.
//
// gzip rides on compress/gzip. Every other encoding — zstd included: a
// conforming decoder would ride on a dependency this build does not
// take — is rejected up front with ErrUnsupportedEncoding.
package intake

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// ErrUnsupportedEncoding reports a Content-Encoding the intake cannot
// decode; the daemon maps it to 415 Unsupported Media Type.
var ErrUnsupportedEncoding = errors.New("unsupported Content-Encoding")

// Body returns r's body decoded according to its Content-Encoding
// header ("" / "identity" pass through; "gzip" and "x-gzip" decode
// transparently). limit > 0 caps the number of *decoded* bytes a
// caller may read: past it, Read returns *http.MaxBytesError exactly
// like http.MaxBytesReader, so over-limit compressed bodies keep the
// identity path's 413 semantics. An unrecognised or multi-valued
// encoding returns ErrUnsupportedEncoding (wrapped); no body byte has
// been read at that point.
func Body(w http.ResponseWriter, r *http.Request, limit int64) (io.ReadCloser, error) {
	enc := strings.ToLower(strings.TrimSpace(r.Header.Get("Content-Encoding")))
	switch enc {
	case "", "identity":
		if limit > 0 {
			return http.MaxBytesReader(w, r.Body, limit), nil
		}
		return r.Body, nil
	case "gzip", "x-gzip":
		return limited(&lazyGzipReader{src: r.Body}, r.Body, limit), nil
	default:
		return nil, fmt.Errorf("%w %q (supported: identity, gzip)", ErrUnsupportedEncoding, enc)
	}
}

// limited wraps a decoded stream with the decompressed-byte cap and a
// Close that closes the underlying request body.
func limited(dec io.Reader, body io.Closer, limit int64) io.ReadCloser {
	if limit > 0 {
		dec = &maxBytesReader{r: dec, remaining: limit, limit: limit}
	}
	return readCloser{dec, body}
}

type readCloser struct {
	io.Reader
	c io.Closer
}

func (rc readCloser) Close() error { return rc.c.Close() }

// maxBytesReader enforces the decompressed-byte limit with the same
// error type http.MaxBytesReader uses, so callers' 413 mapping
// (errors.As(*http.MaxBytesError)) is encoding-agnostic.
type maxBytesReader struct {
	r         io.Reader
	remaining int64
	limit     int64
	hit       bool
}

func (m *maxBytesReader) Read(p []byte) (int, error) {
	if m.hit {
		return 0, &http.MaxBytesError{Limit: m.limit}
	}
	// Read one byte past the limit so a body of exactly limit bytes
	// succeeds (mirrors http.MaxBytesReader).
	if int64(len(p)) > m.remaining+1 {
		p = p[:m.remaining+1]
	}
	n, err := m.r.Read(p)
	if int64(n) <= m.remaining {
		m.remaining -= int64(n)
		return n, err
	}
	n = int(m.remaining)
	m.remaining = 0
	m.hit = true
	return n, &http.MaxBytesError{Limit: m.limit}
}

// lazyGzipReader defers gzip.NewReader to the first Read, so header
// errors (empty body, not-gzip bytes) surface as read errors inside the
// pipeline instead of failing route handling before ingest starts.
type lazyGzipReader struct {
	src io.Reader
	zr  *gzip.Reader
	err error
}

func (l *lazyGzipReader) Read(p []byte) (int, error) {
	if l.err != nil {
		return 0, l.err
	}
	if l.zr == nil {
		zr, err := gzip.NewReader(l.src)
		if err != nil {
			if err == io.EOF {
				// An empty body is an empty document stream, not a
				// truncated one mid-frame.
				l.err = io.EOF
			} else {
				l.err = fmt.Errorf("gzip: %w", err)
			}
			return 0, l.err
		}
		// compress/gzip reads concatenated members as one stream (RFC
		// 1952 §2.2), and bytes after a member that do not open another
		// fail the read: a body's members decode back to back, and
		// trailing garbage is an error, not ignored.
		l.zr = zr
	}
	n, err := l.zr.Read(p)
	if err != nil && err != io.EOF {
		err = fmt.Errorf("gzip: %w", err)
		l.err = err
	}
	return n, err
}
