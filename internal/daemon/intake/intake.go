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
// caller may read: every encoding's decoded stream goes through
// http.MaxBytesReader, so past the limit Read returns
// *http.MaxBytesError and over-limit compressed bodies keep the
// identity path's 413 semantics. An unrecognised or multi-valued
// encoding returns ErrUnsupportedEncoding (wrapped); no body byte has
// been read at that point.
func Body(w http.ResponseWriter, r *http.Request, limit int64) (io.ReadCloser, error) {
	var body io.ReadCloser
	switch enc := strings.ToLower(strings.TrimSpace(r.Header.Get("Content-Encoding"))); enc {
	case "", "identity":
		body = r.Body
	case "gzip", "x-gzip":
		body = readCloser{&lazyGzipReader{src: r.Body}, r.Body}
	default:
		return nil, fmt.Errorf("%w %q (supported: identity, gzip)", ErrUnsupportedEncoding, enc)
	}
	if limit > 0 {
		body = http.MaxBytesReader(w, body, limit)
	}
	return body, nil
}

// readCloser is a decoded stream whose Close closes the request body.
type readCloser struct {
	io.Reader
	c io.Closer
}

func (rc readCloser) Close() error { return rc.c.Close() }

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
