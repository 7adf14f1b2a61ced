// Package mmapio memory-maps regular files for zero-copy reads: the
// returned Mapping exposes the file's bytes as one stable []byte that
// the byte-slice inference engines split and lex in place, so a
// GB-scale corpus streams through the pipeline without ever being
// copied into user-space buffers. Mapping is read-only; the kernel
// pages the file in on demand and evicts freely under pressure.
//
// The syscall implementation is gated behind a `unix` build tag with a
// portable fallback that reports Supported() == false and fails every
// Map with ErrUnsupported — callers (infer's file router behind
// `jsinfer FILE`) treat that exactly like a pipe or short file and fall
// back to the io.Reader path, so the rest of the tree never needs a
// build tag of its own.
package mmapio

import (
	"errors"
	"fmt"
	"math"
	"os"
)

// ErrUnsupported is returned by Map on platforms without the mmap
// syscall implementation.
var ErrUnsupported = errors.New("mmapio: memory mapping not supported on this platform")

// Mapping is a read-only memory-mapped view of a whole file. The zero
// value (and the mapping of an empty file) holds no pages and is safe
// to Close.
type Mapping struct {
	data   []byte
	mapped bool // false for empty files and the zero value: nothing to unmap
}

// Data returns the mapped bytes. The slice is valid until Close; the
// caller must not write to it (the pages are mapped read-only; a write
// faults).
func (m *Mapping) Data() []byte { return m.data }

// Close releases the mapping. The bytes returned by Data must not be
// touched afterwards — they unmap, they do not linger. Close is
// idempotent.
func (m *Mapping) Close() error {
	if !m.mapped {
		m.data = nil
		return nil
	}
	m.mapped = false
	data := m.data
	m.data = nil
	return unmap(data)
}

// Map memory-maps f in its entirety, read-only. Only regular files can
// be mapped — stdin, pipes, sockets and devices return an error
// naming the reason, and non-unix platforms return ErrUnsupported — so
// callers can offer mapping opportunistically and fall back to reads.
// Zero-length files yield an empty Mapping without touching the
// syscall (a zero-length mmap is an error on most kernels). The file
// descriptor may be closed once Map returns; the mapping keeps the
// pages alive. Truncating the mapped file while the Mapping is live
// turns reads past the new end into faults — map files that are not
// being rewritten.
func Map(f *os.File) (*Mapping, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !fi.Mode().IsRegular() {
		return nil, fmt.Errorf("mmapio: %s: not a regular file (%s)", f.Name(), fi.Mode().Type())
	}
	size := fi.Size()
	if size == 0 {
		return &Mapping{}, nil
	}
	if size > math.MaxInt || size != int64(int(size)) {
		return nil, fmt.Errorf("mmapio: %s: file size %d exceeds the address space", f.Name(), size)
	}
	data, err := mapFile(f, int(size))
	if err != nil {
		return nil, err
	}
	return &Mapping{data: data, mapped: true}, nil
}
