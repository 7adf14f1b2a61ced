package infer

import (
	"bytes"
	"errors"
	"io"
	"iter"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/mmapio"
)

// This file is the input stage of the streamed engine
// (docs/ARCHITECTURE.md, "The zero-copy input layer"): one chunkReader
// per input — an io.Reader read a block at a time into pooled,
// refcounted arrays (chunkBuf), or a mapped file riding it already
// filled — the routing that decides which a named file gets
// (fileSources), and windows, the one loop that cuts an input for the
// map phase in either shape. A window ends only where a document can
// end (cutWindow, boundary), so on valid input every walk completes; a
// document may span windows only on malformed input, and never inputs.
// Each window carries the line after it, which decides such a
// document's error (chunkMapper.absorb): every walk is final, and the
// next window begins where the last one ended.

// chunkReadSize is the read block of a reader's input.
const chunkReadSize = 256 << 10

// maxInitialChunkBuf caps the pre-sized first buffer of the reader
// path; byte targets beyond it are reached by growth doubling.
const maxInitialChunkBuf = 64 << 20

// chunkBuf is one refcounted chunk array of the reader path, or a
// mapped input's pages. The reader holds one reference while it fills
// the buffer; every window emitted from it holds another while its
// consumer runs, and a consumer that keeps it longer takes one of its
// own. The last release pools the array for a refill, or unmaps it.
type chunkBuf struct {
	data    []byte // full backing array, sliced up to capacity
	refs    atomic.Int32
	pool    *chunkPool
	mapping *mmapio.Mapping
}

// acquire adds a reference.
func (b *chunkBuf) acquire() { b.refs.Add(1) }

// release drops a reference.
func (b *chunkBuf) release() {
	if b.refs.Add(-1) != 0 {
		return
	}
	if b.mapping != nil {
		b.mapping.Close()
	} else {
		b.pool.put(b)
	}
}

// chunkPool recycles chunk arrays: a mutex-guarded free list. The zero
// value serves one engine run — garbage once the run ends, so no chunk
// can alias another run's buffer — and keeps every array released to
// it. A collector's pool outlives its ingests (only there do chunk
// arrays outlive a run) and is bounded: limit arrays at most, none that
// an unsplittable run grew past maxPooledChunkBuf.
type chunkPool struct {
	mu    sync.Mutex
	free  []*chunkBuf
	limit int // 0: keep everything
}

// maxPooledChunkBuf is the largest array a bounded pool keeps: 4× the
// reader path's initial array at the default chunk targets.
const maxPooledChunkBuf = 4 * 2 * chunkReadSize

// get returns a buffer whose array holds at least minCap bytes, with
// one reference (the caller's) held: off the free list, counted into
// *recycled (the caller's BuffersRecycled stat), or freshly allocated.
func (cp *chunkPool) get(minCap int, recycled *int64) *chunkBuf {
	cp.mu.Lock()
	for i := len(cp.free) - 1; i >= 0; i-- {
		if b := cp.free[i]; cap(b.data) >= minCap {
			cp.free = slices.Delete(cp.free, i, i+1)
			cp.mu.Unlock()
			b.refs.Store(1)
			*recycled++
			return b
		}
	}
	cp.mu.Unlock()
	b := &chunkBuf{data: make([]byte, minCap), pool: cp}
	b.data = b.data[:cap(b.data)]
	b.refs.Store(1)
	return b
}

// put returns a fully released buffer to the pool. Called from
// chunkBuf.release, potentially on a worker goroutine.
func (cp *chunkPool) put(b *chunkBuf) {
	cp.mu.Lock()
	if cp.limit == 0 || (len(cp.free) < cp.limit && cap(b.data) <= maxPooledChunkBuf) {
		cp.free = append(cp.free, b)
	}
	cp.mu.Unlock()
}

// sequentialChunkBytes is the default window of a one-shot run's
// sequential shape. The parallel shape keeps small document-count
// windows to balance load across workers; with one worker windows only
// bound the index's bitmaps and the reader's buffer, so it prefers a
// handful of large ones. An explicit ChunkBytes wins in both shapes.
const sequentialChunkBytes = 4 << 20

// chunkReader is the input of the window loop: the bytes read and not
// yet consumed, in a pooled array the emitted windows alias. A mapping
// rides it already filled — eof set, no reads — and its windows hold a
// reference on its pages.
type chunkReader struct {
	source
	st      *PipelineStats // the read and cut clocks, the window counter and the copy/recycle counters record here
	frame   statsFrame     // flushed once per emitted window
	buf     *chunkBuf      // current fill buffer; the reader holds one ref
	pending []byte         // filled prefix of buf.data
	base    int            // absolute offset of pending[0], from the input's first byte
	start   int            // pending[:start] has been emitted and consumed
	eof     bool           // the input has ended, or failed with err
	err     error          // the read error, nil at a clean end
}

// newChunkReader returns the reader of src: a mapping already filled,
// else a first buffer sized for one read block past the byte target
// (capped, so a huge target cannot pre-commit memory the input may
// never fill), so byte targets do not copy their way up.
func newChunkReader(src source, target int, st *PipelineStats) *chunkReader {
	cr := &chunkReader{source: src, st: st}
	if src.mapping != nil {
		cr.buf = &chunkBuf{data: src.mapping.Data(), mapping: src.mapping}
		cr.buf.refs.Store(1)
		cr.pending, cr.eof = cr.buf.data, true
		cr.frame.MmapInputs = 1
		return cr
	}
	cr.buf = cr.pool.get(min(max(2*chunkReadSize, target+chunkReadSize), maxInitialChunkBuf), &cr.frame.BuffersRecycled)
	cr.pending = cr.buf.data[:0]
	return cr
}

// close drops the reader's own reference and publishes the frame.
func (cr *chunkReader) close() {
	cr.buf.release()
	cr.frame.flush(cr.st)
}

// fill reads one block. When the buffer is full it first recycles:
// carry the unconsumed tail into the front of the same array when no
// emitted chunk still aliases it (refs == 1), into a pooled/fresh array
// otherwise; with nothing consumed at all the run is unsplittable and
// the array doubles so total copying stays O(n).
func (cr *chunkReader) fill() {
	if len(cr.pending)+chunkReadSize > cap(cr.buf.data) {
		tail := len(cr.pending) - cr.start
		switch {
		case cr.start > 0 && cr.buf.refs.Load() == 1 && tail+chunkReadSize <= cap(cr.buf.data):
			// All chunks emitted from this array have been released:
			// the reader owns it alone and may slide the tail down
			// in place instead of allocating.
			copy(cr.buf.data, cr.pending[cr.start:])
		default:
			size := max(cap(cr.buf.data), tail+chunkReadSize)
			if cr.start == 0 {
				size = max(2*cap(cr.buf.data), size) // unsplittable run: grow by doubling
			}
			next := cr.pool.get(size, &cr.frame.BuffersRecycled)
			copy(next.data, cr.pending[cr.start:])
			cr.buf.release()
			cr.buf = next
		}
		cr.frame.BytesCopied += int64(tail)
		cr.base += cr.start
		cr.pending = cr.buf.data[:tail]
		cr.start = 0
	}
	readStart := statsClock(cr.st)
	n, err := cr.r.Read(cr.buf.data[len(cr.pending) : len(cr.pending)+chunkReadSize])
	statsSince(cr.st, &cr.frame.ReadNanos, readStart)
	cr.pending = cr.buf.data[:len(cr.pending)+n]
	if err != nil {
		if !errors.Is(err, io.EOF) {
			cr.err = err
		}
		cr.eof = true
	}
}

// chunk emits pending[start:end), carrying the length next of the line
// after it, and moves start past it. The window holds a reference on the
// buffer it aliases, which windows releases once its consumer returns;
// the array never returns to the pool while a reference is held.
func (cr *chunkReader) chunk(end, next int) byteChunk {
	ch := byteChunk{base: cr.base + cr.start, data: cr.pending[cr.start:end], next: next, buf: cr.buf, in: cr}
	cr.buf.acquire()
	cr.start = end
	cr.frame.ChunksSplit++
	cr.frame.flush(cr.st)
	return ch
}

// cutScan is where a cutWindow that asked for more input stopped, so
// that the next call scans no byte again: the offset to resume from,
// the boundaries passed, the '\n' whose next line's first byte that is
// not a blank is awaited (brk, one past it), and the cut found whose
// next line's end is awaited (cut). brk and cut are 0 when none is.
type cutScan struct{ at, seen, brk, cut int }

// cutWindow returns the window at the head of avail and the length of
// the line after it: the window ends past the docs'th boundary when
// docs is positive, else past the first boundary at or after want, and
// is cut only once the line after it is in hand — through its '\n', or
// to the end of input. At the end of input without such a boundary the
// window is all of avail and no line follows. A boundary is decided
// with the next line's first byte that is not a blank. end -1 asks for
// more input first: sc then holds where the scan stopped, and the next
// call, over the same bytes and more, resumes from it.
func cutWindow(avail []byte, sc *cutScan, want, docs int, eof bool) (end, next int) {
	i := sc.at
	if docs == 0 {
		i = max(i, min(want, len(avail))-1) // a newline before want-1 would end the window short of want
	}
	for sc.cut == 0 {
		nl := sc.brk - 1
		if nl < 0 {
			j := bytes.IndexByte(avail[i:], '\n')
			if j < 0 {
				i = len(avail)
				break
			}
			nl, i = i+j, i+j+1
		}
		for i < len(avail) && (avail[i] == ' ' || avail[i] == '\t') {
			i++
		}
		if sc.brk = 0; i == len(avail) { // the next line is blank so far: decide it with more input
			sc.brk = nl + 1
			break
		}
		if boundary(avail, nl, i) {
			if docs > 0 && sc.seen+1 < docs {
				sc.seen++
				continue
			}
			sc.cut = nl + 1
		}
	}
	if sc.cut > 0 {
		if e := bytes.IndexByte(avail[i:], '\n'); e >= 0 {
			return sc.cut, i + e + 1 - sc.cut
		}
		if i = len(avail); eof {
			return sc.cut, i - sc.cut
		}
	} else if eof {
		return len(avail), 0
	}
	sc.at = i
	return -1, 0
}

// boundary reports whether the '\n' at avail[nl] ends a document, where
// avail[k] is the first byte after it that is not a space or tab: that
// byte is none of '\r', '\n', '}', ']', ',' or ':', and the last byte
// before the break that is not whitespace is none of ',', '{', '[' or
// ':'. No break inside a valid document passes, and the one starting a
// document's line always does (docs/ARCHITECTURE.md, "The zero-copy
// input layer"); on malformed input a document may span a cut, and the
// line after it decides that document's error (chunkMapper.absorb).
func boundary(avail []byte, nl, k int) bool {
	switch avail[k] {
	case '\r', '\n', '}', ']', ',', ':':
		return false
	}
	for j := nl - 1; j >= 0; j-- {
		switch avail[j] {
		case ' ', '\t', '\r', '\n':
			continue
		case ',', '{', '[', ':':
			return false
		}
		return true
	}
	return false
}

// windows is the one input loop (see the file comment): it cuts windows
// of docs documents when docs is positive, else of at least target
// bytes, each carrying the line after it, and hands direct one after
// another until the input ends or direct reports an error. It returns
// the documents absorbed and the first error: direct's, or the input's
// read error when no window carried it.
func windows(cr *chunkReader, target, docs int, direct func(byteChunk) (int, error)) (int, error) {
	defer cr.close()
	total := 0
	for sc := (cutScan{}); !cr.eof || cr.start < len(cr.pending); {
		avail := cr.pending[cr.start:]
		if len(avail) <= target && !cr.eof {
			cr.fill()
			continue
		}
		cutStart := statsClock(cr.st)
		end, next := cutWindow(avail, &sc, target, docs, cr.eof)
		statsSince(cr.st, &cr.frame.SplitNanos, cutStart)
		if end < 0 {
			cr.fill()
			continue
		}
		ch := cr.chunk(cr.start+end, next)
		n, err := direct(ch)
		ch.buf.release()
		total += n
		if err != nil {
			return total, err
		}
		sc = cutScan{}
	}
	return total, cr.err
}

// mmapMinSize is the smallest file fileSources maps: below it the
// mapping's syscalls cost more than the copies they save.
const mmapMinSize = 1 << 20

// fileSources yields the named files in turn, read through one pool: a
// regular file of at least mmapMinSize mapped where the platform can,
// anything else — pipe, short file, no mmap, a refused mapping — read.
// A file that cannot be opened ends the sequence with its error.
func fileSources(names []string) iter.Seq2[source, error] {
	pool := new(chunkPool)
	return func(yield func(source, error) bool) {
		for _, name := range names {
			f, err := os.Open(name)
			if err != nil {
				yield(source{}, err)
				return
			}
			src := source{r: f, name: name, pool: pool}
			if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() && fi.Size() >= mmapMinSize && mmapio.Supported() {
				if m, err := mmapio.Map(f); err == nil {
					src = source{name: name, mapping: m}
				}
			}
			more := yield(src, nil)
			f.Close()
			if !more {
				return
			}
		}
	}
}
