package infer

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"sync"
	"sync/atomic"
)

// This file is the input stage of the streamed engine
// (docs/ARCHITECTURE.md, "The zero-copy input layer"): one chunkReader
// per run, which an io.Reader fills a read block at a time and a
// caller-owned slice rides already filled, and the two loops that cut
// it into runs of bytes for the map phase; the caller picks (run and
// InferStreamInto, tokens.go).
//
// windows feeds the sequential shape, and nothing scans the input to
// cut them: a window ends just after a raw '\n' — the last one inside
// the byte target, else the first one past it, else at the end of input
// (cutWindow). No JSON token holds a raw newline, so no token is cut; a
// pretty-printed document may be. The index walk is the splitter: in a
// window that is not the input's last, the record failing with an error
// more input could cure (curable) is the straddler — absorption is
// transactional per document, nothing of it was committed — and the
// next window begins at its first byte. A window that completed no
// document is followed by one at least twice as long, so a document
// larger than the target makes progress and the bytes indexed twice
// stay O(n); input with no newline at all is one window.
//
// readChunks feeds the parallel shape: runs of whole documents, cut at
// a newline at depth zero outside any string so workers can type them
// independently. Boundary finding is mison.Chunker's (a docSplitter, so
// tests can run the byte-at-a-time reference through the same code); it
// runs only in this shape, where chunks travel to other goroutines.
//
// A reader's chunks alias the pooled, refcounted array they were read
// into (chunkBuf) and hold a reference the consumer releases after
// absorbing them; a fully released array returns to its pool — the
// run's, or the collector's an ingest feeds — so the steady state
// recycles a handful of arrays, and a straddler is carried over exactly
// as an unsplit tail is. A slice's chunks alias the caller's memory:
// nothing copied, nothing pooled, nothing allocated per chunk
// (TestSplitChunksBytesAllocFree).

// docSplitter finds document-aligned split candidates incrementally:
// Splits appends the exclusive end offset of every top-level newline in
// block to dst, carrying string/escape/depth state to the next call.
type docSplitter interface {
	Splits(block []byte, dst []int) []int
}

// chunkReadSize is the read-block size of the chunk splitter.
const chunkReadSize = 256 << 10

// maxInitialChunkBuf caps the pre-sized first buffer of the reader
// path; byte targets beyond it are reached by growth doubling.
const maxInitialChunkBuf = 64 << 20

// chunkBuf is one refcounted chunk array of the reader path. The reader
// holds one reference while it fills the buffer; every chunk emitted
// from it holds another, released once the chunk has been absorbed.
// When the last reference drops the array returns to its pool, ready
// for a reader to refill.
type chunkBuf struct {
	data []byte // full backing array, sliced up to capacity
	refs atomic.Int32
	pool *chunkPool
}

// acquire adds a reference (one per aliasing chunk).
func (b *chunkBuf) acquire() {
	if b != nil {
		b.refs.Add(1)
	}
}

// release drops a reference; the last one returns the array to the
// pool. Safe on nil (byte-mode chunks alias caller memory and carry no
// buffer).
func (b *chunkBuf) release() {
	if b != nil && b.refs.Add(-1) == 0 {
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

// chunkTargets bundles the chunk-size policy: emit a chunk at a split
// point once it holds docs documents (docs mode, the default) or once
// it holds at least bytes bytes (byte-target mode, Options.ChunkBytes —
// the knob that lets GB-scale inputs ride far larger chunks than the
// 256-doc default would cut).
type chunkTargets struct {
	docs  int
	bytes int
}

func (o Options) chunkTargets() chunkTargets {
	return chunkTargets{docs: o.batchSize(), bytes: max(o.ChunkBytes, 0)}
}

// sequentialChunkBytes is the default window of a one-shot run's
// sequential shape. The parallel shape keeps small document-count
// chunks to balance load across workers; with one worker windows only
// bound the index's bitmaps and the reader's buffer, so it prefers a
// handful of large ones. An explicit ChunkBytes wins; Batch counts
// documents per work unit and cuts nothing where there are none.
const sequentialChunkBytes = 4 << 20

// ripe reports whether a chunk spanning size bytes and docs documents
// has reached the emission target.
func (t chunkTargets) ripe(docs, size int) bool {
	if t.bytes > 0 {
		return size >= t.bytes
	}
	return docs >= t.docs
}

// chunkReader is the input of both loops: the bytes read and not yet
// consumed, in a pooled array the emitted chunks alias. A caller-owned
// slice rides it already filled: eof set, nil buf, no reads, and its
// chunks count into BytesAliased instead of holding a reference.
type chunkReader struct {
	r       io.Reader
	pool    *chunkPool
	st      *PipelineStats // the read clock, the chunk counter and the copy/recycle counters record here
	frame   statsFrame     // flushed once per emitted chunk
	buf     *chunkBuf      // current fill buffer; the reader holds one ref
	pending []byte         // filled prefix of buf.data
	base    int            // absolute offset of pending[0]
	start   int            // pending[:start] has been emitted and consumed
	scanned int            // pending[:scanned] has been handed to the splitter
	index   int
	eof     bool  // the input has ended, or failed with err
	err     error // the read error, nil at a clean end
}

// newChunkReader returns the reader of a run over src: a caller-owned
// slice already filled, else a first buffer sized for one read block
// past the byte target (capped, so a huge target cannot pre-commit
// memory the input may never fill), so byte targets do not copy their
// way up.
func newChunkReader(src source, target int, st *PipelineStats) *chunkReader {
	if src.r == nil {
		return &chunkReader{pending: src.data, eof: true, st: st}
	}
	cr := &chunkReader{r: src.r, pool: src.pool, st: st}
	cr.frame.ReaderInputs = 1
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
		cr.scanned, cr.start = tail, 0
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

// chunk emits pending[start:end) and moves start past it. The chunk
// holds a reference on the buffer it aliases: the consumer release()s
// it once the bytes are dead, or the array never returns to the pool.
func (cr *chunkReader) chunk(end int) byteChunk {
	ch := byteChunk{index: cr.index, base: cr.base + cr.start, data: cr.pending[cr.start:end], buf: cr.buf}
	cr.buf.acquire()
	cr.index++
	cr.start = end
	cr.frame.ChunksSplit++
	cr.frame.flush(cr.st)
	return ch
}

// cutWindow returns the length of the window at the head of avail: just
// past the last raw '\n' in avail[floor:want], else the first one from
// want on, else — at the end of input, or when avail is all there is —
// everything. -1 asks for more input first.
func cutWindow(avail []byte, floor, want int, eof bool) int {
	if len(avail) > want {
		if i := bytes.LastIndexByte(avail[floor:want], '\n'); i >= 0 {
			return floor + i + 1
		}
		if i := bytes.IndexByte(avail[want:], '\n'); i >= 0 {
			return want + i + 1
		}
	}
	if eof {
		return len(avail)
	}
	return -1
}

// windows is the sequential shape's input loop (see the file comment):
// it hands direct one window after another and starts the next where
// direct says absorption stopped — the window's end, or its straddler.
// It returns the documents absorbed and the first error; a read error
// wins over an error in the window it truncated, and only that one.
func windows(cr *chunkReader, target int, direct func(byteChunk) (int, int, error)) (int, error) {
	defer cr.close()
	total := 0
	for floor, want := 0, target; !cr.eof || cr.start < len(cr.pending); {
		avail := cr.pending[cr.start:]
		if len(avail) <= want && !cr.eof {
			cr.fill()
			continue
		}
		end := cutWindow(avail, floor, want, cr.eof)
		if end < 0 { // no newline in avail[floor:]: look again at twice the bytes
			floor, want = len(avail), 2*len(avail)
			continue
		}
		last := cr.eof && end == len(avail)
		ch := cr.chunk(cr.start + end)
		ch.open = !last
		cr.frame.ChunksDirect++
		n, used, err := direct(ch)
		total += n
		if cr.buf == nil {
			cr.frame.BytesAliased += int64(used)
		}
		if last && cr.err != nil {
			err = cr.err
		}
		if err != nil || last {
			return total, err
		}
		cr.start -= end - used
		floor, want = 0, target
		if n == 0 && used < end { // nothing completed: the straddler needs a longer window
			floor, want = end-used, 2*(end-used)
		}
	}
	return total, cr.err
}

// readChunks is the parallel shape's input loop: it cuts cr's input
// into document-aligned chunks and hands them to emit (which reports
// false to stop early). Split candidates come from sp, asked one read
// block at a time whatever cr rides — a slice handed over whole would
// cost eight bytes of scratch per document of a mapped file; this loop
// batches them into chunks per the targets.
func readChunks(cr *chunkReader, targets chunkTargets, sp docSplitter, emit func(byteChunk) bool) error {
	defer cr.close()
	cut := func(end int) bool {
		if cr.buf == nil {
			cr.frame.BytesAliased += int64(end - cr.start)
		}
		return emit(cr.chunk(end))
	}
	splits := make([]int, 0, 512) // sized once: nothing below allocates per chunk
	docs := 0                     // top-level newlines seen since the last split
	for !cr.eof || cr.scanned < len(cr.pending) {
		if cr.scanned == len(cr.pending) {
			cr.fill()
		}
		// Find boundaries in the next block, emitting at every ripe one.
		block := cr.pending[cr.scanned:min(cr.scanned+chunkReadSize, len(cr.pending))]
		splitStart := statsClock(cr.st)
		splits = sp.Splits(block, splits[:0])
		statsSince(cr.st, &cr.frame.SplitNanos, splitStart)
		for _, rel := range splits {
			docs++
			if end := cr.scanned + rel; targets.ripe(docs, end-cr.start) {
				docs = 0
				if !cut(end) {
					return cr.err
				}
			}
		}
		cr.scanned += len(block)
	}
	if cr.start < len(cr.pending) {
		cut(len(cr.pending))
	}
	return cr.err
}
