package infer

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/jsontext"
	"repro/internal/mison"
	"repro/internal/typelang"
)

// This file is the streamed engine: the token walker that types a
// document straight from lexer tokens into an accumulator — the
// fallback of the index walk (index_absorb.go), which absorbs every
// record the structural index certifies without a token — and the
// engine that drives the two over runs of bytes, in either shape. The map
// phase of the paper's map/reduce needs the *type* of each document,
// never its value, so no value tree — and not even a canonical
// per-document type — is ever built: both walkers land each document's
// structure directly in the chunk accumulator (typelang.Target), and
// the steady state of a worker — same shapes, chunk after chunk —
// allocates nothing in the map phase at all. Because the work queue
// carries raw byte chunks, lexing itself runs on every worker.

// AbsorbFromTokens types exactly one JSON value read from tr straight
// into acc — the fused map phase: the document's structure lands in the
// accumulator's union buckets and in-place field tables without an
// intermediate canonical node. It returns io.EOF when the stream holds
// no further value, and a *jsontext.SyntaxError (with absolute offset)
// on malformed input; on an error the accumulator is left exactly as it
// was (the partial document contributes nothing). Any
// jsontext.TokenSource feeds it: production hands it the mison
// structural-index tokenizer, the tests also the reference lexer.
func AbsorbFromTokens(tr jsontext.TokenSource, acc *typelang.Accum) error {
	tok, err := tr.ReadTokenSkipString()
	if err != nil {
		return err
	}
	if tok.Kind == jsontext.TokEOF {
		return io.EOF
	}
	return absorbValue(tr, tok, acc.Doc(), 0)
}

// absorbValue absorbs the value beginning at tok into dst, pulling the
// rest of its tokens from tr. The grammar enforced is exactly the
// parser's, so the token path and the DOM path accept and reject the
// same inputs at the same offsets.
func absorbValue(tr jsontext.TokenSource, tok jsontext.Token, dst typelang.Target, depth int) error {
	if depth > jsontext.MaxDepth {
		return &jsontext.SyntaxError{Offset: tok.Offset, Msg: depthMsg}
	}
	switch tok.Kind {
	case jsontext.TokNull:
		dst.AbsorbKind(typelang.KNull)
		return nil
	case jsontext.TokTrue, jsontext.TokFalse:
		dst.AbsorbKind(typelang.KBool)
		return nil
	case jsontext.TokNumber:
		if numIsInt(tok.Num) {
			dst.AbsorbKind(typelang.KInt)
		} else {
			dst.AbsorbKind(typelang.KNum)
		}
		return nil
	case jsontext.TokString:
		dst.AbsorbKind(typelang.KStr)
		return nil
	case jsontext.TokBeginArray:
		return absorbArray(tr, dst, depth)
	case jsontext.TokBeginObject:
		return absorbObject(tr, dst, depth)
	case jsontext.TokEOF:
		return &jsontext.SyntaxError{Offset: tok.Offset, Msg: "unexpected end of input, want value"}
	default:
		return &jsontext.SyntaxError{Offset: tok.Offset, Msg: "unexpected " + tok.Kind.String() + ", want value"}
	}
}

// depthMsg mirrors the parser's nesting-limit message, derived from the
// same constant so the token and DOM paths can never desync.
var depthMsg = fmt.Sprintf("nesting depth exceeds %d", jsontext.MaxDepth)

// numIsInt is jsonvalue.Value.IsInt on a bare float64: integral, finite,
// and small enough that float64 represents it exactly.
func numIsInt(f float64) bool {
	return f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < 1<<53
}

// absorbArray absorbs array elements after the consumed '[' straight
// into the array bucket's element collection; the array commits at ']'
// with the observed length, and any error aborts the frame so the
// accumulator keeps only complete documents.
func absorbArray(tr jsontext.TokenSource, dst typelang.Target, depth int) error {
	elem := dst.BeginArray()
	tok, err := tr.ReadTokenSkipString()
	if err != nil {
		dst.AbortArray()
		return err
	}
	if tok.Kind == jsontext.TokEndArray {
		dst.EndArray(0)
		return nil
	}
	n := 0
	for {
		if err := absorbValue(tr, tok, elem, depth+1); err != nil {
			dst.AbortArray()
			return err
		}
		n++
		sep, err := tr.ReadTokenSkipString()
		if err != nil {
			dst.AbortArray()
			return err
		}
		switch sep.Kind {
		case jsontext.TokComma:
			if tok, err = tr.ReadTokenSkipString(); err != nil {
				dst.AbortArray()
				return err
			}
		case jsontext.TokEndArray:
			dst.EndArray(n)
			return nil
		default:
			dst.AbortArray()
			return &jsontext.SyntaxError{Offset: sep.Offset, Msg: "unexpected " + sep.Kind.String() + " in array, want ',' or ']'"}
		}
	}
}

// absorbObject absorbs object members after the consumed '{' into an
// open record staged on the accumulator. Field names are read in
// decoding mode (they are the record labels); field values absorb
// token-by-token into their staged slots. Duplicate names keep the
// effective last-binding view, matching TypeOf. The record commits at
// '}' — group lookup and the in-place field-table merge happen once,
// there — and any error aborts the frame.
func absorbObject(tr jsontext.TokenSource, dst typelang.Target, depth int) error {
	tok, err := tr.ReadToken()
	if err != nil {
		return err
	}
	rec := dst.BeginRecord()
	if tok.Kind == jsontext.TokEndObject {
		dst.EndRecord(rec, nil)
		return nil
	}
	for {
		if tok.Kind != jsontext.TokString {
			rec.Abort()
			return &jsontext.SyntaxError{Offset: tok.Offset, Msg: "unexpected " + tok.Kind.String() + ", want field name string"}
		}
		name := tok.Str
		colon, err := tr.ReadTokenSkipString()
		if err != nil {
			rec.Abort()
			return err
		}
		if colon.Kind != jsontext.TokColon {
			rec.Abort()
			return &jsontext.SyntaxError{Offset: colon.Offset, Msg: "unexpected " + colon.Kind.String() + ", want ':'"}
		}
		valTok, err := tr.ReadTokenSkipString()
		if err != nil {
			rec.Abort()
			return err
		}
		if err := absorbValue(tr, valTok, rec.Field(name), depth+1); err != nil {
			rec.Abort()
			return err
		}
		sep, err := tr.ReadTokenSkipString()
		if err != nil {
			rec.Abort()
			return err
		}
		switch sep.Kind {
		case jsontext.TokComma:
			if tok, err = tr.ReadToken(); err != nil {
				rec.Abort()
				return err
			}
		case jsontext.TokEndObject:
			dst.EndRecord(rec, nil)
			return nil
		default:
			rec.Abort()
			return &jsontext.SyntaxError{Offset: sep.Offset, Msg: "unexpected " + sep.Kind.String() + " in object, want ',' or '}'"}
		}
	}
}

// byteChunk is one run of bytes handed to the map phase — a work unit
// of the parallel shape (whole top-level documents) or a window of the
// sequential one — with the absolute stream offset of its first byte
// for exact error attribution. Reader-path chunks alias a pooled
// chunkBuf and hold a reference on it, released by the consumer once
// the chunk's documents are absorbed; byte-mode chunks alias the
// caller's buffer and carry no reference (buf is nil, release a no-op).
// open marks a window more input follows: it may end inside a document
// (chunkMapper.absorb).
type byteChunk struct {
	index int
	base  int
	data  []byte
	buf   *chunkBuf
	open  bool
}

// source is the input of a streamed run, what newChunkReader builds the
// run's reader from: r, read through pool's buffers, or — r nil — the
// caller-owned slice data, aliased where it sits. sp finds the parallel
// shape's chunk boundaries: nil means a mison.Chunker (the tests put
// their own here).
type source struct {
	r    io.Reader
	pool *chunkPool
	data []byte
	sp   docSplitter
}

// chunkMapper is the map phase of one worker: the index absorber every
// run of bytes goes through, wired once to the run's symbol table, and
// the stats frame the worker records into. Both run shapes drive it. A
// collector keeps its mappers warm between ingests
// (ShardedCollector.mapper), which is what symbols and widest are
// remembered for.
type chunkMapper struct {
	ia      *IndexAbsorber        // the structural index and both walks over it
	symbols *jsontext.SymbolTable // what the absorber interns through
	widest  int                   // longest chunk lexed: the index's bitmaps are that wide
	st      *PipelineStats
	frame   statsFrame
}

func newChunkMapper(opts Options) *chunkMapper {
	m := &chunkMapper{ia: NewIndexAbsorber(), symbols: opts.Symbols, st: opts.Stats}
	m.ia.SetInternStrings(true)
	if opts.Symbols != nil {
		m.ia.SetSymbolTable(opts.Symbols)
	}
	return m
}

// absorb absorbs every document of ch into acc off the structural index
// (a record the index walk cannot certify falls back to the token walk
// over the same index inside AbsorbFromIndex, which words every error)
// and releases the chunk. It returns the number of documents absorbed,
// how many of ch's bytes it consumed and the first error; acc then
// holds exactly the documents before it (a failed document's staged
// frames are aborted). used is all of ch, unless ch is an open window
// whose last record failed with an error more input could cure. That
// record is the straddler: nothing of it was committed, it is no error,
// and used is its first byte — where the next window begins.
func (m *chunkMapper) absorb(ch byteChunk, acc *typelang.Accum) (n, used int, err error) {
	m.widest = max(m.widest, len(ch.data))
	start := statsClock(m.st)
	_ = m.ia.Reset(ch.data, ch.base) // always nil; the result is bench/'s to check
	for err = AbsorbFromIndex(m.ia, acc); err == nil; err = AbsorbFromIndex(m.ia, acc) {
		n++
	}
	idx, fb := m.ia.TakeRecordCounts()
	m.frame.IndexRecords += idx
	m.frame.FallbackRecords += fb
	m.frame.PatternRecords += m.ia.TakePatternRecords()
	m.frame.ScanDelegations += m.ia.TakeScanDelegations()
	statsSince(m.st, &m.frame.MapNanos, start)
	ch.buf.release()
	m.frame.DocsAbsorbed += int64(n)
	used = len(ch.data)
	if errors.Is(err, io.EOF) {
		err = nil
	} else if ch.open && curable(err, ch.base+used) {
		// m.ia.pos is where the record err is about begins.
		m.frame.BytesReindexed += int64(used - m.ia.pos)
		used, err = m.ia.pos, nil
		m.frame.FallbackRecords-- // the walk's bail was the window's end, not the record
	}
	m.frame.BytesLexed += int64(used)
	return n, used, err
}

// curable reports whether more input could cure err, met in a window
// ending at absolute offset end: the lexer's truncation class, or a
// grammar error placed at end itself — only the end-of-input token sits
// there, so it reads "unexpected end of input".
func curable(err error, end int) bool {
	var se *jsontext.SyntaxError
	return errors.As(err, &se) && (se.Truncated() || se.Offset == end)
}

// seal seals acc, counting the seal and booking its time to *clock.
func (f *statsFrame) seal(acc *typelang.Accum, st *PipelineStats, clock *int64) *typelang.Type {
	start := statsClock(st)
	t := acc.Seal()
	statsSince(st, clock, start)
	f.Seals++
	return t
}

// InferStream infers the type of every document on r (NDJSON,
// concatenated or pretty-printed JSON) without materialising values or
// the collection, returning it with the number of documents typed. The
// input is cut into runs of bytes and each run is lexed and absorbed
// straight into a typelang.Accum (chunkMapper.absorb).
//
// Options.Workers alone picks the shape of the run (see run), and
// nothing else depends on it: schema, count and errors are identical in
// both shapes. Either way the run's accumulator is sealed once, at the
// end.
//
// On a malformed document the error carries its absolute stream offset,
// and the returned type and count cover exactly the documents before it
// — work done on later chunks is discarded. A read error from r wins
// over a syntax error in the chunk it truncated.
func InferStream(r io.Reader, opts Options) (*typelang.Type, int, error) {
	return run(source{r: r, pool: new(chunkPool)}, opts)
}

// InferStreamBytes is InferStream over a caller-owned byte slice — the
// zero-copy entry point. Chunks alias data (no pending array, no
// compaction, no per-chunk allocation) and are lexed where they sit, so
// a memory-mapped file streams through without ever being copied. The
// caller keeps data alive and unmodified until the call returns.
// Schema, count and error offsets are identical to InferStream's over a
// reader of the same bytes.
func InferStreamBytes(data []byte, opts Options) (*typelang.Type, int, error) {
	return run(source{data: data}, opts)
}

// run is the one-shot engine behind both entry points, and where its
// shape is decided. One worker is the sequential shape: windows
// (chunking.go) of ChunkBytes, else sequentialChunkBytes — no boundary
// is looked for, and with one worker the windows only bound the index,
// so they are cut large — each absorbed on the caller's goroutine
// straight into the run's accumulator: no goroutine, no per-chunk
// seal, no reduce of chunk types. Several workers are the
// parallel shape: readChunks cuts document-aligned chunks for
// pipeChunks, whose committer absorbs the sealed chunk types into that
// accumulator in stream order. A one-shot run has no reader before its
// end, so either way its accumulator is sealed once, at the end (the
// snapshot-serving, lockable collector is InferStreamInto's, for the
// registry).
func run(src source, opts Options) (*typelang.Type, int, error) {
	st := opts.Stats
	var frame statsFrame
	acc := typelang.NewAccum(opts.Equiv)
	var n int
	var err error
	if opts.workers() <= 1 {
		m := newChunkMapper(opts)
		window := opts.window(sequentialChunkBytes)
		n, err = windows(newChunkReader(src, window, st), window, func(ch byteChunk) (int, int, error) {
			defer m.frame.flush(st)
			return m.absorb(ch, acc)
		})
	} else {
		if src.sp == nil {
			src.sp = mison.NewChunker()
		}
		send, finish := pipeChunks(opts, func(ts []*typelang.Type) {
			start := statsClock(st)
			for _, t := range ts {
				acc.Absorb(t)
			}
			statsSince(st, &frame.ReduceNanos, start)
		})
		targets := opts.chunkTargets()
		n, err = finish(readChunks(newChunkReader(src, targets.bytes, st), targets, src.sp, send))
	}
	t := frame.seal(acc, st, &frame.ReduceNanos)
	frame.flush(st)
	return t, n, err
}

// InferStreamInto is InferStream folding into a caller-owned collector
// instead of a fresh accumulator, which is left open: that is what lets
// a long-lived accumulator (a registry collection) absorb many streams
// — concurrently, even — into one monotonically-growing schema. It
// always runs the sequential shape, whatever opts.Workers says: windows
// of one read block (ChunkBytes overrides), each absorbed on the
// caller's goroutine straight into a shard col lends for that window,
// through a mapper and chunk arrays col keeps warm between calls — so
// it starts no goroutine, seals nothing, and holds no shard for longer
// than one window's absorb, never across a read. It returns the number
// of documents committed and the first error, with exactly
// InferStream's error semantics: on a malformed document the committed
// documents are precisely those before it. Everything committed is in
// col's next Snapshot.
func InferStreamInto(r io.Reader, opts Options, col *ShardedCollector) (int, error) {
	m := col.mapper(opts)
	defer col.release(m)
	window := opts.window(chunkReadSize)
	return windows(newChunkReader(source{r: r, pool: &col.chunks}, window, opts.Stats), window, func(ch byteChunk) (int, int, error) {
		defer m.frame.flush(opts.Stats)
		return col.absorbChunk(m, ch)
	})
}

// chunkResult is what a worker makes of one chunk: the merged type of
// its documents, how many were typed, and the first error hit (with the
// partial type covering the documents before it).
type chunkResult struct {
	index int
	t     *typelang.Type
	n     int
	err   error
}

// commitBatch is how many in-order chunk results the committer buffers
// per commit call: one hand-off to the run's accumulator (one reduce
// clock reading) then carries a batch of sealed partials instead of
// one. Error semantics are unaffected — the buffer holds only
// already-committed (in-order, pre-error) results and is flushed before
// the error is recorded.
const commitBatch = 8

// pipeChunks starts the parallel shape of the engine: workers lexing
// and absorbing the chunks given to send in parallel, each into its own
// accumulator (storage-retaining Reset between chunks, so the steady
// state types documents of seen shapes without allocating) sealed per
// chunk, and a committer that calls commit with batches of chunk types
// (in stream order; ownership of the slice passes to commit). Commits
// stop at the first error — the committed chunks are exactly those
// before it — and send reports false from then on. finish, called with
// the source's read error once it has returned, waits for the committer
// and returns the number of documents committed and that first error.
// Because the workers drain the work channel even after an early stop,
// every emitted chunk is released on every path.
func pipeChunks(opts Options, commit func([]*typelang.Type)) (send func(byteChunk) bool, finish func(error) (int, error)) {
	workers := opts.workers()
	work := make(chan byteChunk, 2*workers)
	results := make(chan chunkResult, workers)
	stop := make(chan struct{})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := newChunkMapper(opts)
			acc := typelang.NewAccum(opts.Equiv)
			for ch := range work {
				acc.Reset()
				n, _, err := m.absorb(ch, acc)
				t := m.frame.seal(acc, opts.Stats, &m.frame.MapNanos)
				m.frame.flush(opts.Stats)
				results <- chunkResult{index: ch.index, t: t, n: n, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Committer: release chunk results in stream order for exact error
	// and count semantics, buffering up to commitBatch in-order results
	// per commit call. The bookkeeping here is cheap — the merge work
	// happens in commit, into the one-shot run's accumulator.
	var (
		pending     = make(map[int]chunkResult)
		next        int
		total       int
		firstErr    error
		firstErrIdx = -1
		stopped     bool
		batch       []*typelang.Type
	)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		commit(batch)
		batch = nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for res := range results {
			pending[res.index] = res
			for {
				cr, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				if firstErr != nil {
					continue
				}
				if batch == nil {
					batch = make([]*typelang.Type, 0, commitBatch)
				}
				batch = append(batch, cr.t)
				total += cr.n
				if len(batch) == commitBatch {
					flush()
				}
				if cr.err != nil {
					flush()
					firstErr = cr.err
					firstErrIdx = cr.index
					if !stopped {
						stopped = true
						close(stop)
					}
				}
			}
		}
		flush()
	}()
	send = func(ch byteChunk) bool {
		select {
		case work <- ch:
			return true
		case <-stop:
			ch.buf.release()
			return false
		}
	}
	finish = func(rerr error) (int, error) {
		close(work)
		<-done
		// A read failure truncates the final chunk, and the syntax error the
		// worker reports on that cut is an artifact of the failed read, not
		// of the data — so the I/O error wins over an error in the last
		// chunk (earlier chunks are complete; their errors are genuine).
		if rerr != nil && (firstErr == nil || firstErrIdx == next-1) {
			firstErr = rerr
		}
		return total, firstErr
	}
	return send, finish
}
