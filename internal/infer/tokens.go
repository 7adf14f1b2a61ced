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

// This file is the token-only inference path: the map phase of the
// paper's map/reduce needs the *type* of each document, never its value,
// so documents are typed straight from the lexer's tokens. Since the
// fused-map refactor it does not even materialise a canonical type per
// document: AbsorbFromTokens lands each document's structure directly in
// the worker's chunk accumulator (typelang.Target), so the steady state
// of a worker — same shapes, chunk after chunk — allocates nothing in
// the map phase at all. Compared to the DOM path (jsontext.Decoder →
// TypeOf) it allocates no value nodes, no element slices and no
// value-string payloads — and because the work queue carries raw byte
// chunks instead of pre-parsed values, lexing itself runs on every
// worker instead of serialising on the decoder goroutine.

// AbsorbFromTokens types exactly one JSON value read from tr straight
// into acc — the fused map phase: the document's structure lands in the
// accumulator's union buckets and in-place field tables without an
// intermediate canonical node. It returns io.EOF when the stream holds
// no further value, and a *jsontext.SyntaxError (with absolute offset)
// on malformed input; on an error the accumulator is left exactly as it
// was (the partial document contributes nothing). Any
// jsontext.TokenSource feeds it: the reference TokenReader or the mison
// structural-index tokenizer.
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

// TypeFromTokens types exactly one JSON value read from tr, returning
// its canonical per-document type — equivalent to jsontext parse
// followed by TypeOf but with no intermediate value tree. It is the
// thin compatibility wrapper over AbsorbFromTokens: absorb into a fresh
// accumulator, seal (the MergeAll of one document is the document's
// type). The streamed engines use AbsorbFromTokens directly.
func TypeFromTokens(tr jsontext.TokenSource, e typelang.Equiv) (*typelang.Type, error) {
	acc := typelang.NewAccum(e)
	if err := AbsorbFromTokens(tr, acc); err != nil {
		return nil, err
	}
	return acc.Seal(), nil
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
		dst.EndRecord(rec)
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
			dst.EndRecord(rec)
			return nil
		default:
			rec.Abort()
			return &jsontext.SyntaxError{Offset: sep.Offset, Msg: "unexpected " + sep.Kind.String() + " in object, want ',' or '}'"}
		}
	}
}

// streamFold is the per-worker fold state of the token engines: the
// chunk accumulator every document is absorbed into — one accumulator
// per worker for its whole lifetime, Reset (storage-retaining) between
// chunks, so the steady state types documents of seen shapes without
// allocating. Under MapReference each document detours through a
// per-document scratch accumulator and its sealed canonical type, the
// old map discipline kept selectable as the A/B baseline.
type streamFold struct {
	mode MapMode
	fold *typelang.Accum
	doc  *typelang.Accum // MapReference only: per-document scratch
}

func newStreamFold(opts Options) *streamFold {
	sf := &streamFold{mode: opts.Map, fold: typelang.NewAccum(opts.Equiv)}
	if sf.mode == MapReference {
		sf.doc = typelang.NewAccum(opts.Equiv)
	}
	return sf
}

// run types every document on tr, absorbing each into the chunk
// accumulator, and seals once at the end — the accumulate → seal shape
// of the reduce. On an error the sealed type covers exactly the
// documents typed before it (the partial document is discarded: the
// fused walker aborts its staged frames, and the reference mode's
// partial document never leaves its scratch accumulator).
func (sf *streamFold) run(tr jsontext.TokenSource) (*typelang.Type, int, error) {
	sf.fold.Reset()
	n := 0
	for {
		var err error
		if sf.mode == MapReference {
			sf.doc.Reset()
			if err = AbsorbFromTokens(tr, sf.doc); err == nil {
				sf.fold.Absorb(sf.doc.Seal())
			}
		} else {
			err = AbsorbFromTokens(tr, sf.fold)
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = nil
			}
			return sf.fold.Seal(), n, err
		}
		n++
	}
}

// runIndexed is run driving the index-driven walker instead of a token
// source: every document of the absorber's chunk absorbs straight off
// the structural index into the chunk accumulator (MapIndexed is
// always fused — the per-document reference mode has no index
// variant). Error and partial-type semantics are identical to run's.
func (sf *streamFold) runIndexed(a *IndexAbsorber) (*typelang.Type, int, error) {
	sf.fold.Reset()
	n := 0
	for {
		if err := AbsorbFromIndex(a, sf.fold); err != nil {
			if errors.Is(err, io.EOF) {
				err = nil
			}
			return sf.fold.Seal(), n, err
		}
		n++
	}
}

// InferStream types every document on r straight from tokens, without
// materialising values or the collection — the sequential token engine.
// It returns the inferred type and the number of documents typed; on a
// syntax or I/O error the returned type covers every document typed
// before it, and syntax errors carry absolute stream offsets.
//
// Map: MapIndexed is honoured: the structural index needs whole byte
// chunks, so the stream routes through a chunk-buffering loop that
// absorbs each document-aligned chunk off the index into one shared
// accumulator, sealed once — still the sequential accumulate → seal
// shape, with schemas, counts and error offsets byte-identical to the
// token walk's.
func InferStream(r io.Reader, opts Options) (*typelang.Type, int, error) {
	if opts.Map == MapIndexed {
		opts = sequentialChunkOpts(opts)
		return inferStreamSequentialChunks(readerChunkSource(r, opts), opts)
	}
	tr := jsontext.NewTokenReader(r)
	tr.SetInternStrings(true)
	if opts.Symbols != nil {
		tr.SetSymbolTable(opts.Symbols)
	}
	st := opts.Stats
	start := statsClock(st)
	t, n, err := newStreamFold(opts).run(tr)
	if st != nil {
		// The sequential engine has no chunking; the whole stream is one
		// map fold sealed once, with the lexer's input offset standing in
		// for the chunked engines' emitted-bytes count.
		var frame statsFrame
		statsSince(st, &frame.MapNanos, start)
		frame.BytesLexed = int64(tr.InputOffset())
		frame.DocsAbsorbed = int64(n)
		frame.Seals = 1
		frame.ReaderInputs = 1
		frame.flush(st)
	}
	return t, n, err
}

// InferStreamBytes is InferStream over a caller-owned byte slice — the
// zero-copy sequential engine. The lexer walks data in place (nothing
// is buffered or copied; the caller keeps data alive and unmodified for
// the duration of the call), so a memory-mapped file types at exactly
// the cost of lexing it. Semantics are byte-identical to
// InferStream(bytes.NewReader(data), opts): same schema, count, and
// error offsets.
func InferStreamBytes(data []byte, opts Options) (*typelang.Type, int, error) {
	if opts.Map == MapIndexed {
		opts = sequentialChunkOpts(opts)
		return inferStreamSequentialChunks(bytesChunkSource(data, opts), opts)
	}
	tr := jsontext.NewTokenReaderBytes(data)
	tr.SetInternStrings(true)
	if opts.Symbols != nil {
		tr.SetSymbolTable(opts.Symbols)
	}
	st := opts.Stats
	start := statsClock(st)
	t, n, err := newStreamFold(opts).run(tr)
	if st != nil {
		var frame statsFrame
		statsSince(st, &frame.MapNanos, start)
		frame.BytesLexed = int64(tr.InputOffset())
		// Everything lexed was read in place from the caller's buffer.
		frame.BytesAliased = frame.BytesLexed
		frame.DocsAbsorbed = int64(n)
		frame.Seals = 1
		frame.flush(st)
	}
	return t, n, err
}

// byteChunk is one work unit of the parallel token engine: a run of
// whole top-level documents, with the absolute stream offset of its
// first byte for exact error attribution. Reader-path chunks alias a
// pooled chunkBuf and hold a reference on it, released by the consumer
// once the chunk's documents are absorbed; byte-mode chunks alias the
// caller's buffer and carry no reference (buf is nil, release a no-op).
type byteChunk struct {
	index int
	base  int
	data  []byte
	buf   *chunkBuf
}

// chunkSource drives the chunking stage of a streamed engine: it calls
// emit once per document-aligned chunk, in stream order, stopping when
// emit reports false, and returns the input's read error (nil for
// in-memory sources). The two implementations are the pooled io.Reader
// splitter and the zero-copy byte splitter; everything downstream —
// workers, committer, the sequential indexed loop — is shared.
type chunkSource func(emit func(byteChunk) bool) error

// readerChunkSource chunks r through readChunks' pooled buffers.
func readerChunkSource(r io.Reader, opts Options) chunkSource {
	return func(emit func(byteChunk) bool) error {
		return readChunks(r, opts.chunkTargets(), newSplitter(opts.Tokenizer), opts.Stats, emit)
	}
}

// bytesChunkSource chunks a caller-owned slice zero-copy through
// splitChunksBytes.
func bytesChunkSource(data []byte, opts Options) chunkSource {
	return func(emit func(byteChunk) bool) error {
		return splitChunksBytes(data, opts.chunkTargets(), newSplitter(opts.Tokenizer), opts.Stats, emit)
	}
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

// InferStreamParallel overlaps chunking with lexing AND typing: the
// reader goroutine only splits the stream into runs of whole documents
// (boundary finding never lands inside a document even for multi-line
// layouts), and the workers do everything else — lex, type, and reduce
// — in parallel. This is the engine change that makes decode throughput
// scale with workers: the old pipeline parsed full value trees on one
// goroutine and parallelised only the typing.
//
// Options.Tokenizer picks the lexing machinery: TokenizerMison (the
// default) finds chunk boundaries with mison.Chunker's structural
// bitmaps and lexes chunks through mison.TokenSource, falling back to
// the reference lexer on any chunk the structural index rejects;
// TokenizerScan walks every byte through the reference lexer.
// Options.Map picks the map phase: MapFused (the default) absorbs
// documents straight into the worker's chunk accumulator, MapReference
// materialises the per-document canonical type first. All combinations
// produce identical schemas, counts and errors.
//
// Chunk results are committed in stream order, so the outcome is exact:
// the returned type and document count are identical to InferStream's,
// and on a malformed document the error (with absolute offset) plus the
// count cover precisely the documents before it — work done on later
// chunks is discarded. The committer goroutine absorbs the committed
// chunk types into a single accumulator and seals it once at the end of
// the stream: one reduce, one result.
//
// With a single worker there is no parallelism to buy, so the entry
// point delegates to the cheapest sequential engine for the requested
// shape: the plain token fold for scan input, the chunk-buffering
// single-accumulator loop for mison or indexed input (one seal for the
// whole stream instead of a seal per chunk plus a reduce of the chunk
// types). MapReference keeps the worker pipeline even at one worker —
// its per-document type materialisation is the A/B baseline the fused
// rows are measured against.
func InferStreamParallel(r io.Reader, opts Options) (*typelang.Type, int, error) {
	workers := opts.workers()
	if workers <= 1 {
		if opts.Tokenizer == TokenizerScan && opts.Map != MapIndexed {
			return InferStream(r, opts)
		}
		if opts.Map != MapReference {
			opts = sequentialChunkOpts(opts)
			return inferStreamSequentialChunks(readerChunkSource(r, opts), opts)
		}
	}
	return inferStreamParallelFrom(readerChunkSource(r, opts), opts)
}

// InferStreamParallelBytes is InferStreamParallel over a caller-owned
// byte slice — the zero-copy parallel engine. The chunking stage splits
// data in place (every chunk aliases the caller's buffer; no pending
// array, no compaction, no per-chunk allocation), so the reader
// goroutine's only work is boundary finding and the workers lex the
// input bytes exactly where they sit — a memory-mapped file streams
// through the full parallel pipeline without ever being copied. The
// caller keeps data alive and unmodified until the call returns.
// Semantics are byte-identical to InferStreamParallel over a reader of
// the same bytes: same schema, count, and error offsets.
func InferStreamParallelBytes(data []byte, opts Options) (*typelang.Type, int, error) {
	workers := opts.workers()
	if workers <= 1 {
		if opts.Tokenizer == TokenizerScan && opts.Map != MapIndexed {
			return InferStreamBytes(data, opts)
		}
		if opts.Map != MapReference {
			opts = sequentialChunkOpts(opts)
			return inferStreamSequentialChunks(bytesChunkSource(data, opts), opts)
		}
	}
	return inferStreamParallelFrom(bytesChunkSource(data, opts), opts)
}

// inferStreamParallelFrom is the engine body shared by the reader and
// byte-slice parallel entry points: the chunk source feeds the worker
// pool, and the committer absorbs each in-order chunk type into one
// accumulator, sealed once when the stream ends. A one-shot run has no
// reader before that final seal, so nothing is published on the way (the
// snapshot-serving collector tree is InferStreamInto's, for the
// registry).
func inferStreamParallelFrom(source chunkSource, opts Options) (*typelang.Type, int, error) {
	st := opts.Stats
	var frame statsFrame
	acc := typelang.NewAccum(opts.Equiv)
	n, err := inferStreamChunks(source, opts, func(ts []*typelang.Type, _ int) {
		start := statsClock(st)
		for _, t := range ts {
			acc.Absorb(t)
		}
		statsSince(st, &frame.ReduceNanos, start)
	})
	start := statsClock(st)
	t := acc.Seal()
	statsSince(st, &frame.ReduceNanos, start)
	if st != nil {
		frame.Seals++
		frame.flush(st)
	}
	return t, n, err
}

// InferStreamInto is InferStreamParallel folding into a caller-owned
// collector tree instead of a fresh one: committed chunk results are
// handed to col in stream order (batched — one channel send per commit
// batch) and the collector is left open, which is what lets a
// long-lived accumulator (a registry collection) absorb many streams —
// concurrently, even — into one monotonically-growing schema. It
// returns the number of documents committed and the first error, with
// exactly InferStreamParallel's error semantics: on a malformed
// document the committed documents are precisely those before it. The
// caller flushes or closes col to observe the result.
func InferStreamInto(r io.Reader, opts Options, col *ShardedCollector) (int, error) {
	return inferStreamChunks(readerChunkSource(r, opts), opts, func(ts []*typelang.Type, docs int) {
		col.AddBatch(ts, int64(docs))
	})
}

// commitBatch is how many in-order chunk results the committer buffers
// per commit call: one collector hand-off (one channel send, one
// round-robin step) then carries a batch of sealed partials instead of
// one, cutting the per-chunk commit overhead that contributed to the
// parallel engines' flat scaling. Error semantics are unaffected — the
// buffer holds only already-committed (in-order, pre-error) results and
// is flushed before the error is recorded.
const commitBatch = 8

// inferStreamChunks runs the chunked token pipeline — a source
// goroutine splitting the input into document-aligned chunks, workers
// lexing and typing them in parallel — and calls commit with batches of
// chunk types (in stream order; ownership of the slice passes to
// commit). Commits stop at the first error; the committed chunks are
// exactly those before it. It returns the number of documents committed
// and that first error. Workers release each chunk's pooled buffer
// reference once its documents are absorbed; because they drain the
// work channel even after an early stop, every emitted chunk is
// released on every path.
func inferStreamChunks(source chunkSource, opts Options, commit func([]*typelang.Type, int)) (int, error) {
	workers := opts.workers()
	work := make(chan byteChunk, 2*workers)
	results := make(chan chunkResult, workers)
	stop := make(chan struct{})

	// Source: split the input into document-aligned chunks.
	readErrCh := make(chan error, 1)
	go func() {
		readErrCh <- source(func(ch byteChunk) bool {
			select {
			case work <- ch:
				return true
			case <-stop:
				ch.buf.release()
				return false
			}
		})
		close(work)
	}()

	// Workers: lex and type whole chunks, reducing in batches.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := jsontext.NewTokenReaderBytes(nil)
			tr.SetInternStrings(true)
			if opts.Symbols != nil {
				tr.SetSymbolTable(opts.Symbols)
			}
			var ms *mison.TokenSource
			if opts.Tokenizer == TokenizerMison {
				ms = mison.NewTokenSource()
				ms.SetInternStrings(true)
				if opts.Symbols != nil {
					ms.SetSymbolTable(opts.Symbols)
				}
			}
			var ia *IndexAbsorber
			if opts.Map == MapIndexed {
				ia = NewIndexAbsorber()
				ia.SetInternStrings(true)
				if opts.Symbols != nil {
					ia.SetSymbolTable(opts.Symbols)
				}
			}
			fold := newStreamFold(opts)
			st := opts.Stats
			var frame statsFrame
			for ch := range work {
				frame.BytesLexed += int64(len(ch.data))
				rejected := false
				if ia != nil {
					if err := ia.Reset(ch.data, ch.base); err == nil {
						mapStart := statsClock(st)
						t, n, err := fold.runIndexed(ia)
						statsSince(st, &frame.MapNanos, mapStart)
						ch.buf.release()
						if st != nil {
							idx, fb := ia.TakeRecordCounts()
							frame.IndexRecords += idx
							frame.FallbackRecords += fb
							frame.ScanDelegations += ia.TakeScanDelegations()
							frame.DocsAbsorbed += int64(n)
							frame.Seals++
							frame.flush(st)
						}
						results <- chunkResult{index: ch.index, t: t, n: n, err: err}
						continue
					}
					// Index rejected the chunk outright (odd quote
					// parity, unbalanced nesting): the token path below
					// reports the authoritative error.
					rejected = true
				}
				var src jsontext.TokenSource
				if ms != nil {
					if err := ms.Reset(ch.data, ch.base); err == nil {
						src = ms
					} else {
						// On rejection the plain lexer below reports the
						// authoritative error for whatever is wrong.
						rejected = true
					}
				}
				if rejected {
					// One reject per chunk, however many index layers
					// bounced it before the token path took over.
					frame.ParityRejects++
				}
				if src == nil {
					tr.ResetBytes(ch.data, ch.base)
					src = tr
				}
				mapStart := statsClock(st)
				t, n, err := fold.run(src)
				statsSince(st, &frame.MapNanos, mapStart)
				ch.buf.release()
				if st != nil {
					if src == ms {
						frame.ScanDelegations += ms.TakeDelegations()
					}
					frame.DocsAbsorbed += int64(n)
					frame.Seals++
					frame.flush(st)
				}
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
	// happens in commit (the one-shot run's accumulator, or the
	// registry's collector tree).
	var (
		pending     = make(map[int]chunkResult)
		next        int
		total       int
		firstErr    error
		firstErrIdx = -1
		stopped     bool
		batch       []*typelang.Type
		batchDocs   int
	)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		commit(batch, batchDocs)
		batch, batchDocs = nil, 0
	}
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
			batchDocs += cr.n
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
	// A read failure truncates the final chunk, and the syntax error the
	// worker reports on that cut is an artifact of the failed read, not
	// of the data — so the I/O error wins over an error in the last
	// chunk (earlier chunks are complete; their errors are genuine).
	if rerr := <-readErrCh; rerr != nil && (firstErr == nil || firstErrIdx == next-1) {
		firstErr = rerr
	}
	return total, firstErr
}

// inferStreamSequentialChunks is the sequential engine for the map
// shapes that need whole byte chunks — the chunk-buffering loop that
// closes the gap between "the structural index (and the mison lexer)
// need document-aligned byte runs" and "the sequential engine has no
// chunks": the source's chunks are absorbed one after another,
// synchronously, into a single shared accumulator, sealed once at the
// end — no per-chunk seal, no reduce of chunk types. Under MapIndexed
// documents absorb off the structural index, with chunks the index
// rejects outright falling back to the token path (mison tokenizer
// first when selected, then the reference lexer) and per-record
// fallback inside AbsorbFromIndex; under MapFused the chunks lex
// straight through the mison tokenizer (reference lexer on rejected
// chunks) — exactly the parallel workers' discipline, so schemas,
// counts, and error offsets are byte-identical to every other mode's.
// Processing stops at the first error; a read failure from the source
// wins over a syntax error in the chunk it truncated, matching the
// chunked committer's rule (the stop-at-first-error discipline makes
// the errored chunk the last one the source emitted).
func inferStreamSequentialChunks(source chunkSource, opts Options) (*typelang.Type, int, error) {
	st := opts.Stats
	var ia *IndexAbsorber
	if opts.Map == MapIndexed {
		ia = NewIndexAbsorber()
		ia.SetInternStrings(true)
	}
	tr := jsontext.NewTokenReaderBytes(nil)
	tr.SetInternStrings(true)
	var ms *mison.TokenSource
	if opts.Tokenizer == TokenizerMison {
		ms = mison.NewTokenSource()
		ms.SetInternStrings(true)
	}
	if opts.Symbols != nil {
		tr.SetSymbolTable(opts.Symbols)
		if ia != nil {
			ia.SetSymbolTable(opts.Symbols)
		}
		if ms != nil {
			ms.SetSymbolTable(opts.Symbols)
		}
	}
	fold := typelang.NewAccum(opts.Equiv)
	var (
		frame  statsFrame
		total  int
		docErr error
	)
	rerr := source(func(ch byteChunk) bool {
		frame.BytesLexed += int64(len(ch.data))
		var (
			n    int
			err  error
			done bool
		)
		mapStart := statsClock(st)
		rejected := false
		if ia != nil {
			if ierr := ia.Reset(ch.data, ch.base); ierr == nil {
				for err = AbsorbFromIndex(ia, fold); err == nil; err = AbsorbFromIndex(ia, fold) {
					n++
				}
				statsSince(st, &frame.MapNanos, mapStart)
				if st != nil {
					idx, fb := ia.TakeRecordCounts()
					frame.IndexRecords += idx
					frame.FallbackRecords += fb
					frame.ScanDelegations += ia.TakeScanDelegations()
				}
				done = true
			} else {
				rejected = true
			}
		}
		if !done {
			var src jsontext.TokenSource
			if ms != nil {
				if merr := ms.Reset(ch.data, ch.base); merr == nil {
					src = ms
				} else {
					// On rejection the plain lexer below reports the
					// authoritative error for whatever is wrong.
					rejected = true
				}
			}
			if rejected {
				// One reject per chunk, however many index layers
				// bounced it before the token path took over.
				frame.ParityRejects++
			}
			if src == nil {
				tr.ResetBytes(ch.data, ch.base)
				src = tr
			}
			for err = AbsorbFromTokens(src, fold); err == nil; err = AbsorbFromTokens(src, fold) {
				n++
			}
			statsSince(st, &frame.MapNanos, mapStart)
			if st != nil && src == ms {
				frame.ScanDelegations += ms.TakeDelegations()
			}
		}
		ch.buf.release()
		total += n
		if st != nil {
			frame.DocsAbsorbed += int64(n)
			frame.flush(st)
		}
		if errors.Is(err, io.EOF) {
			return true
		}
		docErr = err
		return false
	})
	sealStart := statsClock(st)
	t := fold.Seal()
	if st != nil {
		statsSince(st, &frame.MapNanos, sealStart)
		frame.Seals = 1
		frame.flush(st)
	}
	if rerr != nil {
		docErr = rerr
	}
	return t, total, docErr
}
