package infer

import (
	"errors"
	"fmt"
	"io"
	"iter"
	"math"
	"runtime"
	"sync"

	"repro/internal/jsontext"
	"repro/internal/mmapio"
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
// carries raw byte chunks, lexing itself runs on every worker. Every
// walk of a window is final in either shape — a document the window's
// end cuts is malformed, and is walked once more through the line after
// the window (chunkMapper.absorb) — so the parallel shape's committer
// only orders the windows' types and stops at the first error.

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

// byteChunk is one window of the input in, handed to the map phase with
// the offset of its first byte within in for exact error attribution.
// It holds a reference on the chunkBuf it aliases — pooled array or
// mapped pages (see windows). next is the length of the line after the
// window, over the same array: 0 marks in's last window, and otherwise
// the line decides the error of a document the window's end cut
// (chunkMapper.absorb). index numbers the windows of a parallel run
// (pipeChunks).
type byteChunk struct {
	index int
	base  int
	data  []byte
	next  int
	buf   *chunkBuf
	in    *chunkReader
}

// source is one input of a streamed run: r, read through pool's
// buffers, or — r nil — a mapped file's pages, aliased where they sit.
// name, if any, prefixes its errors.
type source struct {
	r       io.Reader
	name    string
	pool    *chunkPool
	mapping *mmapio.Mapping
}

// named prefixes err with the name of its input, if that has one.
func named(name string, err error) error {
	if err == nil || name == "" {
		return err
	}
	return fmt.Errorf("%s: %w", name, err)
}

// chunkMapper is the map phase of one worker: the index absorber every
// window goes through, which interns field names in its own bounded
// cache, and the stats frame the worker records into. Both run shapes
// drive it, and each collector shard keeps one warm between ingests
// (ShardedCollector.absorbChunk).
type chunkMapper struct {
	ia    *IndexAbsorber // the structural index and both walks over it
	st    *PipelineStats
	frame statsFrame
}

func newChunkMapper(st *PipelineStats) *chunkMapper {
	m := &chunkMapper{ia: NewIndexAbsorber(), st: st}
	m.ia.SetInternStrings(true)
	return m
}

// absorb absorbs every document of ch into acc off the structural index
// (a record the index walk cannot certify falls back to the token walk
// over the same index inside AbsorbFromIndex, which words every error).
// It returns the number of documents absorbed and the first error; acc
// then holds exactly the documents before it (a failed document's
// staged frames are aborted). The error is final. A window ends only
// where a valid document can end, so a record the window's end cuts —
// the straddler, failing with an error more input could cure — is
// malformed, and its first error lies on the line after the window: the
// straddler is indexed again through that line and walked once, and
// that walk's error is its. A read failure of ch's input wins over the
// result of a walk that reached the input's end, and over no other.
func (m *chunkMapper) absorb(ch byteChunk, acc *typelang.Accum) (n int, err error) {
	start := statsClock(m.st)
	_ = m.ia.Reset(ch.data, ch.base) // always nil; the result is bench/'s to check
	for err = AbsorbFromIndex(m.ia, acc); err == nil; err = AbsorbFromIndex(m.ia, acc) {
		n++
	}
	atEnd := ch.next == 0 // the walk reached the end of its input
	if errors.Is(err, io.EOF) {
		err = nil
	} else if !atEnd && curable(err, ch.base+len(ch.data)) {
		// m.ia.pos is where the straddler begins.
		used := m.ia.pos
		line := ch.data[used : len(ch.data)+ch.next]
		m.frame.FallbackRecords-- // the walk's bail was the window's end, not the record
		m.frame.BytesReindexed += int64(len(ch.data) - used)
		_ = m.ia.Reset(line, ch.base+used)
		if err = AbsorbFromIndex(m.ia, acc); err == nil {
			err = fmt.Errorf("infer: internal error: the document at offset %d completed past a window's cut", ch.base+used)
		}
		atEnd = line[len(line)-1] != '\n'
	}
	_, fb := m.ia.TakeRecordCounts()
	m.frame.FallbackRecords += fb
	m.frame.PatternRecords += m.ia.TakePatternRecords()
	m.frame.ScanDelegations += m.ia.TakeScanDelegations()
	statsSince(m.st, &m.frame.MapNanos, start)
	if atEnd && ch.in.err != nil {
		err = ch.in.err
	}
	return n, err
}

// direct is absorb in the sequential shape: straight into the
// destination accumulator, published per window.
func (m *chunkMapper) direct(ch byteChunk, acc *typelang.Accum) (int, error) {
	defer m.frame.flush(m.st)
	return m.absorb(ch, acc)
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
// input is cut into windows and each is lexed and absorbed straight
// into a typelang.Accum (chunkMapper.absorb).
//
// Options.Workers alone picks the shape of the run (see run), and
// nothing else depends on it: schema, count and errors are identical in
// both shapes. Either way the run's accumulator is sealed once, at the
// end.
//
// On a malformed document the error carries its absolute stream offset,
// and the returned type and count cover exactly the documents before it
// — work done on later windows is discarded. A read error from r wins
// over a syntax error in the bytes before it that it truncated: the last
// window, or the line after a window ending inside a document.
func InferStream(r io.Reader, opts Options) (*typelang.Type, int, error) {
	return run(only(source{r: r, pool: new(chunkPool)}), opts)
}

// InferStreamFiles is InferStream over the named files in turn, one
// collection through one run: a document may not span two files, and
// how a collection is cut into files changes nothing else. Regular
// files of 1 MiB or more are memory-mapped where the platform can, and
// their windows are lexed where they sit, never copied. An
// error is prefixed with its file's name and placed within that file,
// and the type and count returned with it cover exactly the documents
// before it; a file that cannot be opened returns its *fs.PathError.
func InferStreamFiles(names []string, opts Options) (*typelang.Type, int, error) {
	return run(fileSources(names), opts)
}

// only is the sequence of a run's one input.
func only(src source) iter.Seq2[source, error] {
	return func(yield func(source, error) bool) { yield(src, nil) }
}

// run is the one-shot engine behind every entry point, and where its
// shape is decided; it reads the inputs in turn, each through a
// chunkReader of its own. One worker is the sequential shape: windows
// of ChunkBytes, else sequentialChunkBytes, each absorbed on the
// caller's goroutine straight into the run's accumulator — no
// goroutine, no per-window seal, no reduce. Several workers are the
// parallel shape: windows of ChunkBytes, else of DefaultBatch
// documents, for pipeChunks. Either way the accumulator
// is sealed once, at the end (the snapshot-serving collector is
// InferStreamInto's). The first error ends the run, prefixed with its
// input's name; an error opening an input is returned as it is.
func run(inputs iter.Seq2[source, error], opts Options) (*typelang.Type, int, error) {
	st := opts.Stats
	var frame statsFrame
	acc := typelang.NewAccum(opts.Equiv)
	window, docs := opts.window(sequentialChunkBytes), 0
	var direct func(byteChunk) (int, error)
	var finish func(error) (int, error)
	if opts.workers() <= 1 {
		m := newChunkMapper(st)
		direct = func(ch byteChunk) (int, error) { return m.direct(ch, acc) }
	} else {
		if window = opts.window(0); window == 0 {
			docs = opts.batchSize()
		}
		direct, finish = pipeChunks(opts, acc, &frame)
	}
	var n int
	var err error
	for src, openErr := range inputs {
		if err = openErr; err != nil {
			break
		}
		k, werr := windows(newChunkReader(src, window, st), window, docs, direct)
		if n, err = n+k, named(src.name, werr); err != nil {
			break
		}
	}
	if finish != nil {
		n, err = finish(err)
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
// of at least one read block (ChunkBytes overrides), each absorbed on the
// caller's goroutine straight into a shard col lends for that window,
// through that shard's mapper and chunk arrays col keeps warm between
// calls — so it starts no goroutine, seals nothing, and holds no shard
// for longer than one window's absorb, never across a read. It returns
// the number of documents committed and the first error, with exactly
// InferStream's error semantics: on a malformed document the committed
// documents are precisely those before it. Everything committed is in
// col's next Snapshot.
func InferStreamInto(r io.Reader, opts Options, col *ShardedCollector) (int, error) {
	window := opts.window(chunkReadSize)
	return windows(newChunkReader(source{r: r, pool: &col.chunks}, window, opts.Stats), window, 0, func(ch byteChunk) (int, error) {
		return col.absorbChunk(opts.Stats, ch)
	})
}

// chunkResult is what a worker makes of one window: the sealed type of
// the documents its walk absorbed, how many, its first error and the
// counters of the walk and the seal.
type chunkResult struct {
	ch    byteChunk
	t     *typelang.Type
	n     int
	err   error
	frame StatsSnapshot
}

// commitBatch is how many window types the committer buffers per
// hand-off to the run's accumulator (one reduce clock reading per batch
// instead of per window). The buffer is flushed before an error is
// recorded.
const commitBatch = 8

// errStopped is what pipeChunks' send returns once the committer has
// recorded the run's error: windows stops cutting.
var errStopped = errors.New("infer: run stopped")

// pipeChunks starts the parallel shape: workers absorbing the windows
// given to send, each into its own accumulator (Reset between windows,
// so the steady state allocates nothing) sealed per window, and a
// committer folding their types into acc in run order. send numbers the
// windows across the run's inputs, starts worker k with window k (so a
// run starts no more workers than it has windows), keeps a reference on
// each window's buffer for the committer to release, and reports
// errStopped after the first error. finish, called with the error that
// ended the input loop, waits for the workers and the committer and
// returns the number of documents committed — exactly those before the
// first error — and that error.
func pipeChunks(opts Options, acc *typelang.Accum, frame *statsFrame) (send func(byteChunk) (int, error), finish func(error) (int, error)) {
	workers := opts.workers()
	// The buffers are sized for the workers that can run at once, so
	// Workers far above GOMAXPROCS costs nothing it does not use.
	slots := min(workers, runtime.GOMAXPROCS(0))
	work := make(chan byteChunk, 2*slots)
	results := make(chan chunkResult, slots)
	c := &committer{st: opts.Stats, acc: acc, frame: frame, stop: make(chan struct{})}

	var wg sync.WaitGroup
	worker := func() {
		defer wg.Done()
		m := newChunkMapper(opts.Stats)
		acc := typelang.NewAccum(opts.Equiv)
		for ch := range work {
			acc.Reset()
			n, err := m.absorb(ch, acc)
			t := m.frame.seal(acc, opts.Stats, &m.frame.MapNanos)
			r := chunkResult{ch: ch, t: t, n: n, err: err, frame: m.frame.StatsSnapshot}
			m.frame = statsFrame{}
			results <- r
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		pending := make(map[int]chunkResult)
		next := 0
		for res := range results {
			pending[res.ch.index] = res
			for r, ok := pending[next]; ok; r, ok = pending[next] {
				delete(pending, next)
				next++
				c.commit(r)
				r.ch.buf.release()
			}
		}
		c.flush()
	}()
	sent := 0
	send = func(ch byteChunk) (int, error) {
		ch.index, sent = sent, sent+1
		if ch.index < workers {
			wg.Add(1)
			go worker()
		}
		ch.buf.acquire()
		select {
		case work <- ch:
			return 0, nil
		case <-c.stop:
			ch.buf.release()
			return 0, errStopped
		}
	}
	finish = func(rerr error) (int, error) {
		close(work)
		wg.Wait()
		close(results)
		<-done
		// An error no window carried — an input that failed to open, or
		// to read before its first window — follows every window sent.
		if c.err == nil {
			c.err = rerr
		}
		return c.total, c.err
	}
	return send, finish
}

// committer is the parallel shape's reduce. Every window up to the
// first error begins at a document — the first does, and a window whose
// walk found no error ended where a document did — so each worker's
// walk is the sequential shape's, error included: the committer only
// orders the windows, batches their types and stops at the first error.
type committer struct {
	st    *PipelineStats
	acc   *typelang.Accum
	frame *statsFrame // the run's: the reduce clock and the workers' counters
	stop  chan struct{}
	batch []*typelang.Type // window types not yet in acc

	total int
	err   error
}

// commit books r, the next window in run order: its documents, its type
// and its counters, and its error, which ends the run. Of a window after
// the error only the clock and the seal count, the work that was really
// done — its records, fallbacks and delegations were never the run's.
func (c *committer) commit(r chunkResult) {
	if c.err != nil {
		c.frame.MapNanos += r.frame.MapNanos
		c.frame.Seals += r.frame.Seals
		return
	}
	c.frame.Add(r.frame)
	c.total += r.n
	c.batch = append(c.batch, r.t)
	if len(c.batch) == commitBatch || r.err != nil {
		c.flush()
	}
	if r.err != nil {
		c.err = named(r.ch.in.name, r.err)
		close(c.stop)
	}
}

// flush absorbs the buffered window types into the run's accumulator.
func (c *committer) flush() {
	if len(c.batch) == 0 {
		return
	}
	start := statsClock(c.st)
	for _, t := range c.batch {
		c.acc.Absorb(t)
	}
	statsSince(c.st, &c.frame.ReduceNanos, start)
	c.batch = c.batch[:0]
}
