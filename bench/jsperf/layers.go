package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/daemon/intake"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/mison"
	"repro/internal/registry"
	"repro/internal/typelang"
)

// The traced run times every layer in process, on the corpus of the
// workload, with spans recorded around the calls into the layer's
// public functions. A repetition is one trace; a layer's figure is the
// floor estimate over its repetitions at the reference clock.

const (
	minReps = 3  // repetitions every layer gets whatever the time
	maxReps = 40 // and the most it takes when time is left
	// splitBlock is the read size the chunker is fed in.
	splitBlock = 64 << 10
	// scaleFactor is how much larger the corpus of infer.size_scaling is.
	scaleFactor = 4
)

// layerShares divides the run's seconds between the layers.
var layerShares = map[string]float64{
	"cli":           0.05,
	"daemon":        0.15,
	"split":         0.02,
	"lex":           0.05,
	"jlex":          0.05,
	"absorb":        0.06,
	"absorb_tokens": 0.06,
	"absorb_index":  0.05,
	"merge":         0.03,
	"collector":     0.03,
	"infer":         0.17,
	"infer_stats":   0.06,
	"scaling":       0.12,
	"intake":        0.02,
	"registry":      0.08,
}

type layers struct {
	e      *env
	f      *fixture
	rec    *recorder
	cfg    runConfig
	total  time.Duration
	chunks [][]byte // the corpus cut every infer.DefaultBatch documents
	bases  []int    // offset of every chunk
	// chunked says which of its two shapes the engine's map phase has
	// under the workload's options. One worker absorbs every chunk into
	// a single accumulator and seals it once; several workers each empty
	// their accumulator, absorb a chunk and seal it, and the chunk types
	// go to the collector. The map-side layers are timed in that shape.
	chunked bool
	workers int // how many accumulators share the chunks

	out   map[string]metric
	notes []string
	fail  error // the first failed correctness check
	// attempted and failed count the ops run from outside the program.
	attempted, failed int

	chase   *chaseKernel
	chaseMs []float64
	cliOps  []timing  // every cold CLI op of the run
	serveMs []float64 // wall of every daemon op, as measured
	post0   []timing  // POSTs of the first body to the warm daemon

	// Figures later layers build on, in seconds at the reference clock.
	lex, absorb, absorbTokens, seal float64
	collected                       repeated
	chunkTypes                      []*typelang.Type
}

// check keeps the first failure of a correctness check.
func (l *layers) check(err error) {
	if l.fail == nil && err != nil {
		l.fail = err
	}
}

// sameAsOracle checks a schema some layer produced.
func (l *layers) sameAsOracle(what string, t *typelang.Type) {
	if t.String()+"\n" != l.f.oracle {
		l.check(fmt.Errorf("%s differs from the oracle", what))
	}
}

func (l *layers) set(name string, v float64, unit string) { l.out[name] = metric{Value: v, Unit: unit} }
func (l *layers) note(format string, a ...any)            { l.notes = append(l.notes, fmt.Sprintf(format, a...)) }

// repeated is the outcome of one layer: the timings of every quantity
// its repetitions measured.
type repeated struct {
	parts [][]timing
	n     int
}

// secs is the floor estimate of the i-th quantity, in seconds at the
// reference clock; cpuSecs is that of the CPU time of the whole process
// over a repetition.
func (r repeated) secs(i int) float64 { return floor(r.parts[i], timing.refSeconds) }
func (r repeated) cpuSecs() float64   { return floor(r.parts[0], timing.refCPU) }

// repeat runs one layer: rep is called once per repetition, inside a
// span called name, and returns the durations that count, one per
// quantity the layer reports; nil means the whole repetition is the one
// quantity. All of a repetition's quantities share its clock readings.
func (l *layers) repeat(name, share string, rep func() []time.Duration) repeated {
	return l.repeatThen(name, share, rep, nil)
}

// repeatThen is repeat with a step after every repetition, outside its
// span and clock readings: then gets the repetition's quantities in
// seconds at the reference clock.
func (l *layers) repeatThen(name, share string, rep func() []time.Duration, then func(secs []float64)) repeated {
	deadline := time.Now().Add(time.Duration(float64(l.total) * layerShares[share]))
	lo, hi := minReps, maxReps
	if l.cfg.reps > 0 {
		lo, hi = l.cfg.reps, l.cfg.reps
	}
	var r repeated
	for r.n < lo || (r.n < hi && time.Now().Before(deadline)) {
		l.rec.nextTrace()
		var counted []time.Duration
		cpu0 := selfCPU()
		t := timed(func() {
			id := l.rec.begin(name)
			counted = rep()
			if d := l.rec.end(id); counted == nil {
				counted = []time.Duration{d}
			}
		})
		t.cpu = selfCPU() - cpu0
		if r.parts == nil {
			r.parts = make([][]timing, len(counted))
		}
		secs := make([]float64, len(counted))
		for i, d := range counted {
			t.wall = d
			r.parts[i] = append(r.parts[i], t)
			secs[i] = t.refSeconds()
		}
		r.n++
		if then != nil {
			then(secs)
		}
	}
	return r
}

// selfCPU is the user plus system CPU time of this process so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// span times one call as a child span and returns its duration.
func (l *layers) span(name string, f func()) time.Duration {
	id := l.rec.begin(name)
	f()
	return l.rec.end(id)
}

// replay is a jsontext.TokenSource over tokens lexed beforehand, so
// that absorption can be timed without the lexer.
type replay struct {
	toks []jsontext.Token
	next int
	end  int // offset reported once the tokens are used up
}

func (r *replay) ReadToken() (jsontext.Token, error) {
	if r.next == len(r.toks) {
		return jsontext.Token{Kind: jsontext.TokEOF, Offset: r.end}, nil
	}
	r.next++
	return r.toks[r.next-1], nil
}

func (r *replay) ReadTokenSkipString() (jsontext.Token, error) { return r.ReadToken() }

func (r *replay) InputOffset() int {
	if r.next == len(r.toks) {
		return r.end
	}
	return r.toks[r.next].Offset
}

// lexAll reads src to its end the way infer.AbsorbFromTokens reads it:
// field names decoded with ReadToken, since they become record labels,
// and everything else with ReadTokenSkipString. It hands every token to
// emit, when that is not nil, and returns their number.
func lexAll(src jsontext.TokenSource, emit func(jsontext.Token)) (int, error) {
	var inObject []bool // one entry per open container
	wantName := false
	for n := 0; ; n++ {
		read := src.ReadTokenSkipString
		if wantName {
			read = src.ReadToken
		}
		tok, err := read()
		if err != nil {
			return n, err
		}
		if tok.Kind == jsontext.TokEOF {
			return n, nil
		}
		if emit != nil {
			emit(tok)
		}
		wantName = false
		switch tok.Kind {
		case jsontext.TokBeginObject:
			inObject = append(inObject, true)
			wantName = true
		case jsontext.TokBeginArray:
			inObject = append(inObject, false)
		case jsontext.TokEndObject, jsontext.TokEndArray:
			if len(inObject) > 0 {
				inObject = inObject[:len(inObject)-1]
			}
		case jsontext.TokComma:
			wantName = len(inObject) > 0 && inObject[len(inObject)-1]
		}
	}
}

// absorbAll absorbs every document of src into acc.
func absorbAll(src jsontext.TokenSource, acc *typelang.Accum) error {
	for {
		switch err := infer.AbsorbFromTokens(src, acc); err {
		case nil:
		case io.EOF:
			return nil
		default:
			return err
		}
	}
}

func newTokenSource() *mison.TokenSource {
	ts := mison.NewTokenSource()
	ts.SetInternStrings(true)
	return ts
}

// runLayers is the traced run. It returns every per-layer metric; the
// first failed correctness check, if any, is in fail.
func runLayers(e *env, f *fixture, rec *recorder, cfg runConfig) (*layers, error) {
	l := &layers{
		e: e, f: f, rec: rec, cfg: cfg,
		total:   time.Duration(cfg.seconds * float64(time.Second)),
		chunked: f.w.workers != 1,
		workers: f.w.workers,
		out:     make(map[string]metric),
		chase:   newChaseKernel(),
	}
	if l.workers == 0 {
		l.workers = runtime.GOMAXPROCS(0)
	}
	c := f.corpus
	docs := len(c.starts) - 1
	for i := 0; i < docs; i += infer.DefaultBatch {
		lo, hi := c.starts[i], c.starts[min(i+infer.DefaultBatch, docs)]
		l.chunks = append(l.chunks, c.data[lo:hi])
		l.bases = append(l.bases, lo)
	}
	if c.bodies == nil {
		if err := c.cutBodies(); err != nil {
			return nil, err
		}
	}
	if err := l.fromOutside(); err != nil {
		return nil, err
	}
	l.lexers()
	l.mapSide()
	l.reduceSide()
	if err := l.engine(); err != nil {
		return nil, err
	}
	l.daemonSide()

	ops := wallMs(l.cliOps)
	if f.w.serve {
		ops = l.serveMs
	}
	asc := sorted(ops)
	l.set("bench.op_p50_ms", percentile(asc, 0.5), "ms")
	l.set("bench.op_p95_ms", percentile(asc, 0.95), "ms")
	l.set("bench.host_noise_ratio", median(l.chaseMs)/best(l.chaseMs), "ratio")
	l.note("bench.op: %d ops; bench.host_noise_ratio: %d samples of the pointer chase", len(asc), len(l.chaseMs))

	self := selfTimes(rec.spans)
	var lexTotal, lexSelf, opTotal, opSelf time.Duration
	for _, s := range rec.spans {
		switch s.Name {
		case "mison.lex.chunk":
			lexTotal += time.Duration(s.EndNs - s.StartNs)
			lexSelf += self[s.ID]
		case "jsinferd.script":
			opTotal += time.Duration(s.EndNs - s.StartNs)
			opSelf += self[s.ID]
		}
	}
	l.note("self time: mison.lex spends %.1f%% draining tokens, the rest building the index; a daemon op spends %.1f%% outside its requests",
		100*float64(lexSelf)/float64(max(lexTotal, 1)), 100*float64(opSelf)/float64(max(opTotal, 1)))
	return l, nil
}

// cliOp is one cold CLI op, with a sample of the pointer chase after it.
func (l *layers) cliOp() (timing, int64, error) {
	t, rss, err := l.e.cliOp(l.f)
	if err == nil {
		l.cliOps = append(l.cliOps, t)
	}
	l.chaseMs = append(l.chaseMs, l.chase.run())
	return t, rss, err
}

// fromOutside runs the program as its users do: cold CLI ops, and the
// request script against a daemon, with every request a span.
func (l *layers) fromOutside() error {
	c, rec := l.f.corpus, l.rec
	cli := measure(time.Duration(float64(l.total)*layerShares["cli"]), l.cfg.ops, l.cliOp)
	l.check(cli.firstErr)

	d := l.f.daemon
	if d == nil {
		var err error
		if d, err = startDaemon(l.e.jsinferd); err != nil {
			return err
		}
		defer d.stop()
		ctx := context.Background()
		if _, err := d.do(ctx, nil, "", http.MethodPut, "/v1/collections/"+collection, nil); err != nil {
			return err
		}
		if err := d.script(ctx, nil, c, ""); err != nil {
			return err
		}
	}
	withDaemon := *l.f
	withDaemon.daemon = d
	first := len(rec.spans)
	serve := measure(time.Duration(float64(l.total)*layerShares["daemon"]), l.cfg.ops, func() (timing, int64, error) {
		rec.nextTrace()
		id := rec.begin("jsinferd.script")
		t, rss, err := serveOp(&withDaemon, rec)
		rec.end(id)
		l.chaseMs = append(l.chaseMs, l.chase.run())
		return t, rss, err
	})
	l.check(serve.firstErr)
	l.serveMs = wallMs(serve.timings)
	l.attempted, l.failed = cli.attempted+serve.attempted, cli.failed+serve.failed

	var postMs, getMs []float64
	for _, s := range rec.spans[first:] {
		switch ms := float64(s.EndNs-s.StartNs) / 1e6; s.Name {
		case "jsinferd.post":
			postMs = append(postMs, ms)
		case "jsinferd.get_schema":
			getMs = append(getMs, ms)
		}
	}
	l.set("jsinferd.boot_ms", d.boot.Seconds()*1e3, "ms")
	l.set("jsinferd.post_p50_ms", median(postMs), "ms")
	p, v := tailPercentile(postMs, 0.99)
	l.set("jsinferd.post_p99_ms", v, "ms")
	l.set("jsinferd.get_schema_p50_ms", median(getMs), "ms")
	l.note("jsinferd.post: %d samples, tail reported at p%.1f; jsinferd.get_schema: %d samples", len(postMs), p*100, len(getMs))
	for i := 0; i < 15; i++ {
		var err error
		l.post0 = append(l.post0, timed(func() {
			_, err = d.do(context.Background(), rec, "jsinferd.post_body0", http.MethodPost, ingestPath, &c.bodies[0])
		}))
		l.check(err)
	}
	scrape := timed(func() {
		_, err := d.do(context.Background(), rec, "jsinferd.metrics_scrape", http.MethodGet, "/metrics", nil)
		l.check(err)
	})
	l.set("jsinferd.metrics_scrape_ms", scrape.refSeconds()*1e3, "ms")
	return nil
}

// lexers times the splitter and the two lexers over the corpus.
func (l *layers) lexers() {
	c := l.f.corpus
	corpusMB := mb(float64(len(c.data)))
	ck := mison.NewChunker()
	split := l.repeat("mison.split", "split", func() []time.Duration {
		ck.Reset()
		var dst []int
		for off := 0; off < len(c.data); off += splitBlock {
			dst = ck.Splits(c.data[off:min(off+splitBlock, len(c.data))], dst[:0])
		}
		return nil
	})
	l.set("mison.split_MBps", corpusMB/split.secs(0), "MB/s")

	ts := newTokenSource()
	var tokens, delegations int64
	lexed := l.repeat("mison.lex", "lex", func() []time.Duration {
		tokens = 0
		for i, ch := range l.chunks {
			l.span("mison.lex.chunk", func() {
				l.span("mison.index", func() { l.check(ts.Reset(ch, l.bases[i])) })
				k, err := lexAll(ts, nil)
				l.check(err)
				tokens += int64(k)
			})
		}
		delegations = ts.TakeDelegations()
		return nil
	})
	l.lex = lexed.secs(0)
	l.set("mison.lex_MBps", corpusMB/l.lex, "MB/s")
	l.set("mison.lex_delegation_share", float64(delegations)/float64(tokens), "ratio")
	l.note("mison.split: %d repetitions; mison.lex: %d repetitions, %d tokens", split.n, lexed.n, tokens)

	tr := jsontext.NewTokenReaderBytes(nil)
	tr.SetInternStrings(true)
	jlex := l.repeat("jsontext.lex", "jlex", func() []time.Duration {
		for i, ch := range l.chunks {
			tr.ResetBytes(ch, l.bases[i])
			_, err := lexAll(tr, nil)
			l.check(err)
		}
		return nil
	})
	l.set("jsontext.lex_MBps", corpusMB/jlex.secs(0), "MB/s")
}

// accums returns fresh accumulators, one per engine worker, and
// accumFor the one that takes chunk i, emptied first when the engine
// seals every chunk. Sharing the chunks out matters: an accumulator's
// work grows with what it has ever held (see infer.size_scaling).
func (l *layers) accums() []*typelang.Accum {
	accs := make([]*typelang.Accum, l.workers)
	for i := range accs {
		accs[i] = typelang.NewAccum(equiv)
	}
	return accs
}

func (l *layers) accumFor(accs []*typelang.Accum, i int) *typelang.Accum {
	acc := accs[i%len(accs)]
	if l.chunked {
		acc.Reset()
	}
	return acc
}

// mapSide times absorption — alone, fused with lexing as the engine's
// workers run it, and off the structural index — and the seals.
func (l *layers) mapSide() {
	corpusMB := mb(float64(len(l.f.corpus.data)))
	ts := newTokenSource()

	// Absorb alone: each document is lexed outside the clock into a
	// small reused token buffer and replayed into the accumulator. The
	// span of a chunk carries the summed absorb time of its documents.
	rp := &replay{}
	absorbed := l.repeat("typelang.absorb.rep", "absorb", func() []time.Duration {
		accs := l.accums()
		var counted time.Duration
		for i, ch := range l.chunks {
			acc := l.accumFor(accs, i)
			l.check(ts.Reset(ch, l.bases[i]))
			start, depth, inChunk := time.Now(), 0, time.Duration(0)
			rp.toks = rp.toks[:0]
			_, err := lexAll(ts, func(tok jsontext.Token) {
				rp.toks = append(rp.toks, tok)
				switch tok.Kind {
				case jsontext.TokBeginObject, jsontext.TokBeginArray:
					depth++
				case jsontext.TokEndObject, jsontext.TokEndArray:
					depth--
				}
				if depth != 0 {
					return
				}
				rp.next, rp.end = 0, tok.Offset+1
				t0 := time.Now()
				l.check(infer.AbsorbFromTokens(rp, acc))
				inChunk += time.Since(t0)
				rp.toks = rp.toks[:0]
			})
			l.check(err)
			l.rec.add("typelang.absorb", start, inChunk)
			counted += inChunk
		}
		return []time.Duration{counted}
	})
	l.absorb = absorbed.secs(0)
	l.set("typelang.absorb_MBps", corpusMB/l.absorb, "MB/s")

	// Lex and absorb together, and the seals, in the engine's shape.
	l.chunkTypes = make([]*typelang.Type, len(l.chunks))
	var whole *typelang.Type
	mapped := l.repeat("infer.map.rep", "absorb_tokens", func() []time.Duration {
		accs := l.accums()
		var counted, sealing time.Duration
		for i, ch := range l.chunks {
			acc := l.accumFor(accs, i)
			counted += l.span("infer.absorb_tokens", func() {
				l.check(ts.Reset(ch, l.bases[i]))
				l.check(absorbAll(ts, acc))
			})
			if l.chunked {
				sealing += l.span("typelang.seal", func() { l.chunkTypes[i] = acc.Seal() })
			}
		}
		if !l.chunked {
			sealing = l.span("typelang.seal", func() { whole = accs[0].Seal() })
		}
		return []time.Duration{counted, sealing}
	})
	l.absorbTokens, l.seal = mapped.secs(0), mapped.secs(1)
	l.set("infer.absorb_tokens_MBps", corpusMB/l.absorbTokens, "MB/s")
	l.set("typelang.seal_ms", l.seal*1e3, "ms")
	if !l.chunked {
		l.sameAsOracle("absorb_tokens + seal", whole)
		// The reduce side still needs the chunk types.
		for i, ch := range l.chunks {
			acc := typelang.NewAccum(equiv)
			l.check(ts.Reset(ch, l.bases[i]))
			l.check(absorbAll(ts, acc))
			l.chunkTypes[i] = acc.Seal()
		}
	}

	ia := infer.NewIndexAbsorber()
	ia.SetInternStrings(true)
	var idx, fallback int64
	indexed := l.repeat("infer.absorb_index.rep", "absorb_index", func() []time.Duration {
		accs := l.accums()
		var counted time.Duration
		for i, ch := range l.chunks {
			acc := l.accumFor(accs, i)
			counted += l.span("infer.absorb_index", func() {
				l.check(ia.Reset(ch, l.bases[i]))
				var err error
				for err == nil {
					err = infer.AbsorbFromIndex(ia, acc)
				}
				if err != io.EOF {
					l.check(err)
				}
			})
		}
		idx, fallback = ia.TakeRecordCounts()
		return []time.Duration{counted}
	})
	l.set("infer.absorb_index_MBps", corpusMB/indexed.secs(0), "MB/s")
	l.set("infer.index_fallback_share", float64(fallback)/float64(max(idx+fallback, 1)), "ratio")
}

// reduceSide folds the chunk types with MergeAll and with the sharded
// collector the parallel engine uses.
func (l *layers) reduceSide() {
	docs := len(l.f.corpus.starts) - 1
	var merged *typelang.Type
	merge := l.repeat("typelang.merge", "merge", func() []time.Duration {
		merged = typelang.MergeAll(l.chunkTypes, equiv)
		return nil
	})
	l.set("typelang.merge_ms", merge.secs(0)*1e3, "ms")
	l.set("typelang.schema_nodes", float64(merged.Size()), "count")
	l.sameAsOracle("MergeAll of the chunk types", merged)

	l.collected = l.repeat("infer.collector", "collector", func() []time.Duration {
		col := infer.NewShardedCollector(2, equiv)
		for i := range l.chunkTypes {
			col.AddBatch(l.chunkTypes[i:i+1], int64(min(infer.DefaultBatch, docs-i*infer.DefaultBatch)))
		}
		merged, _ = col.Close()
		return nil
	})
	l.set("infer.collector_ms", l.collected.secs(0)*1e3, "ms")
	l.sameAsOracle("the collector's fold", merged)
}

// engine times the whole engine as jsinfer calls it, closes the budget
// of the layers against it, and reads the program's own recorder.
func (l *layers) engine() error {
	f := l.f
	files, corpusMB := []string{f.file}, mb(float64(len(f.corpus.data)))
	opts := core.StreamOptions{Workers: f.w.workers}
	// Every repetition is followed by one cold CLI op, so that what a
	// process costs on top of the engine comes from pairs measured
	// seconds apart and not from two phases of the run.
	var overheads []float64
	inferred := l.repeatThen("core.infer.rep", "infer", func() []time.Duration {
		var result *core.Inference
		var err error
		d := l.span("core.infer", func() {
			result, _, err = core.InferSchemaStreamFilesWith(files, core.ParametricL, opts)
		})
		l.check(err)
		if err != nil {
			return []time.Duration{d, 0}
		}
		var text string
		r := l.span("typelang.render", func() { text = result.Type.String() })
		if text+"\n" != f.oracle {
			l.check(fmt.Errorf("core.InferSchemaStreamFilesWith differs from the oracle"))
		}
		return []time.Duration{d, r}
	}, func(secs []float64) {
		t, _, err := l.cliOp()
		l.check(err)
		overheads = append(overheads, t.refSeconds()-secs[0]-secs[1])
	})
	inferS, render, inferCPU := inferred.secs(0), inferred.secs(1), inferred.cpuSecs()
	l.set("core.infer_ms", inferS*1e3, "ms")
	l.set("core.infer_cpu_ms", inferCPU*1e3, "ms")
	l.set("typelang.render_ms", render*1e3, "ms")
	l.set("jsinfer.process_overhead_ms", median(overheads)*1e3, "ms")
	// The budget closes on CPU time, which is what the layers were
	// timed in: one goroutine each, while the engine may run two.
	parts, shape := l.absorbTokens+l.seal, "one accumulator, one seal"
	if l.chunked {
		// The collector's leaves run beside the caller, so its share of
		// the budget is its CPU time, not its wall time.
		parts += l.collected.cpuSecs()
		shape = fmt.Sprintf("%d chunk seals, collector %.1f ms CPU", len(l.chunks), l.collected.cpuSecs()*1e3)
	}
	l.set("infer.engine_overhead_pct", (inferCPU-parts)/inferCPU*100, "%")
	l.note("core.infer: %d repetitions, %.1f ms wall, %.1f ms CPU; cold CLI op %.1f ms over %d ops (all at the reference clock)",
		inferred.n, inferS*1e3, inferCPU*1e3, floor(l.cliOps, timing.refSeconds)*1e3, len(l.cliOps))
	l.note("budget of core.infer CPU (%s): mison.lex %.1f ms + typelang.absorb %.1f ms (fused: %.1f ms) + typelang.seal %.1f ms; unattributed %.1f%%",
		shape, l.lex*1e3, l.absorb*1e3, l.absorbTokens*1e3, l.seal*1e3, (inferCPU-parts)/inferCPU*100)

	var snap core.StatsSnapshot
	statsOpts := opts
	inferStats := l.repeat("core.infer.stats", "infer_stats", func() []time.Duration {
		statsOpts.Stats = &core.PipelineStats{}
		_, _, err := core.InferSchemaStreamFilesWith(files, core.ParametricL, statsOpts)
		l.check(err)
		snap = statsOpts.Stats.Snapshot()
		return nil
	})
	l.set("trace_overhead_pct", (inferStats.secs(0)/inferS-1)*100, "%")
	l.set("infer.stats.split_ms", float64(snap.SplitNanos)/1e6, "ms")
	l.set("infer.stats.map_ms", float64(snap.MapNanos)/1e6, "ms")
	l.set("infer.stats.reduce_ms", float64(snap.ReduceNanos)/1e6, "ms")
	l.set("infer.stats.fuse_ms", float64(snap.FuseNanos)/1e6, "ms")
	l.set("infer.stats.chunks", float64(snap.ChunksSplit), "count")
	l.set("infer.stats.seals", float64(snap.Seals), "count")
	l.set("infer.stats.bytes_copied", float64(snap.BytesCopied), "B")
	l.set("infer.stats.scan_delegations", float64(snap.ScanDelegations), "count")

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, _, err := core.InferSchemaStreamFilesWith(files, core.ParametricL, opts)
	l.check(err)
	runtime.ReadMemStats(&m1)
	l.set("infer.alloc_B_per_B", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(f.corpus.data)), "B/B")

	// The same engine on a corpus scaleFactor times as long: a ratio
	// above 1 means a byte costs more the more the run has seen.
	var big *corpus
	gen := timed(func() { big = generate(f.w.gen(f.seed), scaleFactor*f.w.docs) })
	l.set("bench.corpus_gen_s", gen.refSeconds()/scaleFactor, "s")
	bigFile := filepath.Join(l.e.dir, "corpus_x4.ndjson")
	if err := os.WriteFile(bigFile, big.data, 0o644); err != nil {
		return err
	}
	inferBig := l.repeat("core.infer.x4", "scaling", func() []time.Duration {
		_, _, err := core.InferSchemaStreamFilesWith([]string{bigFile}, core.ParametricL, opts)
		l.check(err)
		return nil
	})
	l.set("infer.size_scaling", (inferBig.secs(0)/mb(float64(len(big.data))))/(inferS/corpusMB), "ratio")
	l.note("infer.size_scaling: %d repetitions on %d documents (%.1f MB)", inferBig.n, scaleFactor*f.w.docs, mb(float64(len(big.data))))
	return nil
}

// daemonSide times the daemon's own layers in process: body decoding
// and the registry.
func (l *layers) daemonSide() {
	c := l.f.corpus
	var gz []body
	gzBytes := 0
	for _, b := range c.bodies {
		if b.gzip {
			gz = append(gz, b)
			gzBytes += len(b.raw)
		}
	}
	decode := l.repeat("intake.decode", "intake", func() []time.Duration {
		for _, b := range gz {
			req := httptest.NewRequest(http.MethodPost, ingestPath, bytes.NewReader(b.wire))
			req.Header.Set("Content-Encoding", "gzip")
			rc, err := intake.Body(httptest.NewRecorder(), req, 0)
			l.check(err)
			if err != nil {
				continue
			}
			k, err := io.Copy(io.Discard, rc)
			l.check(err)
			l.check(rc.Close())
			if int(k) != len(b.raw) {
				l.check(fmt.Errorf("intake.Body decoded %d bytes of %d", k, len(b.raw)))
			}
		}
		return nil
	})
	l.set("intake.decode_MBps", mb(float64(gzBytes))/decode.secs(0), "MB/s")

	ingested := l.repeat("registry.rep", "registry", func() []time.Duration {
		reg := registry.New(registry.Options{Equiv: equiv})
		defer reg.Close()
		var counted, got time.Duration
		for i := range c.bodies {
			counted += l.span("registry.ingest", func() {
				_, err := reg.Ingest(collection, bytes.NewReader(c.bodies[i].raw))
				l.check(err)
			})
			got += l.span("registry.get", func() {
				if _, ok := reg.Get(collection); !ok {
					l.check(fmt.Errorf("registry.Get: collection missing"))
				}
			})
		}
		snap, _ := reg.Get(collection)
		l.sameAsOracle("the registry's schema", snap.Type)
		// The warm collection takes the first body again, the in-process
		// twin of the jsinferd.post_body0 requests.
		again := l.span("registry.ingest_body0", func() {
			_, err := reg.Ingest(collection, bytes.NewReader(c.bodies[0].raw))
			l.check(err)
		})
		return []time.Duration{counted, got / time.Duration(len(c.bodies)), again}
	})
	l.set("registry.ingest_MBps", mb(float64(len(c.data)))/ingested.secs(0), "MB/s")
	l.set("registry.get_us", ingested.secs(1)*1e6, "us")
	post, ingest := floor(l.post0, timing.refSeconds), ingested.secs(2)
	l.set("jsinferd.http_overhead_pct", (post-ingest)/post*100, "%")
	l.note("jsinferd.http_overhead: POST of body 0 %.2f ms, in-process Ingest %.2f ms", post*1e3, ingest*1e3)
}

// chaseKernel is a fixed pointer chase over 32 MB, far larger than the
// caches: its time says how loaded the host's memory system is.
type chaseKernel struct{ next []uint32 }

// newChaseKernel links the 8 Mi slots (32 MiB) into one cycle in the
// order of a full-period congruential sequence, which no prefetcher
// follows.
func newChaseKernel() *chaseKernel {
	const n = 8 << 20
	k := &chaseKernel{next: make([]uint32, n)}
	for i := range k.next {
		k.next[i] = (uint32(i)*1664525 + 1013904223) % n
	}
	return k
}

// run chases 20000 pointers and returns the milliseconds it took.
func (k *chaseKernel) run() float64 {
	t0 := time.Now()
	p := uint32(0)
	for i := 0; i < 20000; i++ {
		p = k.next[p]
	}
	chainSink += uint64(p)
	return time.Since(t0).Seconds() * 1e3
}
