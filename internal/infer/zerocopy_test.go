package infer

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"testing/iotest"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/mmapio"
)

// This file pins the zero-copy input layer: a mapped input must be
// byte-identical to a reader over the same bytes (schemas, counts,
// error offsets); the one window loop must cut a mapping into exactly
// the window stream it cuts a reader into, allocating nothing per
// window however long the mapping; and the pooled reader buffers must
// never be recycled while a window still aliases them (the race test
// below runs under `make race`).

// cutWindows runs the window loop over src as the parallel shape does —
// one chunkReader, every window consumed whole — with a target of docs
// documents, or of target bytes when docs is 0. emit
// owns a window only until it returns: to keep one it acquires its
// buffer.
func cutWindows(src source, target, docs int, st *PipelineStats, emit func(byteChunk)) error {
	_, err := windows(newChunkReader(src, target, st), target, docs, func(ch byteChunk) (int, error) {
		emit(ch)
		return 0, nil
	})
	return err
}

// readerSource is data behind an io.Reader with a run's own pool.
func readerSource(data []byte) source {
	return source{r: bytes.NewReader(data), pool: new(chunkPool)}
}

// mappedSource maps a new file holding data, as fileSources maps a file
// of mmapMinSize or more, whatever its size.
func mappedSource(t testing.TB, data []byte) source {
	t.Helper()
	name := filepath.Join(t.TempDir(), "in.ndjson")
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return mapFile(t, name)
}

// mapFile maps the named file. A run over the source unmaps it when
// its last window is released; the test's cleanup unmaps one no run
// read.
func mapFile(t testing.TB, name string) source {
	t.Helper()
	if !mmapio.Supported() {
		t.Skip("mmap not supported on this platform")
	}
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := mmapio.Map(f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return source{mapping: m}
}

// TestKiBWindowsMatchOracleFixtures sweeps every fixture under a 1 KiB
// byte target (Options.ChunkBytes), where the two input kinds differ
// most: a mapping's windows alias its pages whatever their length, the
// reader has to buffer, compact and grow to hold each one.
func TestKiBWindowsMatchOracleFixtures(t *testing.T) {
	forEachFixture(t, func(name string, data []byte) {
		assertMatchesOracle(t, name, data, Options{ChunkBytes: 1 << 10})
	})
}

// TestOneByteWindowsMatchOracleErrors is the error sweep under a byte
// target of one: every chunk ends at the first boundary past its first
// byte, so absolute offsets ride on chunk bases in both sources.
func TestOneByteWindowsMatchOracleErrors(t *testing.T) {
	for _, in := range malformedInputs {
		assertMatchesOracle(t, fmt.Sprintf("%q", in), []byte(in), Options{ChunkBytes: 1})
	}
}

// TestSplitChunksBytesMatchesReadChunks pins the window loop to the same
// window stream over a mapping, over a reader and over a reader that
// returns one byte a read (every cut resumes a stopped scan) — same
// data, same absolute bases — across document-count and byte-size
// targets, and a byte window to its length: it ends at the first
// document end at or after its target, or at the end of the input.
// NDJSON whose every line begins with blanks cuts like plain NDJSON:
// the same number of windows per document target, one per line under a
// one-byte target.
func TestSplitChunksBytesMatchesReadChunks(t *testing.T) {
	plain := jsontext.MarshalLines(genjson.Collection(genjson.Twitter{Seed: 90}, 400))
	var blank []byte
	for line := range bytes.Lines(plain) {
		blank = append(append(blank, "\t "...), line...)
	}
	type chunk struct {
		base int
		data string
	}
	type targets struct{ docs, bytes int }
	collect := func(src source, tg targets) []chunk {
		var out []chunk
		if err := cutWindows(src, tg.bytes, tg.docs, nil, func(ch byteChunk) {
			out = append(out, chunk{ch.base, string(ch.data)})
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	plainWindows := map[targets]int{}
	for _, data := range [][]byte{plain, blank} {
		for _, targets := range []targets{
			{docs: 1}, {docs: 7}, {docs: 256},
			{bytes: 1 << 10}, {bytes: 64 << 10}, {bytes: 1},
		} {
			want := collect(readerSource(data), targets)
			for _, src := range []source{mappedSource(t, data), {r: iotest.OneByteReader(bytes.NewReader(data)), pool: new(chunkPool)}} {
				if got := collect(src, targets); !slices.Equal(got, want) {
					t.Fatalf("targets=%+v (mapped: %t): %d windows differ from the reader's %d", targets, src.r == nil, len(got), len(want))
				}
			}
			if n, ok := plainWindows[targets]; !ok {
				plainWindows[targets] = len(want)
			} else if (targets.docs > 0 || targets.bytes == 1) && len(want) != n {
				t.Errorf("targets=%+v: %d windows over blank-led lines, %d over plain NDJSON", targets, len(want), n)
			}
			off := 0
			for i, w := range want {
				if w.base != off {
					t.Fatalf("targets=%+v: chunk %d base %d, want %d", targets, i, w.base, off)
				}
				off += len(w.data)
				// On NDJSON every line break ends a document, so a byte
				// window ends past the first one at or after its target,
				// or at the end of the input.
				if targets.bytes > 0 {
					end := len(data)
					if lo := w.base + targets.bytes - 1; lo < len(data) {
						if j := bytes.IndexByte(data[lo:], '\n'); j >= 0 {
							end = lo + j + 1
						}
					}
					if off != end {
						t.Errorf("targets=%+v: window %d ends at %d, want %d: past the first line break at or after the target", targets, i, off, end)
					}
				}
			}
			if off != len(data) {
				t.Fatalf("targets=%+v: chunks cover %d bytes, want %d", targets, off, len(data))
			}
		}
	}
}

// TestSplitChunksBytesAllocFree pins the mapped side of the window
// loop: no pending array, no compaction, nothing allocated per window —
// a run allocates the same whether it cuts 19 windows, 300, or the
// 256-line windows of a 16 MB mapping, which nothing scans past the
// window it cuts. Each run reads a mapping of its own (its last window
// unmaps it), made before the count.
func TestSplitChunksBytesAllocFree(t *testing.T) {
	docs := genjson.Collection(genjson.Orders{Seed: 91}, 300)
	data := jsontext.MarshalLines(docs)
	var chunks, total int
	emit := func(ch byteChunk) {
		chunks++
		total += len(ch.data)
	}
	// mappings writes data to a file and maps it once per call
	// AllocsPerRun(runs) makes: runs, and its warm-up.
	mappings := func(data []byte, runs int) func() source {
		name := filepath.Join(t.TempDir(), "in.ndjson")
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var srcs []source
		for range runs + 1 {
			srcs = append(srcs, mapFile(t, name))
		}
		return func() (src source) {
			src, srcs = srcs[0], srcs[1:]
			return src
		}
	}
	var perRun [3]float64
	for i, docs := range []int{16, 1} {
		chunks = 0
		next := mappings(data, 20)
		perRun[i] = testing.AllocsPerRun(20, func() {
			if err := cutWindows(next(), 0, docs, nil, emit); err != nil {
				t.Fatal(err)
			}
		})
		if want := 21 * ((300 + docs - 1) / docs); chunks != want {
			t.Fatalf("docs=%d: %d windows emitted over 21 runs, want %d", docs, chunks, want)
		}
	}
	if total == 0 {
		t.Fatal("no bytes emitted")
	}

	line := []byte(`{"id":12345678,"name":"a document of sixty-four bytes, newline"}` + "\n")
	long := bytes.Repeat(line, (16<<20)/len(line))
	chunks, total = 0, 0
	next := mappings(long, 2)
	perRun[2] = testing.AllocsPerRun(2, func() {
		if err := cutWindows(next(), 0, DefaultBatch, nil, emit); err != nil {
			t.Fatal(err)
		}
	})
	if want := 3 * ((len(long)/len(line) + DefaultBatch - 1) / DefaultBatch); chunks != want || total != 3*len(long) {
		t.Errorf("16 MB slice: %d windows covering %d bytes over 3 runs, want %d covering %d", chunks, total, want, 3*len(long))
	}
	if perRun[0] != perRun[1] || perRun[0] != perRun[2] || perRun[0] > 2 {
		t.Errorf("slice windows allocate %.1f times per run at 16 documents a window, %.1f at one and %.1f over 16 MB; want the same, at most 2", perRun[0], perRun[1], perRun[2])
	}
}

// TestReadChunksCompactionReuse pins the window loop's buffer reuse:
// when every emitted window has been released by compaction time, the
// reader slides the uncut tail down in place — no fresh array, no pool
// churn — so a run whose consumer keeps up recycles zero buffers and
// copies only tails.
func TestReadChunksCompactionReuse(t *testing.T) {
	docs := genjson.Collection(genjson.Twitter{Seed: 92}, 4000)
	data := jsontext.MarshalLines(docs)
	if len(data) < 3*chunkReadSize {
		t.Fatalf("fixture too small to force compactions: %d bytes", len(data))
	}
	var st PipelineStats
	if err := cutWindows(readerSource(data), 0, 64, &st, func(byteChunk) {}); err != nil {
		t.Fatal(err)
	}
	s := st.Snapshot()
	if s.BuffersRecycled != 0 {
		t.Errorf("prompt-release run recycled %d buffers, want 0 (in-place tail reuse)", s.BuffersRecycled)
	}
	if s.BytesCopied >= int64(len(data)) {
		t.Errorf("compaction copied %d of %d input bytes; tails only should be far less", s.BytesCopied, len(data))
	}
	if s.MmapInputs != 0 {
		t.Errorf("reader run counted mmap_inputs=%d, want 0", s.MmapInputs)
	}

	// Holding the newest window until the next one arrives keeps refs > 1
	// at compaction time, forcing the pooled path — and the pool must
	// then recycle the arrays freed by earlier releases.
	var held byteChunk
	st = PipelineStats{}
	if err := cutWindows(readerSource(data), 0, 64, &st, func(ch byteChunk) {
		if held.buf != nil {
			held.buf.release()
		}
		ch.buf.acquire()
		held = ch
	}); err != nil {
		t.Fatal(err)
	}
	held.buf.release()
	if s := st.Snapshot(); s.BuffersRecycled == 0 {
		t.Errorf("held-chunk run recycled no buffers; the pool should round-trip freed arrays")
	}
}

// TestChunkPoolLifetimeRace is the pool-lifetime race test (run under
// `make race`): windows are consumed on concurrent goroutines that
// verify every byte against the original input before releasing the
// reference taken for them, while the reader recycles released buffers
// as fast as it can. A buffer recycled while a window still aliases it
// shows up both as a content mismatch and as a data race on the array.
func TestChunkPoolLifetimeRace(t *testing.T) {
	docs := genjson.Collection(genjson.GitHub{Seed: 93}, 6000)
	data := jsontext.MarshalLines(docs)
	work := make(chan byteChunk, 4)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		consumed int
		bad      int
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ch := range work {
				ok := bytes.Equal(ch.data, data[ch.base:ch.base+len(ch.data)])
				ch.buf.release()
				mu.Lock()
				consumed += len(ch.data)
				if !ok {
					bad++
				}
				mu.Unlock()
			}
		}()
	}
	err := cutWindows(readerSource(data), 0, 8, nil, func(ch byteChunk) {
		ch.buf.acquire()
		work <- ch
	})
	close(work)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d chunks no longer matched the input when consumed — recycled while aliased", bad)
	}
	if consumed != len(data) {
		t.Fatalf("consumed %d bytes, want %d", consumed, len(data))
	}
}

// TestMappedInputStats pins the zero-copy counters: a run over a mapping
// counts it as one mapped input and neither copies nor recycles a
// buffer.
func TestMappedInputStats(t *testing.T) {
	docs := genjson.Collection(genjson.Orders{Seed: 94}, 500)
	data := jsontext.MarshalLines(docs)
	var st PipelineStats
	_, n, err := run(only(mappedSource(t, data)), Options{Workers: 4, batch: 32, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("typed %d docs, want 500", n)
	}
	s := st.Snapshot()
	if s.MmapInputs != 1 {
		t.Errorf("mmap_inputs = %d, want 1", s.MmapInputs)
	}
	if s.BytesCopied != 0 || s.BuffersRecycled != 0 {
		t.Errorf("a mapped run copied %d bytes and recycled %d buffers, want 0/0", s.BytesCopied, s.BuffersRecycled)
	}
}

// TestSequentialIndexedEngineStats pins the one-worker shape: windowed
// absorption off the structural index, one seal, and the fast path
// taken by every record of a clean input.
func TestSequentialIndexedEngineStats(t *testing.T) {
	docs := genjson.Collection(genjson.Twitter{Seed: 95}, 600)
	data := jsontext.MarshalLines(docs)
	var st PipelineStats
	_, n, err := InferStream(bytes.NewReader(data), Options{Workers: 1, ChunkBytes: 32 << 10, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	s := st.Snapshot()
	if n != 600 {
		t.Fatalf("typed %d docs, want 600", n)
	}
	if s.Seals != 1 || s.ChunksSplit < 2 {
		t.Errorf("one-worker indexed run sealed %d times over %d windows, want exactly once over several: every window absorbed in line", s.Seals, s.ChunksSplit)
	}
	if s.BytesReindexed != 0 {
		t.Errorf("NDJSON windows end between documents, yet %d bytes were indexed twice", s.BytesReindexed)
	}
	if s.FallbackRecords != 0 {
		t.Errorf("clean input sent %d records to the token walk, want 0", s.FallbackRecords)
	}
	if s.MmapInputs != 0 {
		t.Errorf("MmapInputs = %d, want 0", s.MmapInputs)
	}
}
