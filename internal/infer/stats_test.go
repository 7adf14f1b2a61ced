package infer

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unicode"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/typelang"
)

// statsOptions is the base configuration of the stats tests: one worker
// keeps chunk arithmetic deterministic, the equivalence is immaterial.
func statsOptions(st *PipelineStats) Options {
	return Options{Equiv: typelang.EquivLabel, Workers: 1, Stats: st}
}

// TestStatsCleanInputPinned pins the flight recorder's counters on
// input the index must never bail on: every document is absorbed and
// every record takes the index fast path, with zero fallbacks.
// That last part is the acceptance criterion's "fixtures where the
// index must not bail": a non-zero fallback count on these inputs means
// the fast path silently regressed. PatternRecords says how many
// objects the pattern tree closed: every one after the first of its
// layout, at any depth, and none whose key is not spelled verbatim.
func TestStatsCleanInputPinned(t *testing.T) {
	layoutA, layoutB := `{"a": 1, "b": "x"}`+"\n", `{"b": {"c": [{}, {}]}, "a": 1}`+"\n"
	inputs := map[string]struct {
		input   string
		pattern int64
	}{
		"plain":         {strings.Repeat(layoutA, 7), 6},
		"two-layouts":   {layoutA + layoutB + layoutB + layoutA + layoutA, 2 + 1 + 1 + 3}, // A's, B's, {"c":…}'s and the {}'s
		"escaped-name":  {strings.Repeat(`{"a\nb": 1}`+"\n", 3), 0},
		"escaped-value": {`{"a": "x\ny"}` + "\n", 0},
		"float":         {`{"a": 1.5e3}` + "\n", 0},
		"scalar-root":   {"42\n", 0},
		"array-root":    {`[1, {"k": true}]` + "\n", 0},
		"nested":        {`{"a": {"b": [1, 2, {"c": null}]}}` + "\n", 0},
	}
	for name, c := range inputs {
		input := c.input
		docs := int64(strings.Count(input, "\n"))
		var st PipelineStats
		_, n, err := InferStream(strings.NewReader(input), statsOptions(&st))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if int64(n) != docs {
			t.Fatalf("%s: n=%d, want %d", name, n, docs)
		}
		s := st.Snapshot()
		if s.ChunksSplit < 1 {
			t.Errorf("%s: ChunksSplit=%d, want >= 1", name, s.ChunksSplit)
		}
		if s.FallbackRecords != 0 {
			t.Errorf("%s: fallbacks=%d on clean input, want 0", name, s.FallbackRecords)
		}
		if s.PatternRecords != c.pattern {
			t.Errorf("%s: PatternRecords=%d, want %d", name, s.PatternRecords, c.pattern)
		}
	}
}

// TestStatsAdversarialCountersPinned pins the counters that make
// the map phase's fallback discipline observable, on inputs built to
// trigger exactly one each:
//
//   - a malformed literal ("trve") survives the structural index (its
//     quotes and braces are fine) so the walk starts, bails at the
//     literal, and delegates the record to the token walker —
//     FallbackRecords pins at 1 whether or not the walker then accepts
//     (here it rejects, which is the authoritative error).
//   - a key spelled with an escape is decoded by the scanner: the
//     pattern tree learns only verbatim spellings, so records that open
//     with one never close on it — PatternRecords stays 0 however often
//     the layout repeats, and nothing falls back either.
//   - an unterminated string flips the chunk's unescaped-quote parity
//     and the chunk is indexed all the same: the records before it are
//     absorbed off the index, the broken one is the one FallbackRecords,
//     and the token walk words the error the reference lexer would.
func TestStatsAdversarialCountersPinned(t *testing.T) {
	t.Run("bad-literal-falls-back", func(t *testing.T) {
		var st PipelineStats
		input := `{"a": 1}` + "\n" + `{"a": trve}` + "\n"
		_, n, err := InferStream(strings.NewReader(input), statsOptions(&st))
		if err == nil {
			t.Fatal("malformed literal was accepted")
		}
		if n != 1 {
			t.Fatalf("n=%d, want 1 (the prefix)", n)
		}
		s := st.Snapshot()
		if s.FallbackRecords != 1 {
			t.Errorf("FallbackRecords=%d, want 1 (the malformed record, not the clean prefix)", s.FallbackRecords)
		}
		if s.PatternRecords != 0 {
			t.Errorf("PatternRecords=%d, want 0 (the record on the learned layout never closed)", s.PatternRecords)
		}
	})
	t.Run("escaped-keys-stay-off-the-tree", func(t *testing.T) {
		var st PipelineStats
		input := strings.Repeat(`{"\u0061": 1, "b": 2}`+"\n", 4)
		if _, _, err := InferStream(strings.NewReader(input), statsOptions(&st)); err != nil {
			t.Fatal(err)
		}
		if s := st.Snapshot(); s.PatternRecords != 0 || s.FallbackRecords != 0 {
			t.Errorf("pattern=%d fallbacks=%d, want 0/0: a key that is not spelled verbatim is never learned",
				s.PatternRecords, s.FallbackRecords)
		}
	})
	t.Run("odd-parity-chunk-is-indexed", func(t *testing.T) {
		var st PipelineStats
		input := strings.Repeat(`{"a": 1}`+"\n", 3) + `{"a": "unterminated` + "\n"
		_, n, err := InferStream(strings.NewReader(input), statsOptions(&st))
		_, _, wantErr := oracle([]byte(input), typelang.EquivLabel)
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("error %v, want the reference lexer's %v", err, wantErr)
		}
		s := st.Snapshot()
		if n != 3 || s.FallbackRecords != 1 {
			t.Errorf("n=%d fallbacks=%d, want 3/1 (the prefix off the index, the broken record through the token walk)",
				n, s.FallbackRecords)
		}
	})
}

// TestStatsScanDelegationsPinned: escapes and non-plain numbers are the
// spans the mison fast paths hand to the reference scanner; clean plain
// input delegates nothing.
func TestStatsScanDelegationsPinned(t *testing.T) {
	var clean PipelineStats
	if _, _, err := InferStream(strings.NewReader(`{"a": 1}`+"\n"),
		statsOptions(&clean)); err != nil {
		t.Fatal(err)
	}
	if s := clean.Snapshot(); s.ScanDelegations != 0 {
		t.Errorf("clean input ScanDelegations=%d, want 0", s.ScanDelegations)
	}
	var esc PipelineStats
	if _, _, err := InferStream(strings.NewReader(`{"a": "x\ny", "b": 1.5}`+"\n"),
		statsOptions(&esc)); err != nil {
		t.Fatal(err)
	}
	if s := esc.Snapshot(); s.ScanDelegations < 2 {
		t.Errorf("escaped string + float ScanDelegations=%d, want >= 2", s.ScanDelegations)
	}
}

// TestStatsSequentialEngine pins the one-worker shape at its default
// chunking: an input below the 4 MiB target is one chunk, absorbed into
// the run's single accumulator and sealed once.
func TestStatsSequentialEngine(t *testing.T) {
	input := strings.Repeat(`{"a": 1, "b": [true, null]}`+"\n", 11)
	var st PipelineStats
	_, n, err := InferStream(strings.NewReader(input), statsOptions(&st))
	if err != nil {
		t.Fatal(err)
	}
	s := st.Snapshot()
	if n != 11 {
		t.Errorf("n=%d, want 11", n)
	}
	if s.Seals != 1 {
		t.Errorf("Seals=%d, want exactly 1 (one accumulator for the run)", s.Seals)
	}
	if s.ChunksSplit != 1 {
		t.Errorf("ChunksSplit=%d, want 1 (the input is below the one-worker byte target)", s.ChunksSplit)
	}
}

// TestStatsShardedCollector pins the collector's laziness through the
// counters it reports into the stats it was built with: feeding it
// bodies of many windows seals nothing, fuses nothing and runs no
// reduce clock, the first read of a lone feeder's collector — every
// window found shard 0 free — seals that one shard and runs no fuse,
// and a read of the quiet collector does no work at all — it returns
// the very same *Type. Only once a feeder has found shard 0 busy and
// filled the next one does a read fuse.
func TestStatsShardedCollector(t *testing.T) {
	const shards = 2
	var st PipelineStats
	col := NewShardedCollectorStats(shards, typelang.EquivLabel, &st)
	docs := genjson.Collection(genjson.Twitter{Seed: 7}, 64)
	data := jsontext.MarshalLines(docs)
	for i := 0; i < 3; i++ {
		if _, err := InferStreamInto(bytes.NewReader(data), Options{
			Equiv: typelang.EquivLabel, Workers: 2, batch: 8, ChunkBytes: 4 << 10, Stats: &st,
		}, col); err != nil {
			t.Fatal(err)
		}
	}
	fed := st.Snapshot()
	if fed.RootFuses != 0 || fed.FuseNanos != 0 {
		t.Errorf("RootFuses=%d FuseNanos=%d before any read, want 0/0", fed.RootFuses, fed.FuseNanos)
	}
	if fed.ChunksSplit < 3*2 || fed.Seals != 0 || fed.SplitNanos <= 0 {
		t.Errorf("chunks_split=%d seals=%d split=%dns before any read, want several windows per body absorbed in line (no seal), each cut on the clock",
			fed.ChunksSplit, fed.Seals, fed.SplitNanos)
	}
	if fed.ReduceNanos != 0 {
		t.Errorf("ReduceNanos=%d, want 0: a collector feed has no committer", fed.ReduceNanos)
	}
	first, n := col.Snapshot()
	if n != 3*64 {
		t.Fatalf("collector holds %d docs, want %d", n, 3*64)
	}
	read := st.Snapshot()
	if read.RootFuses != 1 || read.FuseNanos <= 0 {
		t.Errorf("first read: RootFuses=%d FuseNanos=%d, want 1 and a running clock", read.RootFuses, read.FuseNanos)
	}
	if got := read.Seals - fed.Seals; got != 1 {
		t.Errorf("first read of a lone feeder sealed %d times, want 1 (the one filled shard, no fuse)", got)
	}
	again, _ := col.Snapshot()
	if again != first {
		t.Error("a quiet collector's second read returned a different *Type; want the cached one")
	}
	if quiet := st.Snapshot(); quiet.RootFuses != read.RootFuses || quiet.Seals != read.Seals || quiet.FuseNanos != read.FuseNanos {
		t.Errorf("a quiet read recorded work: fuses %d→%d seals %d→%d", read.RootFuses, quiet.RootFuses, read.Seals, quiet.Seals)
	}

	col.shards[0].mu.Lock() // a busy shard: the next batch lands on shard 1
	col.AddBatch([]*typelang.Type{atomInt}, 1)
	col.shards[0].mu.Unlock()
	fused, n := col.Snapshot()
	if want := typelang.Merge(first, atomInt, typelang.EquivLabel); n != 3*64+1 || fused.StringCounted() != want.StringCounted() {
		t.Errorf("two filled shards read %d docs as %s, want %d as %s", n, fused.StringCounted(), 3*64+1, want.StringCounted())
	}
	if two := st.Snapshot(); two.RootFuses != read.RootFuses+1 || two.Seals != read.Seals+2 {
		t.Errorf("read of two filled shards: fuses %d→%d seals %d→%d, want +1 and +2 (the changed shard, the fuse)",
			read.RootFuses, two.RootFuses, read.Seals, two.Seals)
	}
	if last, _ := col.Close(); last != fused {
		t.Error("Close of a quiet collector re-fused; want the cached *Type")
	}
}

// TestStatsOneShotRunSealsOnce pins the shape of the two reduces. A
// one-shot run has no reader before its end, so it fuses nothing, and
// it seals its accumulator once — booked to the
// reduce clock at every worker count — on top of one seal per chunk on
// the workers when there are several (one worker absorbs every chunk
// into the run's accumulator directly). sparse.ndjson has thousands of
// label sets, so that seal is too long for the clock to miss. The
// registry's feed over the same input, at either worker count, seals
// nothing and runs no reduce clock: it fuses exactly when it is read —
// here once, by Close.
func TestStatsOneShotRunSealsOnce(t *testing.T) {
	for _, fixture := range []string{"sparse.ndjson", "tweets.ndjson"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", fixture))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			// One worker cuts windows, by bytes alone; several cut chunks.
			chunking := Options{batch: 16}
			if workers == 1 {
				chunking = Options{ChunkBytes: 4 << 10}
			}
			for _, input := range inputKinds {
				var st PipelineStats
				if _, _, err := inferStreamOver(t, input, data,
					Options{Equiv: typelang.EquivLabel, Workers: workers, batch: chunking.batch, ChunkBytes: chunking.ChunkBytes, Stats: &st}); err != nil {
					t.Fatal(err)
				}
				s := st.Snapshot()
				if s.ChunksSplit < 2 {
					t.Fatalf("%s/w%d/%s: %d chunks; the pin needs a multi-chunk run", fixture, workers, input, s.ChunksSplit)
				}
				if s.RootFuses != 0 || s.FuseNanos != 0 {
					t.Errorf("%s/w%d/%s: root_fuses=%d fuse=%dns on a one-shot run, want 0/0",
						fixture, workers, input, s.RootFuses, s.FuseNanos)
				}
				wantSeals := int64(1)
				if workers > 1 {
					wantSeals += s.ChunksSplit
				}
				if s.Seals != wantSeals {
					t.Errorf("%s/w%d/%s: seals=%d, want %d", fixture, workers, input, s.Seals, wantSeals)
				}
				if s.ReduceNanos <= 0 {
					t.Errorf("%s/w%d/%s: reduce clock reads %dns; the final seal belongs to it", fixture, workers, input, s.ReduceNanos)
				}
			}
			var st PipelineStats
			col := NewShardedCollectorStats(2, typelang.EquivLabel, &st)
			if _, err := InferStreamInto(bytes.NewReader(data),
				Options{Equiv: typelang.EquivLabel, Workers: workers, batch: chunking.batch, ChunkBytes: chunking.ChunkBytes, Stats: &st}, col); err != nil {
				t.Fatal(err)
			}
			if s := st.Snapshot(); s.Seals != 0 || s.ReduceNanos != 0 {
				t.Errorf("%s/w%d: registry feed recorded seals=%d reduce=%dns, want 0 and 0: every window absorbed in line",
					fixture, workers, s.Seals, s.ReduceNanos)
			}
			col.Close()
			if s := st.Snapshot(); s.RootFuses != 1 || s.FuseNanos <= 0 {
				t.Errorf("%s/w%d: registry feed recorded root_fuses=%d fuse=%dns, want the one read Close made",
					fixture, workers, s.RootFuses, s.FuseNanos)
			}
		}
	}
}

// TestDiscardedWindowsBookNoRecords: on pretty-printed documents whose
// lines are stripped of their indentation every inner line starts like
// a document, yet no window begins inside one, so nothing is walked
// twice. Then a record missing the comma before a member on a line of
// its own, which boundary takes for a document's end, ends a window:
// its worker walks the straddler again through the line after the
// window, and that error ends the run. The windows after it, walked
// from inside that record, book their clock and their seal, never their
// records: fallback_records, pattern_records and scan_delegations are
// the sequential shape's at both window sizes, and so are schema, count
// and error.
func TestDiscardedWindowsBookNoRecords(t *testing.T) {
	var clean []byte
	for _, doc := range genjson.Collection(genjson.Twitter{Seed: 1}, DefaultBatch-1) {
		for line := range bytes.Lines(append(jsontext.MarshalIndent(doc, "  "), '\n')) {
			clean = append(clean, bytes.TrimLeft(line, " ")...)
		}
	}
	const bad = "{\"a\": 1\n\"b\": 2}\n"
	broken := slices.Concat(clean, []byte(bad), clean)
	cut := len(clean) + strings.IndexByte(bad, '\n') + 1 // the DefaultBatch'th boundary
	for _, data := range [][]byte{clean, broken} {
		var one PipelineStats
		want, wantN, wantErr := InferStream(bytes.NewReader(data), Options{Equiv: typelang.EquivLabel, Workers: 1, Stats: &one})
		o := one.Snapshot()
		for _, chunkBytes := range []int{0, cut} {
			label := fmt.Sprintf("%d bytes, chunk-bytes %d", len(data), chunkBytes)
			var st PipelineStats
			got, n, err := InferStream(bytes.NewReader(data), Options{Equiv: typelang.EquivLabel, Workers: 2, ChunkBytes: chunkBytes, Stats: &st})
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || n != wantN || got.StringCounted() != want.StringCounted() {
				t.Errorf("%s: %d docs, error %v, want %d, %v; schema equal to one worker's: %v", label, n, err, wantN, wantErr, got.StringCounted() == want.StringCounted())
			}
			s := st.Snapshot()
			if malformed := len(data) > len(clean); malformed && s.ChunksSplit < 2 || !malformed && s.ChunksSplit != 1 {
				t.Errorf("%s: chunks_split=%d; want one window of the clean documents, several of the broken ones", label, s.ChunksSplit)
			}
			if s.FallbackRecords != o.FallbackRecords || s.PatternRecords != o.PatternRecords || s.ScanDelegations != o.ScanDelegations {
				t.Errorf("%s: fallback_records=%d pattern_records=%d scan_delegations=%d, want one worker's %d, %d and %d",
					label, s.FallbackRecords, s.PatternRecords, s.ScanDelegations, o.FallbackRecords, o.PatternRecords, o.ScanDelegations)
			}
			// A window cut after the error was recorded is never sent.
			if s.Seals < 2 || s.Seals > s.ChunksSplit+1 || s.MapNanos <= 0 {
				t.Errorf("%s: seals=%d map=%dns over %d windows, want one per window walked plus the final one, and a clock", label, s.Seals, s.MapNanos, s.ChunksSplit)
			}
		}
	}
}

// TestStatsSnapshotMonotoneUnderLoad is the race-detector workout the
// issue asks for: snapshots taken while the pipeline runs must be
// monotone field by field — the recording discipline publishes with
// atomic adds only, never resets mid-run.
func TestStatsSnapshotMonotoneUnderLoad(t *testing.T) {
	docs := genjson.Collection(genjson.Twitter{Seed: 3}, 600)
	data := jsontext.MarshalLines(docs)
	var st PipelineStats
	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		var last StatsSnapshot
		for {
			s := st.Snapshot()
			for _, pair := range [][2]int64{
				{s.ChunksSplit, last.ChunksSplit},
				{s.PatternRecords, last.PatternRecords},
				{s.FallbackRecords, last.FallbackRecords},
				{s.ScanDelegations, last.ScanDelegations},
				{s.RootFuses, last.RootFuses},
				{s.Seals, last.Seals},
				{s.ReadNanos, last.ReadNanos},
				{s.SplitNanos, last.SplitNanos},
				{s.MapNanos, last.MapNanos},
				{s.ReduceNanos, last.ReduceNanos},
				{s.FuseNanos, last.FuseNanos},
			} {
				if pair[0] < pair[1] {
					t.Errorf("counter regressed: %d after %d", pair[0], pair[1])
					return
				}
			}
			last = s
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for i := 0; i < 4; i++ {
		_, n, err := InferStream(bytes.NewReader(data), Options{
			Equiv: typelang.EquivLabel, Workers: 4, batch: 16, Stats: &st,
		})
		if err != nil || n != 600 {
			t.Fatalf("pass %d: n=%d err=%v", i, n, err)
		}
	}
	close(stop)
	watcher.Wait()
	s := st.Snapshot()
	if s.FallbackRecords != 0 || s.ChunksSplit < 4*600/16 {
		t.Errorf("fallback=%d windows=%d across 4 passes, want 0 and at least %d", s.FallbackRecords, s.ChunksSplit, 4*600/16)
	}
}

// TestStatsFieldsCoverSnapshot holds the flight recorder's one table to
// the struct it describes, so a counter added to StatsSnapshot without a
// row (or a row pointed at the wrong field) fails here instead of
// silently missing from Add, -stats, /v1/stats and /metrics: row i
// reaches field i, under the field's name in snake case; names are
// unique; every stage a row names has exactly one clock, <stage>_nanos
// (the stages of `jsinfer -stats` are the clock rows). Then a
// snapshot holding a distinct prime per field must survive every path
// that ranges over the table.
func TestStatsFieldsCoverSnapshot(t *testing.T) {
	var filled StatsSnapshot
	v := reflect.ValueOf(&filled).Elem()
	if v.NumField() != len(StatsFields) {
		t.Fatalf("StatsSnapshot has %d fields, StatsFields %d rows", v.NumField(), len(StatsFields))
	}
	snake := func(s string) string {
		var b strings.Builder
		for i, r := range s {
			if unicode.IsUpper(r) && i > 0 {
				b.WriteByte('_')
			}
			b.WriteRune(unicode.ToLower(r))
		}
		return b.String()
	}
	var primes []int64
	for n := int64(2); len(primes) < v.NumField(); n++ {
		if !slices.ContainsFunc(primes, func(p int64) bool { return n%p == 0 }) {
			primes = append(primes, n)
		}
	}
	names := map[string]bool{}
	clocks := map[string]int{}
	for i, f := range StatsFields {
		field := v.Type().Field(i)
		if field.Type.Kind() != reflect.Int64 {
			t.Fatalf("StatsSnapshot.%s is %s; every field is an int64 counter", field.Name, field.Type)
		}
		v.Field(i).SetInt(primes[i])
		if f.At(&filled) != v.Field(i).Addr().Interface().(*int64) {
			t.Errorf("row %d (%s) does not reach field %d (%s)", i, f.Name, i, field.Name)
		}
		if f.Name != snake(field.Name) {
			t.Errorf("row %d is named %q, want %q after field %s", i, f.Name, snake(field.Name), field.Name)
		}
		if names[f.Name] {
			t.Errorf("wire name %q appears twice", f.Name)
		}
		names[f.Name] = true
		if f.Help == "" {
			t.Errorf("%s has no help text", f.Name)
		}
		if f.Clock() {
			clocks[f.Stage]++
			if f.Name != f.Stage+"_nanos" {
				t.Errorf("clock %q belongs to stage %q; want the name %s_nanos", f.Name, f.Stage, f.Stage)
			}
		}
	}
	for _, f := range StatsFields {
		if clocks[f.Stage] != 1 {
			t.Errorf("%s is on stage %q, which has %d clock rows; want exactly one", f.Name, f.Stage, clocks[f.Stage])
		}
	}

	var twice StatsSnapshot
	for i := range StatsFields {
		reflect.ValueOf(&twice).Elem().Field(i).SetInt(2 * primes[i])
	}
	sum := filled
	sum.Add(filled)
	if sum != twice {
		t.Errorf("Add: got %+v, want %+v", sum, twice)
	}
	var p PipelineStats
	p.AddSnapshot(filled)
	if got := p.Snapshot(); got != filled {
		t.Errorf("AddSnapshot → Snapshot: got %+v, want %+v", got, filled)
	}
	frame := statsFrame{filled}
	frame.flush(&p)
	if got := p.Snapshot(); got != twice {
		t.Errorf("frame flush on top: got %+v, want %+v", got, twice)
	}
	if frame.StatsSnapshot != (StatsSnapshot{}) {
		t.Errorf("flush left the frame holding %+v", frame.StatsSnapshot)
	}
}

// TestReadmeAnswersEveryCounter holds README.md's flight-recorder table
// to StatsFields: one row per field, in table order, under its wire
// name and stage, each stating the question the field answers and the
// surfaces that read it. A counter nobody can say what it is for has
// no row to add, and a deleted one leaves a row that fails here.
func TestReadmeAnswersEveryCounter(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Flight recorder\n")
	if !ok {
		t.Fatal(`README.md has no "## Flight recorder" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var rows [][]string
	for _, line := range strings.Split(section, "\n") {
		if cells := strings.Split(line, " | "); strings.HasPrefix(line, "| `") && len(cells) == 4 {
			rows = append(rows, cells)
		}
	}
	if len(rows) != len(StatsFields) {
		t.Errorf("the README table has %d rows, StatsFields %d", len(rows), len(StatsFields))
	}
	for i, f := range StatsFields[:min(len(rows), len(StatsFields))] {
		name, stage := strings.Trim(rows[i][0], "|` "), rows[i][1]
		if name != f.Name || stage != f.Stage {
			t.Errorf("README row %d is %s on stage %s, want %s on %s", i, name, stage, f.Name, f.Stage)
		}
		if answers, readers := rows[i][2], strings.TrimSuffix(rows[i][3], " |"); !strings.Contains(answers, "?") || readers == "" {
			t.Errorf("README row %s states no question (%q) or no reader (%q)", f.Name, answers, readers)
		}
	}
}

// TestStatsSnapshotArithmetic covers the plain-value surface: Add sums
// field by field, AddSnapshot folds a delta in, and the nil recorder is
// inert everywhere.
func TestStatsSnapshotArithmetic(t *testing.T) {
	a := StatsSnapshot{ChunksSplit: 1, PatternRecords: 10, BytesReindexed: 2, MmapInputs: 2,
		FallbackRecords: 1, ScanDelegations: 3,
		RootFuses: 1, Seals: 4, ReadNanos: 5, SplitNanos: 6, MapNanos: 7, ReduceNanos: 8, FuseNanos: 9}
	b := a
	b.Add(a)
	want := StatsSnapshot{ChunksSplit: 2, PatternRecords: 20, BytesReindexed: 4, MmapInputs: 4,
		FallbackRecords: 2, ScanDelegations: 6,
		RootFuses: 2, Seals: 8, ReadNanos: 10, SplitNanos: 12, MapNanos: 14, ReduceNanos: 16, FuseNanos: 18}
	if b != want {
		t.Errorf("Add: got %+v, want %+v", b, want)
	}

	var p PipelineStats
	p.AddSnapshot(a)
	p.AddSnapshot(a)
	if got := p.Snapshot(); got != want {
		t.Errorf("AddSnapshot twice: got %+v, want %+v", got, want)
	}

	var nilStats *PipelineStats
	if got := nilStats.Snapshot(); got != (StatsSnapshot{}) {
		t.Errorf("nil Snapshot = %+v, want zero", got)
	}
	nilStats.AddSnapshot(a) // must not panic

	// A nil recorder through the full pipeline: same answer, no stats.
	input := `{"a": 1}` + "\n"
	if _, n, err := InferStream(strings.NewReader(input),
		Options{Equiv: typelang.EquivLabel, Workers: 2}); err != nil || n != 1 {
		t.Fatalf("nil-stats run: n=%d err=%v", n, err)
	}
}
