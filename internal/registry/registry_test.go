package registry

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/genjson"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/typelang"
)

// batchType is the reference result: the sequential token engine over
// the same bytes.
func batchType(t *testing.T, data []byte, e typelang.Equiv) (*typelang.Type, int) {
	t.Helper()
	ty, n, err := infer.InferStream(bytes.NewReader(data), infer.Options{Equiv: e})
	if err != nil {
		t.Fatalf("batch InferStream: %v", err)
	}
	return ty, n
}

// oracle is the independent reference — the paper's definition,
// sharing no code with the streamed engine: decode each document, type
// it, fold once. It returns the type and count of the documents before
// the decoder's first error, and that error.
func oracle(data []byte, e typelang.Equiv) (*typelang.Type, int, error) {
	dec := jsontext.NewDecoder(bytes.NewReader(data))
	var ts []*typelang.Type
	for {
		v, err := dec.Decode()
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = nil
			}
			return typelang.MergeAll(ts, e), len(ts), err
		}
		ts = append(ts, infer.TypeOf(v, e))
	}
}

// oracleType is oracle over well-formed data.
func oracleType(t *testing.T, data []byte, e typelang.Equiv) (*typelang.Type, int) {
	t.Helper()
	ty, n, err := oracle(data, e)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return ty, n
}

// TestIngestMatchesBatchInferStream pins the acceptance criterion on
// every checked-in fixture: after one ingest, the live snapshot must be
// byte-identical — same rendering, same counting annotations — to what
// batch `jsinfer` computes over the same file.
func TestIngestMatchesBatchInferStream(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no testdata fixtures found")
	}
	for _, name := range fixtures {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel} {
			want, wantN := batchType(t, data, e)
			reg := New(Options{Equiv: e})
			res, err := reg.Ingest("c", bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s/%v: ingest: %v", name, e, err)
			}
			if res.Docs != wantN || res.TotalDocs != int64(wantN) {
				t.Errorf("%s/%v: ingested %d docs (total %d), want %d", name, e, res.Docs, res.TotalDocs, wantN)
			}
			snap, ok := reg.Get("c")
			if !ok {
				t.Fatalf("%s/%v: collection missing after ingest", name, e)
			}
			if got := snap.Type.StringCounted(); got != want.StringCounted() {
				t.Errorf("%s/%v: live schema diverges from batch\n batch: %s\n live:  %s",
					name, e, want.StringCounted(), got)
			}
			if snap.Docs != int64(wantN) || snap.Version != 1 {
				t.Errorf("%s/%v: snapshot docs=%d version=%d, want docs=%d version=1",
					name, e, snap.Docs, snap.Version, wantN)
			}
			reg.Close()
		}
	}
}

// TestConcurrentIngestStorm is the race-detector workout: many
// goroutines — more per collection than it has shards, at most 8 —
// ingesting one-window slices into several collections while readers
// snapshot continuously, one of them holding every view of col-0 to the
// consistency model (documents and schema only grow). Afterwards every
// collection's schema must be byte-identical to the oracle's fold over
// everything it received — regardless of arrival order and of which
// shard absorbed what, by commutativity of the merge — and the counters
// must be exact.
func TestConcurrentIngestStorm(t *testing.T) {
	const (
		collections = 3
		writers     = 9
		slices      = 5
		docsPer     = 40
	)
	reg := New(Options{Equiv: typelang.EquivLabel})
	defer reg.Close()

	// Pre-build each collection's slices so the expected result is a
	// deterministic function of what was sent.
	parts := make(map[string][][]byte)
	for c := 0; c < collections; c++ {
		name := fmt.Sprintf("col-%d", c)
		for s := 0; s < writers*slices; s++ {
			docs := genjson.Collection(genjson.Twitter{Seed: int64(100*c + s)}, docsPer)
			parts[name] = append(parts[name], jsontext.MarshalLines(docs))
		}
	}

	stopReads := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stopReads:
				return
			default:
				reg.List()
				reg.Stats()
			}
		}
	}()
	go func() {
		defer readers.Done()
		var lastDocs int64
		var lastPipe infer.StatsSnapshot
		lastType := typelang.Bottom
		for {
			select {
			case <-stopReads:
				return
			default:
				if snap, ok := reg.Get("col-0"); ok {
					if snap.Docs < lastDocs {
						t.Errorf("snapshot docs regressed: %d after %d", snap.Docs, lastDocs)
						return
					}
					if !typelang.Subtype(lastType, snap.Type) {
						t.Errorf("snapshot schema shrank:\n before: %s\n after:  %s", lastType, snap.Type)
						return
					}
					lastDocs, lastType = snap.Docs, snap.Type
					// The flight recorder is monotone under load too:
					// per-call deltas and direct read-side adds only
					// ever increase the cumulative counters.
					p := snap.Pipeline
					if p.MapNanos < lastPipe.MapNanos || p.ReadNanos < lastPipe.ReadNanos ||
						p.ChunksSplit < lastPipe.ChunksSplit || p.Seals < lastPipe.Seals ||
						p.RootFuses < lastPipe.RootFuses {
						t.Errorf("pipeline stats regressed: %+v after %+v", p, lastPipe)
						return
					}
					lastPipe = p
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < collections; c++ {
		name := fmt.Sprintf("col-%d", c)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(name string, w int) {
				defer wg.Done()
				for s := 0; s < slices; s++ {
					if _, err := reg.Ingest(name, bytes.NewReader(parts[name][w*slices+s])); err != nil {
						t.Errorf("%s: ingest: %v", name, err)
					}
				}
			}(name, w)
		}
	}

	// Churn collections ride alongside the deterministic ones: delete
	// racing ingest, equiv-pinned creates (matching and conflicting),
	// and a tight quota rejecting most writers. None of these touch the
	// col-* collections, so the byte-identical assertions below are
	// unaffected — the point is that the interleavings survive the race
	// detector and fail only in the sanctioned ways.
	churnDoc := []byte(`{"churn": true}` + "\n")
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := 0; s < slices; s++ {
				if _, err := reg.Ingest("churn-del", bytes.NewReader(churnDoc)); err != nil {
					t.Errorf("churn-del ingest: %v", err)
				}
				if w == 0 {
					reg.Delete("churn-del") // may or may not hit a live one
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		match, clash := typelang.EquivLabel, typelang.EquivKind
		for s := 0; s < writers*slices; s++ {
			if _, _, err := reg.Create("churn-equiv", CollectionOptions{Equiv: &match}); err != nil {
				t.Errorf("churn-equiv create: %v", err)
			}
			if _, _, err := reg.Create("churn-equiv", CollectionOptions{Equiv: &clash}); !errors.Is(err, ErrEquivMismatch) {
				t.Errorf("conflicting create: err = %v, want ErrEquivMismatch", err)
			}
		}
	}()
	tight := Quota{DocsPerSec: 1}
	if _, _, err := reg.Create("churn-rl", CollectionOptions{Quota: &tight}); err != nil {
		t.Fatal(err)
	}
	var admitted, limited atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < slices; s++ {
				_, err := reg.Ingest("churn-rl", bytes.NewReader(churnDoc))
				var rl *RateLimitError
				switch {
				case err == nil:
					admitted.Add(1)
				case errors.As(err, &rl):
					limited.Add(1)
				default:
					t.Errorf("churn-rl: unexpected error kind: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	close(stopReads)
	readers.Wait()

	// The quota admitted at least the first request and the counters
	// agree with what the writers observed.
	if admitted.Load() < 1 {
		t.Error("rate-limited collection admitted nothing")
	}
	if snap, ok := reg.Get("churn-rl"); !ok || snap.RateLimited != limited.Load() {
		t.Errorf("churn-rl RateLimited = %d, writers saw %d rejections", snap.RateLimited, limited.Load())
	}

	for c := 0; c < collections; c++ {
		name := fmt.Sprintf("col-%d", c)
		all := bytes.Join(parts[name], nil)
		want, wantN := oracleType(t, all, typelang.EquivLabel)
		snap, ok := reg.Get(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if got := snap.Type.StringCounted(); got != want.StringCounted() {
			t.Errorf("%s: concurrent-ingest schema diverges from the oracle\n oracle: %s\n live:   %s",
				name, want.StringCounted(), got)
		}
		if snap.Docs != int64(wantN) {
			t.Errorf("%s: docs=%d, want %d", name, snap.Docs, wantN)
		}
		// After quiesce the flight recorder reconciles exactly with the
		// registry's own accounting: every ingest was absorbed in line
		// and no record fell back (the corpus is clean).
		if p := snap.Pipeline; p.ChunksSplit < snap.Ingests || p.ReduceNanos != 0 || p.FallbackRecords != 0 {
			t.Errorf("%s: pipeline stats do not reconcile: windows=%d over %d ingests, reduce=%dns, fallback=%d",
				name, p.ChunksSplit, snap.Ingests, p.ReduceNanos, p.FallbackRecords)
		}
		if snap.Version != writers*slices || snap.Ingests != writers*slices || snap.Errors != 0 {
			t.Errorf("%s: version=%d ingests=%d errors=%d, want %d/%d/0",
				name, snap.Version, snap.Ingests, snap.Errors, writers*slices, writers*slices)
		}
	}
	// col-* plus churn-equiv and churn-rl survive; churn-del may or may
	// not, depending on how the last delete raced the last ingest.
	if st := reg.Stats(); st.Collections < collections+2 || st.Collections > collections+3 {
		t.Errorf("stats = %+v, want %d-%d collections",
			st, collections+2, collections+3)
	}
}

// TestIngestErrorKeepsPrefix: a malformed document merges exactly the
// documents before it, counts the error, and leaves the collection
// usable for later ingests.
func TestIngestErrorKeepsPrefix(t *testing.T) {
	reg := New(Options{})
	defer reg.Close()
	res, err := reg.Ingest("c", strings.NewReader("{\"a\": 1}\n{]\n{\"a\": 2}\n"))
	if err == nil {
		t.Fatal("expected a syntax error")
	}
	if res.Docs != 1 {
		t.Errorf("merged %d docs before the error, want 1", res.Docs)
	}
	snap, _ := reg.Get("c")
	if got := snap.Type.String(); got != "{a: Int}" {
		t.Errorf("prefix schema = %s, want {a: Int}", got)
	}
	if snap.Errors != 1 || snap.Ingests != 1 || snap.Version != 1 {
		t.Errorf("errors=%d ingests=%d version=%d, want 1/1/1", snap.Errors, snap.Ingests, snap.Version)
	}
	if _, err := reg.Ingest("c", strings.NewReader("{\"a\": true}\n")); err != nil {
		t.Fatalf("ingest after error: %v", err)
	}
	snap, _ = reg.Get("c")
	if got := snap.Type.String(); got != "{a: (Bool + Int)}" {
		t.Errorf("schema after recovery = %s", got)
	}
	if snap.Docs != 2 || snap.Version != 2 {
		t.Errorf("docs=%d version=%d after recovery, want 2/2", snap.Docs, snap.Version)
	}

	// The same contract in bodies of 100 and 3×256 documents — and of
	// 40 000, three read blocks — with document k malformed: exactly k
	// documents kept, and the oracle's error, absolute offset included.
	for _, docs := range []int{100, 3 * infer.DefaultBatch, 40000} {
		for _, k := range []int{0, docs / 2, docs - 1} {
			body := numbered(docs, k, `{"a": ]}`+"\n")
			_, wantN, wantErr := oracle(body, typelang.EquivKind)
			reg := New(Options{})
			res, err := reg.Ingest("c", bytes.NewReader(body))
			var got, want *jsontext.SyntaxError
			if !errors.As(err, &got) || !errors.As(wantErr, &want) || *got != *want {
				t.Errorf("docs=%d k=%d: err = %v, oracle: %v", docs, k, err, wantErr)
			}
			if snap, _ := reg.Get("c"); res.Docs != k || wantN != k || snap.Docs != int64(k) {
				t.Errorf("docs=%d k=%d: kept %d docs (snapshot %d, oracle %d)", docs, k, res.Docs, snap.Docs, wantN)
			}
			reg.Close()
		}
	}

	// A body with no line break that ends a document — two documents on
	// its first line, then an array over 40 000 lines, three read
	// blocks, with a defect in its last member — is one window, read to
	// its end before the walk meets the defect: the two documents are
	// kept, and the error is the oracle's.
	var b bytes.Buffer
	b.WriteString(`{"a": 0} {"a": 1} [` + "\n")
	for i := 0; i < 40000; i++ {
		fmt.Fprintf(&b, "{\"a\": %d},\n", i)
	}
	b.WriteString("{\"a\": ]}\n]\n")
	_, wantN, wantErr := oracle(b.Bytes(), typelang.EquivKind)
	reg = New(Options{})
	defer reg.Close()
	res, err = reg.Ingest("c", bytes.NewReader(b.Bytes()))
	var got, want *jsontext.SyntaxError
	if !errors.As(err, &got) || !errors.As(wantErr, &want) || *got != *want {
		t.Errorf("no-boundary body: err = %v, oracle: %v", err, wantErr)
	}
	if snap, _ := reg.Get("c"); res.Docs != 2 || wantN != 2 || snap.Docs != 2 || snap.Type.String() != "{a: Int}" {
		t.Errorf("no-boundary body: kept %d docs (snapshot %d of %s, oracle %d), want 2 of {a: Int}", res.Docs, snap.Docs, snap.Type, wantN)
	}
}

// numbered renders docs one-line documents {"a": i}, with document k
// replaced by bad (k < 0: none).
func numbered(docs, k int, bad string) []byte {
	var b bytes.Buffer
	for i := 0; i < docs; i++ {
		if i == k {
			b.WriteString(bad)
			continue
		}
		fmt.Fprintf(&b, "{\"a\": %d}\n", i)
	}
	return b.Bytes()
}

// TestWarmMapperServesLikeCold: the lexers an ingest ran through are
// kept for the collection's next one, so whatever a failed document or
// a chunk the structural index rejected outright left in them must not
// leak into it. Bad and good bodies alternate fifty times into one
// collection; every call answers exactly as a cold registry's first
// ingest does, and the collection's schema stays the oracle's over
// everything kept.
func TestWarmMapperServesLikeCold(t *testing.T) {
	opts := Options{Equiv: typelang.EquivLabel}
	warm := New(opts)
	var kept []byte
	for i := 0; i < 50; i++ {
		good := jsontext.MarshalLines(genjson.Collection(genjson.Twitter{Seed: int64(i)}, 5))
		bad, prefix := numbered(8, 5, `{"a": trve}`+"\n"), 5 // a failed document: the record falls back, then errors
		if i%2 == 1 {
			bad, prefix = append(numbered(3, -1, ""), `{"s": "unterminated`+"\n"...), 3 // odd quote parity: indexed all the same, the token walk words the error
		}
		for _, body := range [][]byte{bad, good} {
			cold := New(opts)
			want, wantErr := cold.Ingest("c", bytes.NewReader(body))
			got, err := warm.Ingest("c", bytes.NewReader(body))
			if got.Docs != want.Docs || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("round %d: warm ingest kept %d docs (err %v), a cold one %d (err %v)",
					i, got.Docs, err, want.Docs, wantErr)
			}
			got.Stats.ReadNanos, got.Stats.SplitNanos, got.Stats.MapNanos = 0, 0, 0
			want.Stats.ReadNanos, want.Stats.SplitNanos, want.Stats.MapNanos = 0, 0, 0
			got.Stats.BuffersRecycled = want.Stats.BuffersRecycled // the warm collection reuses its chunk array
			if got.Stats.PatternRecords < want.Stats.PatternRecords {
				t.Fatalf("round %d: the kept mapper's pattern tree closed %d objects, a cold one %d",
					i, got.Stats.PatternRecords, want.Stats.PatternRecords)
			}
			got.Stats.PatternRecords = want.Stats.PatternRecords // and knows the layouts the cold one is still learning
			if got.Stats != want.Stats {
				t.Fatalf("round %d: warm ingest counted %+v, a cold one %+v", i, got.Stats, want.Stats)
			}
			cold.Close()
		}
		kept = append(append(kept, numbered(prefix, -1, "")...), good...)
		want, wantN := oracleType(t, kept, typelang.EquivLabel)
		if snap, _ := warm.Get("c"); snap.Docs != int64(wantN) || snap.Type.StringCounted() != want.StringCounted() {
			t.Fatalf("round %d: %d docs %s, oracle %d docs %s",
				i, snap.Docs, snap.Type.StringCounted(), wantN, want.StringCounted())
		}
	}
	warm.Close()
}

// stutterReader delivers its payload then fails with a transport-style
// error — an io.Reader dying mid-body, as a dropped connection does.
type stutterReader struct {
	data []byte
	off  int
}

func (s *stutterReader) Read(p []byte) (int, error) {
	if s.off >= len(s.data) {
		return 0, fmt.Errorf("transport: connection reset mid-body")
	}
	n := copy(p, s.data[s.off:])
	s.off += n
	return n, nil
}

// TestIngestReaderErrorMidBody: when the body reader itself fails —
// not malformed JSON, a transport error — the documents delivered
// before the failure are committed, the error is counted, and the
// collection remains usable.
func TestIngestReaderErrorMidBody(t *testing.T) {
	reg := New(Options{})
	defer reg.Close()
	res, err := reg.Ingest("c", &stutterReader{data: []byte("{\"a\": 1}\n{\"a\": 2}\n")})
	if err == nil || !strings.Contains(err.Error(), "connection reset") {
		t.Fatalf("err = %v, want the transport error surfaced", err)
	}
	if res.Docs != 2 {
		t.Errorf("committed docs = %d, want the 2 delivered before the failure", res.Docs)
	}
	snap, _ := reg.Get("c")
	if snap.Errors != 1 || snap.Docs != 2 {
		t.Errorf("errors=%d docs=%d, want 1/2", snap.Errors, snap.Docs)
	}
	if _, err := reg.Ingest("c", strings.NewReader("{\"b\": true}\n")); err != nil {
		t.Fatalf("ingest after transport error: %v", err)
	}
	snap, _ = reg.Get("c")
	if snap.Docs != 3 {
		t.Errorf("docs after recovery = %d, want 3", snap.Docs)
	}

	// A failure that cuts a document in two: whatever the body's length
	// the ingest reports the transport error — not the syntax error the
	// truncation would read as — and keeps the complete documents before
	// the cut.
	for _, docs := range []int{100, 3 * infer.DefaultBatch, 40000} {
		reg := New(Options{})
		res, err := reg.Ingest("c", &stutterReader{data: numbered(docs, docs-1, `{"a": [1, `)})
		var se *jsontext.SyntaxError
		if err == nil || !strings.Contains(err.Error(), "connection reset") || errors.As(err, &se) {
			t.Errorf("docs=%d: err = %v, want the transport error, not a syntax error", docs, err)
		}
		if res.Docs != docs-1 {
			t.Errorf("docs=%d: kept %d docs, want the %d complete ones", docs, res.Docs, docs-1)
		}
		reg.Close()
	}
}

// TestSchemaGrowsMonotonically: every ingest's snapshot must subsume the
// previous one (the registry's advertised consistency model).
func TestSchemaGrowsMonotonically(t *testing.T) {
	reg := New(Options{Equiv: typelang.EquivKind})
	defer reg.Close()
	prev := typelang.Bottom
	for i, doc := range []string{
		`{"a": 1}`, `{"b": "x"}`, `{"a": 1.5, "c": [1]}`, `{"c": ["s"]}`, `null`,
	} {
		if _, err := reg.Ingest("grow", strings.NewReader(doc+"\n")); err != nil {
			t.Fatal(err)
		}
		snap, _ := reg.Get("grow")
		if !typelang.Subtype(prev, snap.Type) {
			t.Errorf("step %d: snapshot %s does not subsume previous %s", i, snap.Type, prev)
		}
		prev = snap.Type
	}
}

// TestGetUnknownAndList covers the miss path and List ordering.
func TestGetUnknownAndList(t *testing.T) {
	reg := New(Options{})
	defer reg.Close()
	if _, ok := reg.Get("nope"); ok {
		t.Error("Get on an unknown collection must miss")
	}
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := reg.Ingest(name, strings.NewReader("{}\n")); err != nil {
			t.Fatal(err)
		}
	}
	list := reg.List()
	if len(list) != 3 || list[0].Name != "alpha" || list[1].Name != "mid" || list[2].Name != "zeta" {
		names := make([]string, len(list))
		for i, s := range list {
			names[i] = s.Name
		}
		t.Errorf("List order = %v, want [alpha mid zeta]", names)
	}
	if snap, ok := reg.Get("alpha"); !ok || snap.Version != 1 {
		t.Errorf("Get(alpha).Version = %d,%v, want 1,true", snap.Version, ok)
	}
}

// TestDeleteCollection covers the admin delete: existing collections
// are removed (their collector dropped as it stands, never folded into
// a schema nobody receives), missing names report false, snapshots
// taken before the delete stay valid, and the name is reusable — a
// later ingest starts a fresh, empty collection.
func TestDeleteCollection(t *testing.T) {
	reg := New(Options{Equiv: typelang.EquivLabel})
	defer reg.Close()
	if reg.Delete("nope") {
		t.Error("Delete on an unknown collection must report false")
	}
	if _, err := reg.Ingest("c", strings.NewReader(`{"a": 1}`+"\n")); err != nil {
		t.Fatal(err)
	}
	snap, ok := reg.Get("c")
	if !ok || snap.Docs != 1 {
		t.Fatalf("snapshot before delete: %+v, %v", snap, ok)
	}
	// An ingest nobody has read leaves the collector with unsealed work;
	// Delete must not do it.
	if _, err := reg.Ingest("c", strings.NewReader(`{"z": [1]}`+"\n")); err != nil {
		t.Fatal(err)
	}
	held := reg.cols["c"]
	before := held.stats.Snapshot()
	if !reg.Delete("c") {
		t.Fatal("Delete on an existing collection must report true")
	}
	if after := held.stats.Snapshot(); after.RootFuses != before.RootFuses || after.Seals != before.Seals {
		t.Errorf("Delete folded the dropped collector: root_fuses %d→%d seals %d→%d",
			before.RootFuses, after.RootFuses, before.Seals, after.Seals)
	}
	if _, ok := reg.Get("c"); ok {
		t.Error("Get after Delete must miss")
	}
	if got := reg.Stats().Collections; got != 0 {
		t.Errorf("Stats after delete: %d collections, want 0", got)
	}
	// The pre-delete snapshot is immutable and still renders.
	if snap.Type.String() != "{a: Int}" {
		t.Errorf("pre-delete snapshot mutated: %s", snap.Type)
	}
	// The name is reusable from scratch.
	res, err := reg.Ingest("c", strings.NewReader(`{"b": "x"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDocs != 1 || res.Version != 1 {
		t.Errorf("recreated collection: total %d version %d, want 1/1", res.TotalDocs, res.Version)
	}
	snap, _ = reg.Get("c")
	if snap.Type.String() != "{b: Str}" {
		t.Errorf("recreated schema = %s, want {b: Str}", snap.Type)
	}
}

// TestDeleteUnderConcurrentIngest races deletes against ingests on the
// same name: every ingest must either land in the pre-delete collection
// (and die with it) or a fresh one — never panic, never corrupt.
func TestDeleteUnderConcurrentIngest(t *testing.T) {
	reg := New(Options{Equiv: typelang.EquivLabel})
	defer reg.Close()
	docs := genjson.Collection(genjson.Twitter{Seed: 91}, 40)
	data := jsontext.MarshalLines(docs)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, err := reg.Ingest("storm", bytes.NewReader(data)); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			reg.Delete("storm")
		}
	}()
	wg.Wait()
	// Whatever survived is a consistent collection (possibly none).
	if snap, ok := reg.Get("storm"); ok && snap.Docs%int64(len(docs)) != 0 {
		t.Errorf("surviving collection holds a partial ingest: %d docs", snap.Docs)
	}
}

// TestStatsSchemaNodes pins the sealed-snapshot stats: SchemaNodes sums
// the served schema sizes across collections.
func TestStatsSchemaNodes(t *testing.T) {
	reg := New(Options{})
	defer reg.Close()
	if _, err := reg.Ingest("a", strings.NewReader(`{"x": 1}`+"\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Ingest("b", strings.NewReader(`[1, 2]`+"\n")); err != nil {
		t.Fatal(err)
	}
	sa, _ := reg.Get("a")
	sb, _ := reg.Get("b")
	want := sa.Type.Size() + sb.Type.Size()
	if got := reg.Stats().SchemaNodes; got != want {
		t.Errorf("SchemaNodes = %d, want %d", got, want)
	}
}

// TestPerCollectionEquivOverride pins the per-collection equivalence
// overrides: a pinned collection folds under its own equivalence (not
// the registry default), the override is fixed at creation, and a
// disagreeing later override is rejected without touching the
// collection.
func TestPerCollectionEquivOverride(t *testing.T) {
	data := jsontext.MarshalLines(genjson.Collection(genjson.SkewedOptional{Seed: 7, NumFields: 6}, 300))
	wantK, _ := batchType(t, data, typelang.EquivKind)
	wantL, _ := batchType(t, data, typelang.EquivLabel)
	if wantK.StringCounted() == wantL.StringCounted() {
		t.Fatal("fixture does not distinguish K from L; pick a drifting corpus")
	}

	reg := New(Options{Equiv: typelang.EquivKind})
	defer reg.Close()
	l := typelang.EquivLabel
	k := typelang.EquivKind

	// Pinned collection folds under L despite the K-default registry.
	if _, err := reg.IngestWith("pinned", bytes.NewReader(data), CollectionOptions{Equiv: &l}); err != nil {
		t.Fatalf("IngestWith(L): %v", err)
	}
	// Unpinned collection keeps the registry default.
	if _, err := reg.Ingest("default", bytes.NewReader(data)); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	snap, _ := reg.Get("pinned")
	if snap.Equiv != typelang.EquivLabel || snap.Type.StringCounted() != wantL.StringCounted() {
		t.Errorf("pinned collection: equiv %v, schema %s; want L, %s", snap.Equiv, snap.Type, wantL)
	}
	snap, _ = reg.Get("default")
	if snap.Equiv != typelang.EquivKind || snap.Type.StringCounted() != wantK.StringCounted() {
		t.Errorf("default collection: equiv %v, schema %s; want K, %s", snap.Equiv, snap.Type, wantK)
	}

	// A disagreeing override is rejected, and the collection is intact.
	before, _ := reg.Get("pinned")
	if _, err := reg.IngestWith("pinned", bytes.NewReader(data), CollectionOptions{Equiv: &k}); !errors.Is(err, ErrEquivMismatch) {
		t.Fatalf("IngestWith(K) on L collection: err = %v, want ErrEquivMismatch", err)
	}
	after, _ := reg.Get("pinned")
	if after.Docs != before.Docs || after.Version != before.Version {
		t.Errorf("rejected ingest mutated the collection: %+v -> %+v", before, after)
	}
	// A matching override (and no override at all) still ingests.
	if _, err := reg.IngestWith("pinned", bytes.NewReader(data), CollectionOptions{Equiv: &l}); err != nil {
		t.Fatalf("IngestWith(L) again: %v", err)
	}
	if _, err := reg.Ingest("pinned", bytes.NewReader(data)); err != nil {
		t.Fatalf("unpinned ingest into pinned collection: %v", err)
	}
}

// TestCreateCollection pins Create: idempotent creation, the created
// flag, the pinned equivalence in the snapshot, and the mismatch error.
func TestCreateCollection(t *testing.T) {
	reg := New(Options{Equiv: typelang.EquivKind})
	defer reg.Close()
	l := typelang.EquivLabel

	snap, created, err := reg.Create("c", CollectionOptions{Equiv: &l})
	if err != nil || !created {
		t.Fatalf("Create: snap=%+v created=%v err=%v", snap, created, err)
	}
	if snap.Equiv != typelang.EquivLabel || snap.Docs != 0 {
		t.Errorf("created snapshot: %+v, want empty L collection", snap)
	}
	// Idempotent re-create: exists, compatible.
	if _, created, err = reg.Create("c", CollectionOptions{Equiv: &l}); err != nil || created {
		t.Fatalf("re-Create(L): created=%v err=%v, want existing, no error", created, err)
	}
	if _, created, err = reg.Create("c", CollectionOptions{}); err != nil || created {
		t.Fatalf("re-Create(no override): created=%v err=%v", created, err)
	}
	// Mismatch.
	k := typelang.EquivKind
	if _, _, err = reg.Create("c", CollectionOptions{Equiv: &k}); !errors.Is(err, ErrEquivMismatch) {
		t.Fatalf("Create(K) on L collection: err = %v, want ErrEquivMismatch", err)
	}
	// The rejected create did not replace the collection.
	if snap, ok := reg.Get("c"); !ok || snap.Equiv != typelang.EquivLabel {
		t.Errorf("collection after rejected create: %+v", snap)
	}
}

// TestPipelineStatsReconcile pins the flight recorder's accounting
// identity: once ingest quiesces, a collection's cumulative
// Snapshot.Pipeline equals the sum of the per-call IngestResult.Stats
// deltas on every map-side counter (the read-side counters — the
// fuses, seals and clock of reads that found something new — accrue on
// the shared collector directly, so the cumulative figures can only
// exceed the deltas there), and the registry-wide Stats().Pipeline is
// the sum over live collections. The same identity is what makes
// /metrics reconcile with /v1/stats on the daemon.
func TestPipelineStatsReconcile(t *testing.T) {
	reg := New(Options{Equiv: typelang.EquivLabel})

	var sum infer.StatsSnapshot
	var wantDocs, wantBytes int64
	for i := 0; i < 4; i++ {
		data := jsontext.MarshalLines(genjson.Collection(genjson.Twitter{Seed: int64(i)}, 50))
		res, err := reg.Ingest("c", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if res.Stats.ChunksSplit < 1 || res.Stats.Seals != 0 {
			t.Errorf("per-call delta: %d windows, %d seals; want at least one, absorbed in line", res.Stats.ChunksSplit, res.Stats.Seals)
		}
		sum.Add(res.Stats)
		wantDocs += int64(res.Docs)
		wantBytes += res.Bytes
	}

	snap, ok := reg.Get("c")
	if !ok {
		t.Fatal("collection missing")
	}
	p := snap.Pipeline
	// Map-side counters: exact equality with the delta sum.
	exact := [][3]int64{
		{p.ChunksSplit, sum.ChunksSplit, 0},
		{p.PatternRecords, sum.PatternRecords, 1},
		{p.BytesCopied, sum.BytesCopied, 2},
		{p.BuffersRecycled, sum.BuffersRecycled, 3},
		{p.FallbackRecords, sum.FallbackRecords, 4},
		{p.ScanDelegations, sum.ScanDelegations, 6},
		{p.ReadNanos, sum.ReadNanos, 7},
		{p.SplitNanos, sum.SplitNanos, 8},
		{p.MapNanos, sum.MapNanos, 9},
		{p.BytesReindexed, sum.BytesReindexed, 10},
	}
	for _, e := range exact {
		if e[0] != e[1] {
			t.Errorf("map-side field %d: cumulative=%d, delta sum=%d", e[2], e[0], e[1])
		}
	}
	// The work accounted matches the registry's own accounting.
	if wantDocs != snap.Docs || wantBytes != snap.Bytes {
		t.Errorf("ingested %d docs and %d bytes, snapshot holds %d and %d — must agree",
			wantDocs, wantBytes, snap.Docs, snap.Bytes)
	}
	if p.FallbackRecords != 0 || p.PatternRecords == 0 {
		t.Errorf("fallbacks=%d pattern=%d on clean repeating input, want 0 and some", p.FallbackRecords, p.PatternRecords)
	}
	// Every body was one window, absorbed in line: no chunk seal, no
	// committer and so no reduce clock. Read-side, the collector saw
	// — four ingests by a lone shipper, one read — one cache-miss
	// read, whose one seal (the one shard that holds data; nothing to
	// fuse) is all the cumulative count has.
	if p.ChunksSplit != 4 || sum.Seals != 0 || p.ReduceNanos != 0 {
		t.Errorf("ChunksSplit=%d, ingest seals=%d, ReduceNanos=%d; want 4 in-line chunks, 0, 0",
			p.ChunksSplit, sum.Seals, p.ReduceNanos)
	}
	if p.RootFuses != 1 || p.FuseNanos <= 0 {
		t.Errorf("RootFuses=%d FuseNanos=%d after one read, want 1 and a running clock", p.RootFuses, p.FuseNanos)
	}
	if p.Seals != 1 {
		t.Errorf("the read sealed %d times, want 1", p.Seals)
	}

	// A second collection: registry-wide Stats aggregates both.
	if _, err := reg.Ingest("d", strings.NewReader(`{"x": 1}`+"\n")); err != nil {
		t.Fatal(err)
	}
	snapD, _ := reg.Get("d")
	agg := reg.Stats().Pipeline
	var want infer.StatsSnapshot
	want.Add(snap.Pipeline)
	want.Add(snapD.Pipeline)
	// Every field: both collections are quiet, so the reads Stats
	// makes are cache hits and record nothing.
	if agg != want {
		t.Errorf("Stats().Pipeline=%+v, want the sum over collections %+v", agg, want)
	}
	reg.Close()
}

// TestCollectionsParkNoGoroutines is the goroutine census: a collection
// is state, not a process. Creating 200, ingesting into each and
// deleting half leaves the goroutine count where it started — an
// ingest's source and workers end with the call, and the collector
// runs on its callers.
func TestCollectionsParkNoGoroutines(t *testing.T) {
	reg := New(Options{Equiv: typelang.EquivLabel})
	defer reg.Close()
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("c%d", i)
		if _, err := reg.Ingest(name, strings.NewReader(`{"a": 1}`+"\n")); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 && !reg.Delete(name) {
			t.Fatalf("Delete(%s) = false", name)
		}
	}
	if got := len(reg.List()); got != 100 {
		t.Fatalf("%d collections live, want 100", got)
	}
	after := runtime.NumGoroutine()
	for i := 0; i < 1000 && after > before; i++ {
		// The last ingest's helper goroutines may still be returning.
		runtime.Gosched()
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("%d goroutines after 200 collections, %d before: collections must not park any", after, before)
	}
}

// TestSealsFollowReadsNotIngests replays the shipper shape of the
// repository benchmark's serve_mixed workload — one one-window body
// after another into one collection, a schema read after every 8th —
// and ties the reduce to its readers: a lone shipper fills one shard,
// so each read that finds news seals exactly that shard and fuses
// nothing, and an ingest — absorbed in line — seals nothing at all.
func TestSealsFollowReadsNotIngests(t *testing.T) {
	const bodies, perBody = 48, 40
	reg := New(Options{Equiv: typelang.EquivLabel})
	defer reg.Close()
	var reads int64
	for i := 0; i < bodies; i++ {
		data := jsontext.MarshalLines(genjson.Collection(genjson.Twitter{Seed: int64(i)}, perBody))
		if _, err := reg.Ingest("c", bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			reg.Get("c")
			reads++
		}
	}
	snap, _ := reg.Get("c") // quiet since the last read: a cache hit
	p := snap.Pipeline
	if snap.Docs != bodies*perBody {
		t.Fatalf("%d docs, want %d", snap.Docs, bodies*perBody)
	}
	if p.RootFuses != reads {
		t.Errorf("RootFuses=%d over %d ingests and %d reads, want one per read", p.RootFuses, bodies, reads)
	}
	if p.Seals != reads || p.ChunksSplit != bodies || p.ReduceNanos != 0 {
		t.Errorf("Seals=%d ChunksSplit=%d ReduceNanos=%d over %d one-window ingests and %d reads, want one seal per read and every window in line",
			p.Seals, p.ChunksSplit, p.ReduceNanos, bodies, reads)
	}
}

// TestPipelineStatsAdversarialThroughRegistry: the fallback counter
// surfaces through the registry exactly as through the bare pipeline —
// a malformed literal delegates one record, and so does an unterminated
// string, not the records before it, which came off the index — and
// both ride the per-call delta as well as the cumulative snapshot.
func TestPipelineStatsAdversarialThroughRegistry(t *testing.T) {
	reg := New(Options{Equiv: typelang.EquivLabel})
	defer reg.Close()

	res, err := reg.Ingest("c", strings.NewReader(`{"a": 1}`+"\n"+`{"a": trve}`+"\n"))
	if err == nil {
		t.Fatal("malformed literal was accepted")
	}
	if res.Docs != 1 || res.Stats.FallbackRecords != 1 {
		t.Errorf("bad literal delta: docs=%d fallback=%d, want 1/1", res.Docs, res.Stats.FallbackRecords)
	}
	res2, err := reg.Ingest("c", strings.NewReader(`{"a": 1}`+"\n"+`{"a": 2}`+"\n"+`{"a": "unterminated`+"\n"))
	if err == nil {
		t.Fatal("unterminated string was accepted")
	}
	if res2.Docs != 2 || res2.Stats.FallbackRecords != 1 {
		t.Errorf("unterminated delta: docs=%d fallback=%d, want 2/1", res2.Docs, res2.Stats.FallbackRecords)
	}
	snap, _ := reg.Get("c")
	if snap.Docs != 3 || snap.Pipeline.FallbackRecords != 2 {
		t.Errorf("cumulative: docs=%d fallback=%d, want 3/2", snap.Docs, snap.Pipeline.FallbackRecords)
	}
	if snap.Errors != 2 {
		t.Errorf("Errors=%d, want 2", snap.Errors)
	}
}

// TestWarmIngestAllocs pins what an ingest builds per call once its
// collection is warm: re-ingesting a 100-tweet body — one window —
// reuses the collection's lexers, chunk array and the accumulator of
// the shard it lands on, so what is left is the call's own bookkeeping
// (22 allocations when this was written; the accumulator's staging pools
// take some twenty passes over the body to stop growing). Before the
// in-line shape an ingest allocated ~5900 times (cold accumulators,
// mappers, a chunk array, four goroutines, a chunk seal).
func TestWarmIngestAllocs(t *testing.T) {
	body := jsontext.MarshalLines(genjson.Collection(genjson.Twitter{Seed: 1}, 100))
	reg := New(Options{Equiv: typelang.EquivLabel})
	defer reg.Close()
	rd := bytes.NewReader(body)
	ingest := func() {
		rd.Reset(body)
		if _, err := reg.Ingest("c", rd); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		ingest()
	}
	if n := testing.AllocsPerRun(20, ingest); n > 150 {
		t.Errorf("a warm one-window ingest allocates %.0f times, want <= 150", n)
	}
}

// TestWideCollectionLeavesOthersWarm: field names are interned per
// mapper, so a collection that meets more distinct names than a lexer's
// intern cache holds (1 << 16) — here 70 000, then deleted — leaves
// every other collection's kept mappers, and so its warm ingest, as
// they were. With one registry-wide interner it turned mapper reuse off
// for the whole process, and the warm 100-tweet ingest below allocated
// 1218 times.
func TestWideCollectionLeavesOthersWarm(t *testing.T) {
	body := jsontext.MarshalLines(genjson.Collection(genjson.Twitter{Seed: 1}, 100))
	reg := New(Options{Equiv: typelang.EquivLabel})
	defer reg.Close()
	rd := bytes.NewReader(body)
	ingest := func() {
		rd.Reset(body)
		if _, err := reg.Ingest("c", rd); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		ingest()
	}
	// 70 documents of 1000 names each, zero-padded so the names sort in
	// arrival order and each record's field table only appends.
	var wide []byte
	for d := range 70 {
		wide = append(wide, '{')
		for k := range 1000 {
			if k > 0 {
				wide = append(wide, ',')
			}
			wide = fmt.Appendf(wide, `"k%08d":0`, d*1000+k)
		}
		wide = append(wide, "}\n"...)
	}
	if res, err := reg.Ingest("wide", bytes.NewReader(wide)); err != nil || res.Docs != 70 {
		t.Fatalf("wide ingest: %d docs, %v", res.Docs, err)
	}
	if !reg.Delete("wide") {
		t.Fatal("Delete(wide) missed")
	}
	if n := testing.AllocsPerRun(20, ingest); n > 150 {
		t.Errorf("after a 70000-name collection, a warm one-window ingest allocates %.0f times, want <= 150", n)
	}
}

// goroutineCountingReader samples the goroutine census from inside the
// body reads the ingest pipeline makes.
type goroutineCountingReader struct {
	r   io.Reader
	max int
}

func (g *goroutineCountingReader) Read(p []byte) (int, error) {
	g.max = max(g.max, runtime.NumGoroutine())
	return g.r.Read(p)
}

// TestOneChunkIngestStartsNoGoroutine: an ingest has no parallelism to
// buy, however long its body — a 100-tweet body of one window, or 2000
// tweets of several 256 KiB read blocks as NDJSON and pretty-printed,
// each also with a malformed document in its last block. Every window
// is read, lexed and absorbed on the caller's goroutine straight into a
// collector shard; the counters say so (every window direct, nothing
// sealed, no reduce clock), and schema, count, error text and absolute
// offset are the oracle's.
func TestOneChunkIngestStartsNoGoroutine(t *testing.T) {
	long := genjson.Collection(genjson.Twitter{Seed: 3}, 2000)
	var pretty bytes.Buffer
	for _, d := range long {
		pretty.Write(jsontext.MarshalIndent(d, "  "))
		pretty.WriteByte('\n')
	}
	for _, c := range []struct {
		name    string
		body    []byte
		windows int64
	}{
		{"one-window", jsontext.MarshalLines(genjson.Collection(genjson.Twitter{Seed: 2}, 100)), 1},
		{"ndjson", jsontext.MarshalLines(long), 4},
		{"pretty", pretty.Bytes(), 4},
	} {
		for _, tail := range []string{"", `{"a": ]}` + "\n" + `{"b": 1}` + "\n"} {
			body := append(c.body[:len(c.body):len(c.body)], tail...)
			want, wantN, wantErr := oracle(body, typelang.EquivLabel)
			reg := New(Options{Equiv: typelang.EquivLabel})
			rd := &goroutineCountingReader{r: bytes.NewReader(body)}
			before := runtime.NumGoroutine()
			res, err := reg.Ingest("c", rd)
			label := fmt.Sprintf("%s/malformed=%t", c.name, tail != "")
			var got, wantSE *jsontext.SyntaxError
			if (err == nil) != (wantErr == nil) || (err != nil && (!errors.As(err, &got) || !errors.As(wantErr, &wantSE) || *got != *wantSE)) {
				t.Errorf("%s: err = %v, oracle: %v", label, err, wantErr)
			}
			if rd.max != before {
				t.Errorf("%s: %d goroutines while the body was read, %d before the call", label, rd.max, before)
			}
			if s := res.Stats; s.ChunksSplit < c.windows || s.Seals != 0 || s.ReduceNanos != 0 {
				t.Errorf("%s: chunks_split=%d seals=%d reduce=%dns, want >= %d windows absorbed in line: 0, 0",
					label, s.ChunksSplit, s.Seals, s.ReduceNanos, c.windows)
			}
			if snap, _ := reg.Get("c"); res.Docs != wantN || snap.Docs != int64(wantN) || snap.Type.StringCounted() != want.StringCounted() {
				t.Errorf("%s: kept %d docs (snapshot %d) as %s, oracle %d as %s",
					label, res.Docs, snap.Docs, snap.Type.StringCounted(), wantN, want.StringCounted())
			}
			reg.Close()
		}
	}
}
