package infer

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/typelang"
)

// This file pins the input protocol of both shapes: windows cut at the
// raw newlines boundary certifies, without parsing, so that on valid
// input no walk is cut short; and, on malformed input, the straddler —
// the record a window's end cut — whose error the line after the window
// decides, so that every walk is final in either shape, and the
// windows the parallel shape walked past that error count for nothing.

// FuzzStreamWindows pins the window protocol on arbitrary bytes: a run
// at windowWorkers cutting windows of a fuzz-chosen target — one byte to
// the whole input — must yield the oracle's outcome over the same bytes
// from every input kind: schema (plain and counted), document count,
// error text and absolute offset, under K and under L — every walk is
// final, a straddler's error decided by the line after its window. On
// every input the oracle accepts, no byte may be walked twice
// (assertEngineYields): the cut rule is exact.
func FuzzStreamWindows(f *testing.F) {
	for _, in := range windowInputs {
		for _, target := range []uint{0, 6, 63} {
			f.Add([]byte(in), target)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, target uint) {
		ck := Options{ChunkBytes: 1 + int(target%uint(len(data)+1))}
		for _, e := range sweepEquivs {
			ck.Equiv = e
			want, wantN, wantErr := oracle(data, e)
			assertEngineYields(t, "fuzz", data, ck, windowWorkers, want, wantN, wantErr)
		}
	})
}

// TestStraddlerIsMalformedAndReindexedOnce pins where a document may span a
// cut, and what that costs: a document over several lines between two
// short ones, under a byte target far below its length, is one window
// of its own — every window ends where a document does — so no shape
// walks a byte twice. A defect in the window after that document, or a
// window later, is the oracle's error. Only a malformed document is cut:
// a long valid prefix, then a member with no comma before it on a line
// of its own, whose line break passes the test. That straddler's part
// of its window is indexed again once, with the line after the window,
// in every shape alike: bytes_reindexed is the same at every worker
// count and no more than the straddler, and fallback_records counts the
// straddler once.
func TestStraddlerIsMalformedAndReindexedOnce(t *testing.T) {
	doc := "{\n\"a\": 1,\n\"b\": [2,\n3]\n}\n"
	data := []byte("1\n" + doc + "2\n")
	for _, workers := range windowWorkers {
		for _, input := range inputKinds {
			label := fmt.Sprintf("w%d/%s", workers, input)
			var st PipelineStats
			got, n, err := inferStreamOver(t, input, data, Options{Workers: workers, ChunkBytes: 4, Stats: &st})
			if err != nil || n != 3 {
				t.Fatalf("%s: %d documents, err %v; want 3", label, n, err)
			}
			if want := "(Int + {a: Int, b: [Int]})"; got.String() != want {
				t.Errorf("%s: schema %s, want %s", label, got, want)
			}
			s := st.Snapshot()
			if s.BytesReindexed != 0 || s.FallbackRecords != 0 {
				t.Errorf("%s: bytes_reindexed=%d fallback_records=%d; want 0 and 0: no window ends inside a document", label, s.BytesReindexed, s.FallbackRecords)
			}
			if s.ChunksSplit != 2 || s.SplitNanos <= 0 {
				t.Errorf("%s: windows=%d cut clock %dns; want 2 (\"1\" and the document, then \"2\"), each cut on the clock", label, s.ChunksSplit, s.SplitNanos)
			}
			wantSeals := int64(1) // the run's
			if workers > 1 {
				wantSeals += s.ChunksSplit
			}
			if s.Seals != wantSeals {
				t.Errorf("%s: windows=%d seals=%d; want the run's seal and, at several workers, one per window", label, s.ChunksSplit, s.Seals)
			}
		}
	}

	for _, tail := range []string{"{\"c\": ]}\n", "2\n{\"c\": tru}\n"} {
		broken := []byte("1\n" + doc + tail)
		for _, e := range sweepEquivs {
			want, wantN, wantErr := oracle(broken, e)
			for _, size := range []int{4, 8, len(doc)} {
				assertEngineYields(t, fmt.Sprintf("%.20q", tail), broken, Options{Equiv: e, ChunkBytes: size}, windowWorkers, want, wantN, wantErr)
			}
		}
	}

	// The one line break inside straddler that passes the test is the
	// one before "b", so its window ends there.
	straddler := "{\"big\": [\n" + strings.Repeat("{\"k\": [1, 2, 3]},\n", 200) + "1]\n\"b\": 2}\n"
	cut := int64(strings.Index(straddler, `"b"`))
	broken := []byte("1\n" + straddler + "2\n")
	want, wantN, wantErr := oracle(broken, typelang.EquivKind)
	for _, size := range []int{4, len(straddler) / 3} {
		assertEngineYields(t, "straddler", broken, Options{ChunkBytes: size}, windowWorkers, want, wantN, wantErr)
		for _, workers := range windowWorkers {
			for _, input := range inputKinds {
				label := fmt.Sprintf("straddler/w%d/%s/bytes%d", workers, input, size)
				var st PipelineStats
				if _, _, err := inferStreamOver(t, input, broken, Options{Workers: workers, ChunkBytes: size, Stats: &st}); err == nil {
					t.Fatalf("%s: no error; want the oracle's %v", label, wantErr)
				}
				if s := st.Snapshot(); s.BytesReindexed != cut || s.FallbackRecords != 1 {
					t.Errorf("%s: bytes_reindexed=%d fallback_records=%d; want %d, the straddler's part of its window once, and the straddler once",
						label, s.BytesReindexed, s.FallbackRecords, cut)
				}
			}
		}
	}
}

// TestSequentialShapeNeverSplits pins that no shape parses to cut: every
// run cuts windows at the line breaks boundary certifies and lets the
// walks find the documents. On NDJSON — at every worker count, from a
// mapping and from a reader, and through a collector feed — and on
// `jsgen -indent` layouts at four workers, no byte is walked twice, and
// at several workers the windows are the batch-document chunks a
// boundary scan would have cut. One pretty-printed document of over a
// megabyte under a 64 KiB byte target is one window, walked once.
func TestSequentialShapeNeverSplits(t *testing.T) {
	const docs, batch = 100, 16
	ndjson := jsontext.MarshalLines(genjson.Collection(genjson.Twitter{Seed: 22}, docs))
	pretty := indented(t, ndjson)
	for _, c := range []struct {
		name string
		data []byte
		opts Options
	}{
		{"ndjson-w1", ndjson, Options{Workers: 1, ChunkBytes: 2 << 10}},
		{"ndjson-w2", ndjson, Options{Workers: 2, batch: batch}},
		{"ndjson-w4", ndjson, Options{Workers: 4, batch: batch}},
		{"indent-w4", pretty, Options{Workers: 4, batch: batch}},
	} {
		want, wantN, _ := oracle(c.data, typelang.EquivKind)
		inputs := inputKinds
		if c.opts.Workers == 1 {
			inputs = slices.Concat(inputKinds, []string{"into"}) // a collector feed takes the sequential shape
		}
		for _, input := range inputs {
			var st PipelineStats
			c.opts.Stats = &st
			got, n, err := inferStreamOver(t, input, c.data, c.opts)
			if err != nil || n != wantN || got.StringCounted() != want.StringCounted() {
				t.Fatalf("%s/%s: %d documents, err %v, schema %s; want %d of %s", c.name, input, n, err, got.StringCounted(), wantN, want.StringCounted())
			}
			s := st.Snapshot()
			if s.BytesReindexed != 0 || s.SplitNanos <= 0 {
				t.Errorf("%s/%s: bytes_reindexed=%d cut clock %dns; want 0 and a running clock", c.name, input, s.BytesReindexed, s.SplitNanos)
			}
			parallel := c.opts.Workers > 1
			if parallel && s.ChunksSplit != (docs+batch-1)/batch {
				t.Errorf("%s/%s: chunks_split=%d; want %d windows", c.name, input, s.ChunksSplit, (docs+batch-1)/batch)
			}
			if !parallel && (s.ChunksSplit < 2 || s.Seals > 1) {
				t.Errorf("%s/%s: chunks_split=%d seals=%d; want several windows, all absorbed in line", c.name, input, s.ChunksSplit, s.Seals)
			}
		}
	}

	var big bytes.Buffer
	big.WriteString("[\n")
	for i, d := range genjson.Collection(genjson.Twitter{Seed: 23}, 1000) {
		if i > 0 {
			big.WriteString(",\n")
		}
		big.Write(jsontext.MarshalIndent(d, "  "))
		if big.Len() > 1<<20 {
			break
		}
	}
	big.WriteString("\n]\n")
	want, _, _ := oracle(big.Bytes(), typelang.EquivKind)
	for _, input := range inputKinds {
		var st PipelineStats
		got, n, err := inferStreamOver(t, input, big.Bytes(), Options{Workers: 4, ChunkBytes: 64 << 10, Stats: &st})
		if err != nil || n != 1 || got.StringCounted() != want.StringCounted() {
			t.Fatalf("big/%s: %d documents, err %v; want the one document's schema", input, n, err)
		}
		if s := st.Snapshot(); s.BytesReindexed != 0 || s.ChunksSplit != 1 {
			t.Errorf("big/%s: bytes_reindexed=%d over %d windows of a %d-byte document; want 0 over one window", input, s.BytesReindexed, s.ChunksSplit, big.Len())
		}
	}
}
