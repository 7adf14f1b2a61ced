package infer

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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

// windowChunkings are byte targets under which a run cuts many windows:
// one document each, a few documents, many.
var windowChunkings = []Options{{ChunkBytes: 1}, {ChunkBytes: 7}, {ChunkBytes: 64}, {ChunkBytes: 4096}}

// windowWorkers are the worker counts of the window sweeps: the
// sequential shape, and the parallel one with windows in flight.
var windowWorkers = []int{1, 2, 4}

// indented re-renders the documents of data one per several lines, the
// layout `jsgen -indent` writes.
func indented(t *testing.T, data []byte) []byte {
	t.Helper()
	dec := jsontext.NewDecoder(bytes.NewReader(data))
	var out bytes.Buffer
	for {
		v, err := dec.Decode()
		if errors.Is(err, io.EOF) {
			return out.Bytes()
		}
		if err != nil {
			t.Fatal(err)
		}
		out.Write(jsontext.MarshalIndent(v, "  "))
		out.WriteByte('\n')
	}
}

// assertWindowsMatchOracle is assertMatchesOracle at windowWorkers under
// windowChunkings: every input kind, both equivalences.
func assertWindowsMatchOracle(t *testing.T, label string, data []byte) {
	t.Helper()
	for _, e := range sweepEquivs {
		want, wantN, wantErr := oracle(data, e)
		for _, ck := range windowChunkings {
			ck.Equiv = e
			assertEngineYields(t, label, data, ck, windowWorkers, want, wantN, wantErr)
		}
	}
}

// TestWindowsMatchOracleFixtures sweeps every checked-in fixture, as
// NDJSON and indented (documents over many lines, of which only the
// last ends a window).
func TestWindowsMatchOracleFixtures(t *testing.T) {
	forEachFixture(t, func(name string, data []byte) {
		assertWindowsMatchOracle(t, name, data)
		assertWindowsMatchOracle(t, name+"-indent", indented(t, data))
	})
}

// TestWindowsMatchOracleGenerated sweeps every generator family in both
// layouts.
func TestWindowsMatchOracleGenerated(t *testing.T) {
	for _, g := range sweepGenerators {
		data := jsontext.MarshalLines(genjson.Collection(g, 40))
		assertWindowsMatchOracle(t, g.Name(), data)
		assertWindowsMatchOracle(t, g.Name()+"-indent", indented(t, data))
	}
}

// windowEdgeCases are the layouts and defects the straddler rule has to
// get right at a window's end.
var windowEdgeCases = []string{
	// Pretty-printed and concatenated layouts, CRLF, no newline at all.
	"{\n  \"a\": [1,\n 2],\n  \"s\": \"x\\\"\\n{\"\n}\n{\n\"a\": [3], \"s\": \"}\"\n}\n",
	"{\"a\": 1} {\"a\": 2}\n{\"b\": \"x\"} [1,\n2] 3\n\n\n4",
	"{\"a\": 1}\r\n{\r\n\"a\": [1,\r\n2]\r\n}\r\n",
	`{"a": 1} {"a": 2} {"b": "x"}`,
	// Valid documents broken before and after every separator and
	// bracket: no line break inside them may end a window.
	"{\"a\"\n:\n1\n,\"b\"\n:[\n2\n,3\n]\n}\n[\n]\n{\n}\n\"s\"\n",
	// Lines that begin with blanks, a line of blanks between documents
	// and blanks at the end of input: every document still ends a window.
	" {\"a\": 1}\n\t[1,\n 2]\n  \n\t \"s\"\n {\n  \"b\": {}\n }\n 3\n  ",
	// A document far longer than the window, between short ones.
	"1\n[" + strings.Repeat("{\"k\": [1, 2, 3]},\n", 200) + "null]\n2\n",
	// A raw newline inside a string at the cut; a stray backslash, an
	// unterminated escape and a short \u escape before it.
	"{\"a\": 1}\n{\"s\": \"line\nbreak\"}\n{\"b\": 2}\n",
	"{\"a\": 1}\\\n{\"b\": 2}\n",
	"{\"a\": 1}\n{\"s\": \"x\\\n\"}\n",
	"{\"a\": 1}\n{\"s\": \"\\u12\n34\"}\n{\"b\": 2}\n",
	// A \u escape cut by a line break whose next line passes the test:
	// "\n" is no hex digit, so that is the error, not a truncation.
	"\"\\u\n0\n0",
	// Structural defects in the first, a middle and the last window.
	"{]\n{\"a\": 1}\n", "{\"a\": 1}\n{\n\"a\": ]\n}\n{\"b\": 2}\n", "{\"a\": 1}\n{\n\"a\": 1,\n}\n",
	// Truncated literals, escapes and containers at the end of input.
	"{\"a\": 1}\ntru", "{\"a\": 1}\n\"\\u12", "{\"a\": 1}\n\"abc\\", "{\"a\": 1}\n{\n\"a\": [1,\n", "{\"a\": 1}\n12e", "{\"a\":\n",
	strings.Repeat("[\n", jsontext.MaxDepth+2),
}

// brokenStrings are the defects that leave a run of bytes with an odd
// number of structural quotes — what the index once rejected a whole
// chunk for, to be lexed by the reference lexer: an unterminated string
// before more documents and at the end of input, a raw newline inside a
// string, a stray quote after a document and alone.
var brokenStrings = []string{
	"{\"s\": \"open\n{\"b\": 2}\n",
	"{\"s\": \"open",
	"{\"s\": \"line\nbreak\"}\n{\"b\": 2}\n",
	"{\"b\": 2} \"\n{\"b\": 3}\n",
	"\"",
}

// straddleDefects put a defect after a document that spans lines: in
// the window right after the one whose end cut that document, and
// behind lines — a bare key, a member's tail, a closing bracket — from
// which a window's speculative walk fails before it reaches the defect.
var straddleDefects = []string{
	"{\"a\": 1}\n{\n\"s\": \"x\",\n\"t\": [1,\n2]\n}\n{\"b\": tru}\n",
	"{\n\"a\": {\n\"b\": [\n1\n]\n}\n}\n{\"c\": 1}\n{\"d\": ]}\n{\"e\": 2}\n",
	"[\n{\"k\": 1},\n{\"k\": 2}\n]\n{\n\"s\": \"open\n}\n",
	"{\n\"a\": 1\n}\n{\n\"a\":\n}\n",
}

// TestBrokenStringsMatchOracle sweeps brokenStrings after 0, 3, 8 and
// DefaultBatch good documents — so that each is met mid-chunk and as
// the first record of a later chunk — through every worker count, input
// kind and chunking, through every window target, and through the one
// window target that cuts exactly at the defect's first raw newline;
// then straddleDefects under every window length from one byte to the
// whole input. Each time: the oracle's schema and count of the
// preceding documents, its error text and its absolute offset,
// whichever walk met the defect — never the error of a speculative walk
// the committer discarded.
func TestBrokenStringsMatchOracle(t *testing.T) {
	good := `{"a": 1, "s": "x"}` + "\n"
	for _, defect := range brokenStrings {
		for _, n := range []int{0, 3, 8, DefaultBatch} {
			data := []byte(strings.Repeat(good, n) + defect)
			label := fmt.Sprintf("%d+%.20q", n, defect)
			assertMatchesOracle(t, label, data, Options{}, Options{batch: 4}, Options{batch: 1}, Options{ChunkBytes: 2 * len(good)})
			assertWindowsMatchOracle(t, label, data)
			if i := strings.IndexByte(defect, '\n'); i >= 0 {
				for _, e := range sweepEquivs {
					want, wantN, wantErr := oracle(data, e)
					assertEngineYields(t, label+"/cut", data, Options{Equiv: e, ChunkBytes: n*len(good) + i + 1}, windowWorkers, want, wantN, wantErr)
				}
			}
		}
	}
	for _, defect := range straddleDefects {
		for _, e := range sweepEquivs {
			want, wantN, wantErr := oracle([]byte(defect), e)
			if wantErr == nil {
				t.Fatalf("%q: the oracle accepts it; a straddle defect must be one", defect)
			}
			for size := 1; size <= len(defect); size++ {
				assertEngineYields(t, fmt.Sprintf("%.20q", defect), []byte(defect), Options{Equiv: e, ChunkBytes: size}, windowWorkers, want, wantN, wantErr)
			}
		}
	}
}

// windowInputs are those, the shared malformed inputs and the label
// sets typelang's key once confused.
var windowInputs = slices.Concat(windowEdgeCases, brokenStrings, malformedInputs, collidingLabelSets)

// TestWindowsMatchOracleEdgeCases runs them under every window target.
func TestWindowsMatchOracleEdgeCases(t *testing.T) {
	for _, in := range windowInputs {
		assertWindowsMatchOracle(t, fmt.Sprintf("%.40q", in), []byte(in))
	}
}

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
