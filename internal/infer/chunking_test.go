package infer

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/mison"
)

// scanSplitter is the byte-at-a-time reference splitter: a
// string/escape/depth state machine over every byte, the independent
// implementation mison.Chunker is compared against, and the oracle of
// where document-target windows fall on NDJSON.
type scanSplitter struct {
	inStr, esc bool
	depth      int
}

func (s *scanSplitter) Splits(block []byte, dst []int) []int {
	for i, c := range block {
		if s.inStr {
			switch {
			case s.esc:
				s.esc = false
			case c == '\\':
				s.esc = true
			case c == '"':
				s.inStr = false
			}
			continue
		}
		switch c {
		case '"':
			s.inStr = true
		case '{', '[':
			s.depth++
		case '}', ']':
			if s.depth > 0 {
				// Underflow only happens on malformed input; clamping
				// keeps later split points valid so the error stays
				// confined to its own chunk.
				s.depth--
			}
		case '\n':
			if s.depth == 0 {
				dst = append(dst, i+1)
			}
		}
	}
	return dst
}

// collectSplits feeds data to sp in blocks of at most blockSize bytes
// and returns the absolute split offsets.
func collectSplits(t *testing.T, sp interface{ Splits([]byte, []int) []int }, data []byte, blockSize int) []int {
	t.Helper()
	var out []int
	var buf []int
	for lo := 0; lo < len(data); lo += blockSize {
		hi := min(lo+blockSize, len(data))
		buf = sp.Splits(data[lo:hi], buf[:0])
		for _, rel := range buf {
			out = append(out, lo+rel)
		}
	}
	return out
}

// assertSameSplits drives both splitters over data at several block
// sizes — exercising the mison chunker's cross-block string, escape and
// depth carries — and demands byte-identical split candidates.
func assertSameSplits(t *testing.T, label string, data []byte) {
	t.Helper()
	for _, blockSize := range []int{1, 3, 7, 63, 64, 65, 256, 1 << 20} {
		want := collectSplits(t, &scanSplitter{}, data, blockSize)
		got := collectSplits(t, mison.NewChunker(), data, blockSize)
		if len(want) != len(got) {
			t.Fatalf("%s/block=%d: %d mison splits, want %d", label, blockSize, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s/block=%d: split %d at %d, want %d", label, blockSize, i, got[i], want[i])
			}
		}
	}
}

// TestMisonChunkerMatchesScanChunkerFixtures pins the tentpole's
// boundary equivalence on every checked-in NDJSON fixture.
func TestMisonChunkerMatchesScanChunkerFixtures(t *testing.T) {
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
		assertSameSplits(t, filepath.Base(name), data)
	}
}

// TestMisonChunkerMatchesScanChunkerGenerated sweeps every generator
// family, in both NDJSON and indented multi-line layouts.
func TestMisonChunkerMatchesScanChunkerGenerated(t *testing.T) {
	gens := []genjson.Generator{
		genjson.Twitter{Seed: 81},
		genjson.GitHub{Seed: 82},
		genjson.TypeDrift{Seed: 83},
		genjson.SkewedOptional{Seed: 84},
		genjson.NestedArrays{Seed: 85},
		genjson.Orders{Seed: 86},
		genjson.OpenData{Seed: 87},
	}
	for _, g := range gens {
		docs := genjson.Collection(g, 150)
		assertSameSplits(t, g.Name(), jsontext.MarshalLines(docs))
		var pretty bytes.Buffer
		for _, d := range docs {
			pretty.Write(jsontext.MarshalIndent(d, "  "))
			pretty.WriteByte('\n')
		}
		assertSameSplits(t, g.Name()+"-pretty", pretty.Bytes())
	}
}

// TestMisonChunkerMatchesScanChunkerEdgeCases covers the layouts and
// byte patterns the state carries exist for: escapes stacked against
// block and word boundaries, strings holding structural characters and
// newlines, deep nesting, and blank regions.
func TestMisonChunkerMatchesScanChunkerEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"blank-lines", "\n\n\n"},
		{"ndjson", "{\"a\": 1}\n{\"a\": 2}\n"},
		{"no-trailing-newline", "{\"a\": 1}\n{\"a\": 2}"},
		{"pretty", "{\n  \"a\": [1,\n 2]\n}\n{\n  \"a\": []\n}\n"},
		{"string-with-newline", "{\"s\": \"line1\\nline2\"}\n"},
		{"string-with-braces", "{\"s\": \"}{][\"}\n{\"t\": \",:\"}\n"},
		{"escaped-quote", "{\"s\": \"a\\\"b\"}\n{\"t\": 1}\n"},
		{"escaped-backslash-then-quote", "{\"s\": \"a\\\\\"}\n{\"t\": 1}\n"},
		{"backslash-run", "{\"s\": \"" + strings.Repeat("\\\\", 70) + "\"}\n{\"t\": 2}\n"},
		{"odd-backslash-run-64-boundary", "{\"pad\": \"" + strings.Repeat("x", 50) + "\", \"s\": \"" + strings.Repeat("\\\\", 9) + "\\\"\"}\n"},
		{"deep-nesting", strings.Repeat("[", 100) + strings.Repeat("]", 100) + "\n{\"a\": 1}\n"},
		{"unbalanced-close", "}]\n{\"a\": 1}\n"},
		{"many-docs-one-line", "1 2 3 \"x\" null\ntrue\n"},
		{"word-aligned-newlines", strings.Repeat(strings.Repeat("x", 63)+"\n", 5)},
	}
	for _, c := range cases {
		assertSameSplits(t, c.name, []byte(c.input))
	}
}

// FuzzChunkerVsScan holds mison.Chunker to the byte-at-a-time splitter
// on arbitrary bytes fed in blocks of a fuzz-chosen size: the same
// split candidates, up to the one divergence the Chunker documents — a
// backslash outside any string, which phase 2 lets escape the byte
// after it and the scanner does not. The lexer faults on that backslash
// whichever chunk holds it, so the input is compared up to the first.
func FuzzChunkerVsScan(f *testing.F) {
	for _, in := range append(malformedInputs[:len(malformedInputs):len(malformedInputs)],
		"{\"s\": \"a\\\"b\"}\n{\"t\": 1}\n", "{\"s\": \""+strings.Repeat("\\\\", 70)+"\"}\n{\"t\": 2}\n",
		"{\n  \"a\": [1,\n 2]\n}\n{\n  \"a\": []\n}\n", "}]\n{\"a\": 1}\n", "{\"a\": 1}\\\"\n{\"b\": 2}\n",
		strings.Repeat(strings.Repeat("x", 63)+"\n", 5)) {
		for _, block := range []uint{1, 7, 64, 1 << 20} {
			f.Add([]byte(in), block)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, block uint) {
		inStr, esc := false, false
		for i, c := range data {
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = !inStr
			}
			if esc && !inStr {
				data = data[:i]
				break
			}
		}
		blockSize := 1 + int(block%uint(len(data)+1))
		want := collectSplits(t, &scanSplitter{}, data, blockSize)
		got := collectSplits(t, mison.NewChunker(), data, blockSize)
		if !slices.Equal(want, got) {
			t.Fatalf("block=%d: mison splits %v, scan splits %v on %q", blockSize, got, want, data)
		}
	})
}

// TestReadChunksEquivalence drives the window loop at several document
// targets over NDJSON, from a reader and from a slice, and demands the
// chunk stream the byte-at-a-time splitter implies: a window every
// docsPerChunk top-level newlines, same data, same absolute bases.
func TestReadChunksEquivalence(t *testing.T) {
	docs := genjson.Collection(genjson.Twitter{Seed: 88}, 400)
	data := jsontext.MarshalLines(docs)
	splits := collectSplits(t, &scanSplitter{}, data, len(data))
	for _, docsPerChunk := range []int{1, 3, 100} {
		type chunk struct {
			base int
			data string
		}
		var want []chunk
		for lo, i := 0, docsPerChunk-1; lo < len(data); i += docsPerChunk {
			hi := len(data)
			if i < len(splits) {
				hi = splits[i]
			}
			want = append(want, chunk{lo, string(data[lo:hi])})
			lo = hi
		}
		for _, src := range []source{readerSource(data), mappedSource(t, data)} {
			var got []chunk
			if err := cutWindows(src, 0, docsPerChunk, nil, func(ch byteChunk) {
				got = append(got, chunk{ch.base, string(ch.data)})
			}); err != nil {
				t.Fatal(err)
			}
			if len(want) != len(got) {
				t.Fatalf("docsPerChunk=%d (reader: %t): %d windows, want %d", docsPerChunk, src.r != nil, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("docsPerChunk=%d (reader: %t): window %d = {%d %q}, want {%d %q}",
						docsPerChunk, src.r != nil, i, got[i].base, got[i].data, want[i].base, want[i].data)
				}
			}
			// Windows must cover the stream exactly, in order.
			off := 0
			for _, ch := range got {
				if ch.base != off {
					t.Fatalf("docsPerChunk=%d: window base %d, want %d", docsPerChunk, ch.base, off)
				}
				off += len(ch.data)
			}
			if off != len(data) {
				t.Fatalf("docsPerChunk=%d: windows cover %d bytes, want %d", docsPerChunk, off, len(data))
			}
		}
	}
}

// TestCutWindowScansEachByteOnce feeds cutWindow an input a read block
// at a time, as windows does, where the cut or its line waits for more
// input: a long line after a found cut, a long blank run after a break,
// and a long line with no break at all. Each input ends with the line
// the cut waits for. Every call that asks for more
// input must leave the scan at the end of the bytes in hand, so the
// next call scans none of them again, and the final call must cut where
// an uninterrupted scan does.
func TestCutWindowScansEachByteOnce(t *testing.T) {
	const block = chunkReadSize
	long := `{"b":"` + strings.Repeat("x", 4<<20) + `"}` + "\n"
	for _, tc := range []struct {
		name       string
		input      string
		want, docs int
		end, next  int
		brk, cut   int // sc's fields while the scan waits
	}{
		{name: "line after a document cut", input: `{"a":1}` + "\n" + long, docs: 1, end: 8, next: len(long), cut: 8},
		{name: "line after a byte cut", input: `{"a":1}` + "\n" + long, want: 1, end: 8, next: len(long), cut: 8},
		{name: "blank run after a break", input: `{"a":1}` + "\n" + strings.Repeat(" ", 4<<20) + "{}\n", docs: 1, end: 8, next: 4<<20 + 3, brk: 8},
		{name: "line without a break", input: long[:len(long)-1], docs: 1, end: len(long) - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sc cutScan
			for n := block; ; n += block {
				eof := n >= len(tc.input)
				avail := []byte(tc.input[:min(n, len(tc.input))])
				end, next := cutWindow(avail, &sc, tc.want, tc.docs, eof)
				if end >= 0 { // each input's last line is the one the cut waits for
					if !eof || end != tc.end || next != tc.next {
						t.Fatalf("cut (%d, %d) at %d of %d bytes, want (%d, %d) at the end", end, next, len(avail), len(tc.input), tc.end, tc.next)
					}
					return
				}
				if eof {
					t.Fatal("asked for more input at its end")
				}
				if sc.at != len(avail) {
					t.Fatalf("scan stopped at %d of %d bytes in hand: the next call scans them again", sc.at, len(avail))
				}
				if n > block && (sc.brk != tc.brk || sc.cut != tc.cut) {
					t.Fatalf("waiting with brk %d, cut %d; want %d, %d", sc.brk, sc.cut, tc.brk, tc.cut)
				}
			}
		})
	}
}

// TestWindowCarriesALongLineAfterIt runs the window loop over a reader
// holding a short document and a multi-MiB one-line document at a
// one-byte target: the first window is the short document, carrying
// the whole long line, and the second is that line.
func TestWindowCarriesALongLineAfterIt(t *testing.T) {
	long := `{"b":"` + strings.Repeat("x", 4<<20) + `"}` + "\n"
	data := []byte(`{"a":1}` + "\n" + long)
	type window struct {
		base, size, next int
	}
	var got []window
	if err := cutWindows(readerSource(data), 1, 0, nil, func(ch byteChunk) {
		got = append(got, window{int(ch.base), len(ch.data), ch.next})
	}); err != nil {
		t.Fatal(err)
	}
	want := []window{{0, 8, len(long)}, {8, len(long), 0}}
	if !slices.Equal(got, want) {
		t.Fatalf("windows %v, want %v", got, want)
	}
}
