package infer

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/typelang"
)

// This file holds the one reference the streamed engine is compared
// against (oracle), the one list of corpora (corpusClasses), the one
// table of the engine's axes run over them (the tests that call
// runEngineRows), and the one check of a run (assertRunYields).

// oracle is the independent reference: the DOM decoder materialises
// each document, TypeOf types it, and one MergeAll folds the collection
// — no chunking, no tokens, no accumulator. It returns the type and
// count of the documents before the decoder's first error, and that
// error (a *jsontext.SyntaxError carries its absolute offset).
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
		ts = append(ts, TypeOf(v, e))
	}
}

// The engine's axes. A cell of the table is one run: a corpus in one
// layout, under one equivalence, from one input kind, at one worker
// count, under one window target.
var (
	sweepEquivs = []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel}
	// sweepWorkers are the sequential shape and the parallel one with
	// as many, twice and four times as many windows in flight as cores
	// on a 2-vCPU host; windowWorkers leave out the last.
	sweepWorkers  = []int{1, 2, 4, 8}
	windowWorkers = []int{1, 2, 4}
	// inputKinds are the one-shot engine's sources: a reader and a
	// mapping. A run over bytes is also fed to a collector ("into"); a
	// corpus cut into files runs through InferStreamFiles ("files").
	inputKinds = []string{"reader", "mapped"}
)

// Window targets, as the batch and ChunkBytes of an Options: the
// default, a document count (read by the parallel shape alone; one
// document cuts the windows one byte does), and byte lengths from one
// byte, a window per document, to a few documents.
var (
	byteTargets = []Options{{ChunkBytes: 1}, {ChunkBytes: 7}, {ChunkBytes: 64}, {ChunkBytes: 1 << 10}}
	allTargets  = slices.Concat([]Options{{}, {batch: 4}}, byteTargets)
)

// corpus is one input of the table. data is the input as listed, which
// the oracle reads; input (or files) is what the engine reads, the same
// documents in a row's layout; targets are window targets of this input
// alone (a cut at its defect, the whole input, a random draw), run
// beside its row's; equivs, when set, are the only equivalences it runs
// under. The engine's outcome is the oracle's over data — over files,
// filesOracle's.
type corpus struct {
	name    string
	data    []byte
	docs    []*jsonvalue.Value // a valid corpus's documents, for the DOM fold
	targets []Options
	equivs  []typelang.Equiv

	input []byte
	files []string
	parts [][]byte // what files hold
	key   string   // what the engine reads, for telling cells apart
}

// engineRow is one row of the table: a corpus class in one layout, and
// the worker counts and window targets it runs at.
type engineRow struct {
	class   string
	layout  layout
	workers []int
	targets []Options
}

// The table of the engine's axes is the rows the tests below run
// (runEngineRows), each test one property of the engine on the corpora
// and axis points its rows name. Every row runs under K and L, from
// every input kind its layout has, at each of its worker counts under
// each of its targets and each corpus's own. The fixtures rows leave
// out 7 and 64 bytes, which cut what one byte does on documents over
// 64 bytes long, as every fixture's are.

func TestAccumFoldMatchesMergeAllFixtures(t *testing.T) {
	runEngineRows(t, engineRow{"fixtures", asListed, sweepWorkers, []Options{{}, {batch: 4}}})
}
func TestTokenPathMatchesDOMPathFixtures(t *testing.T) {
	runEngineRows(t, engineRow{"fixtures", asListed, sweepWorkers, []Options{{ChunkBytes: 1}}})
}
func TestKiBWindowsMatchOracleFixtures(t *testing.T) {
	runEngineRows(t, engineRow{"fixtures", asListed, sweepWorkers, []Options{{ChunkBytes: 1 << 10}}})
}
func TestWindowsMatchOracleFixtures(t *testing.T) {
	runEngineRows(t, engineRow{"fixtures", indentedLayout, windowWorkers, []Options{{ChunkBytes: 1}, {ChunkBytes: 1 << 10}}})
}
func TestInferStream(t *testing.T) {
	runEngineRows(t, engineRow{"generated", asListed, windowWorkers, []Options{{}, {batch: 4}}})
}
func TestTokenPathMatchesDOMPathGenerated(t *testing.T) {
	runEngineRows(t, engineRow{"generated", asListed, windowWorkers, []Options{{ChunkBytes: 1}}})
}
func TestWindowsMatchOracleGenerated(t *testing.T) {
	runEngineRows(t, engineRow{"generated", asListed, windowWorkers, []Options{{ChunkBytes: 7}, {ChunkBytes: 64}, {ChunkBytes: 1 << 10}}},
		engineRow{"generated", indentedLayout, windowWorkers, byteTargets})
}
func TestInferStreamWorkerSweep(t *testing.T) {
	runEngineRows(t, engineRow{"large", asListed, []int{1, 2, 4, 7, 8}, []Options{{}, {batch: 7}}})
}
func TestInferEnginesEquivalent(t *testing.T) {
	runEngineRows(t, engineRow{"sizes", asListed, []int{1, 2, 5}, []Options{{}, {batch: 1}, {batch: 7}}})
}
func TestTokenPathHandlesNonNDJSONLayouts(t *testing.T) {
	runEngineRows(t, engineRow{"edge-cases", asListed, sweepWorkers, []Options{{}, {batch: 4}, {ChunkBytes: 1}}})
}
func TestWindowsMatchOracleEdgeCases(t *testing.T) {
	runEngineRows(t, engineRow{"edge-cases", asListed, windowWorkers, []Options{{ChunkBytes: 7}, {ChunkBytes: 64}, {ChunkBytes: 1 << 10}}})
}
func TestMalformedInputKeepsExactPrefix(t *testing.T) {
	runEngineRows(t, engineRow{"malformed", asListed, sweepWorkers, []Options{{}, {batch: 4}}})
}
func TestOneByteWindowsMatchOracleErrors(t *testing.T) {
	runEngineRows(t, engineRow{"malformed", asListed, sweepWorkers, []Options{{ChunkBytes: 1}}})
}
func TestTokenPathRejectsWhatDOMRejects(t *testing.T) {
	runEngineRows(t, engineRow{"malformed", asListed, windowWorkers, []Options{{ChunkBytes: 7}, {ChunkBytes: 64}, {ChunkBytes: 1 << 10}}})
}
func TestEngineMatchesOracle(t *testing.T) {
	runEngineRows(t,
		engineRow{"fixtures", permutedLayout, windowWorkers, nil},
		engineRow{"fixtures", filesLayout, windowWorkers, []Options{{}}},
		engineRow{"broken-strings", asListed, sweepWorkers, allTargets},
		engineRow{"straddle-defects", asListed, windowWorkers, nil})
}

// ranCells maps every cell the table has run in this process, by what
// the engine read and the axis point, to the test and row that ran it.
var ranCells sync.Map

// runEngineRows runs rows, a subtest each: every cell must yield the
// oracle's outcome over the corpus as listed (assertYields), whatever
// its layout, and none may be a cell that another test or row, or
// another input of the row, has run (ranCells), so that no input is
// checked twice at one axis point. A row that runs a valid corpus as
// listed at the default target also holds the library's DOM fold,
// Infer, in batches of four documents, to one MergeAll.
func runEngineRows(t *testing.T, rows ...engineRow) {
	for _, row := range rows {
		t.Run(row.class+row.layout.name, func(t *testing.T) {
			ran := map[string]bool{}
			row.forEachInput(t, func(c corpus, e typelang.Equiv) {
				want, wantN, wantErr := oracle(c.data, e)
				if c.files != nil {
					want, wantN, wantErr = filesOracle(c.files, c.parts, e)
				}
				if c.docs != nil && row.layout.name == "" && slices.Contains(row.targets, Options{}) {
					if got := Infer(c.docs, Options{Equiv: e, batch: 4}); got.StringCounted() != want.StringCounted() {
						t.Errorf("%s/%v: Infer diverges from one MergeAll\n oracle: %s\n Infer:  %s", c.name, e, want.StringCounted(), got.StringCounted())
					}
				}
				for _, cl := range row.cells(c, e) {
					key := c.key + cl.String()
					if first, loaded := ranCells.LoadOrStore(key, t.Name()); (loaded && first != t.Name()) || ran[key] {
						t.Errorf("%s repeats %s's cell %s", c.name, first, cl)
					}
					ran[key] = true
				}
				row.assertYields(t, c, e, want, wantN, wantErr)
			})
		})
	}
}

// forEachInput calls fn with every input row renders of its class's
// corpora, under each equivalence the input runs under.
func (row engineRow) forEachInput(t *testing.T, fn func(c corpus, e typelang.Equiv)) {
	rng := rand.New(rand.NewSource(16)) // the permuted layout's draws, over the class in order
	for _, listed := range corpusClasses[row.class](t) {
		for _, c := range row.layout.render(t, listed, rng) {
			for _, e := range sweepEquivs {
				if c.equivs == nil || slices.Contains(c.equivs, e) {
					fn(c, e)
				}
			}
		}
	}
}

// cell is one run of the table: an input kind and the run's options.
type cell struct {
	input string
	opts  Options
}

func (cl cell) String() string {
	return fmt.Sprintf("%v/w%d/%s/batch%d/bytes%d", cl.opts.Equiv, cl.opts.Workers, cl.input, cl.opts.batch, cl.opts.ChunkBytes)
}

// cells are the runs row makes of c under e: every input kind of c at
// every worker count of the row under every target of the row and of
// c, with what a run does not read left out, so that runs alike in all
// they read are one cell: the collector feed reads no worker count, and
// only the parallel shape's document windows read a document count.
// cells is the one list of the runs a check covers: the table's,
// assertEngineYields' and assertFilesMatchOracle's.
func (row engineRow) cells(c corpus, e typelang.Equiv) []cell {
	var out []cell
	for _, input := range c.inputKinds() {
		for _, w := range row.workers {
			for _, ck := range slices.Concat(row.targets, c.targets) {
				opts := Options{Equiv: e, Workers: w, batch: ck.batch, ChunkBytes: ck.ChunkBytes}
				if input == "into" {
					opts.Workers = 0
				}
				if opts.Workers <= 1 || opts.ChunkBytes > 0 {
					opts.batch = 0
				}
				if cl := (cell{input, opts}); !slices.Contains(out, cl) {
					out = append(out, cl)
				}
			}
		}
	}
	return out
}

// assertYields runs every cell row makes of c under e, each checked
// against the given outcome by assertRunYields.
func (row engineRow) assertYields(t *testing.T, c corpus, e typelang.Equiv, want *typelang.Type, wantN int, wantErr error) {
	t.Helper()
	for _, cl := range row.cells(c, e) {
		assertRunYields(t, fmt.Sprintf("%.40s/%s", c.name, cl), cl.opts, c.run(t, cl.input), want, wantN, wantErr)
	}
}

// inputKinds are the input kinds c is read through.
func (c corpus) inputKinds() []string {
	if c.files != nil {
		return []string{"files"}
	}
	return slices.Concat(inputKinds, []string{"into"})
}

// run is the engine reading c through the given input kind.
func (c corpus) run(t *testing.T, input string) func(Options) (*typelang.Type, int, error) {
	if input == "files" {
		return func(opts Options) (*typelang.Type, int, error) { return InferStreamFiles(c.files, opts) }
	}
	return func(opts Options) (*typelang.Type, int, error) { return inferStreamOver(t, input, c.input, opts) }
}

// layout renders a corpus's documents as the engine reads them without
// changing their multiset — as listed, indented, permuted or cut into
// files — the one corpus as one input or several. rng is the row's
// source of random draws.
type layout struct {
	name   string
	render func(t *testing.T, c corpus, rng *rand.Rand) []corpus
}

var (
	asListed = layout{"", func(t *testing.T, c corpus, _ *rand.Rand) []corpus {
		return []corpus{c.reads(c.data)}
	}}
	// indentedLayout re-renders every document over several lines, the
	// layout `jsgen -indent` writes: only a document's last line ends a
	// window.
	indentedLayout = layout{"-indented", func(t *testing.T, c corpus, _ *rand.Rand) []corpus {
		return []corpus{c.reads(indented(t, c.data))}
	}}
	// permutedLayout shuffles the lines afresh for every equivalence and
	// target, each order run under that one pair: one document, one
	// byte, the whole input, a random document count and byte length
	// (drawn per equivalence) and the default. The merge is associative
	// and commutative, so the schema is a function of the multiset of
	// documents alone.
	permutedLayout = layout{"-permuted", func(t *testing.T, c corpus, rng *rand.Rand) []corpus {
		lines := bytes.SplitAfter(c.data, []byte("\n"))
		if last := len(lines) - 1; len(lines[last]) == 0 {
			lines = lines[:last]
		} else {
			lines[last] = append(lines[last][:len(lines[last]):len(lines[last])], '\n')
		}
		var out []corpus
		for _, e := range sweepEquivs {
			targets := []Options{{batch: 1}, {ChunkBytes: 1}, {ChunkBytes: len(c.data) + len(lines)},
				{batch: 2 + rng.Intn(2*len(lines))}, {ChunkBytes: 1 + rng.Intn(len(c.data))}, {}}
			for _, ck := range targets {
				rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
				order := c.reads(bytes.Join(lines, nil))
				order.name, order.equivs, order.targets = fmt.Sprintf("%s/order%d", c.name, len(out)), []typelang.Equiv{e}, []Options{ck}
				out = append(out, order)
			}
		}
		return out
	}}
	// filesLayout cuts the corpus into 1, 3 and 100 files of whole lines
	// (cutLines: an empty file second, a first file with no trailing
	// newline): many files are one collection.
	filesLayout = layout{"-files", func(t *testing.T, c corpus, _ *rand.Rand) []corpus {
		var out []corpus
		for _, n := range []int{1, 3, 100} {
			cut := c
			cut.name, cut.key = fmt.Sprintf("%s/%d-files", c.name, n), fmt.Sprintf("%x/%d-files", sha256.Sum256(c.data), n)
			cut.parts = cutLines(c.data, n)
			cut.files = writeFiles(t, t.TempDir(), cut.parts)
			out = append(out, cut)
		}
		return out
	}}
)

// reads is c with the engine reading input.
func (c corpus) reads(input []byte) corpus {
	c.input, c.key = input, fmt.Sprintf("%x", sha256.Sum256(input))
	return c
}

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

// corpusClasses is the one corpus list, by class.
var corpusClasses = map[string]func(t *testing.T) []corpus{
	// fixtures are the checked-in NDJSON files. Each is one window by
	// default at every worker count — fewer than DefaultBatch documents
	// in less than a read block — and its documents are longer than 64
	// bytes (the fixtures rows).
	"fixtures": func(t *testing.T) []corpus {
		names, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ndjson"))
		if err != nil || len(names) == 0 {
			t.Fatalf("no testdata fixtures found: %v", err)
		}
		var out []corpus
		for _, name := range names {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			docs, err := jsontext.ParseLines(data)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			short := slices.ContainsFunc(bytes.SplitAfter(data, []byte("\n")), func(l []byte) bool { return len(l) > 0 && len(l) <= 64 })
			if short || len(docs) >= DefaultBatch || len(data) >= chunkReadSize {
				t.Fatalf("%s: %d documents in %d bytes, one of 64 bytes or less: %t; the fixtures rows assume fewer than %d in less than %d, none that short",
					name, len(docs), len(data), short, DefaultBatch, chunkReadSize)
			}
			out = append(out, corpus{name: filepath.Base(name), data: data, docs: docs})
		}
		return out
	},
	"generated": func(t *testing.T) []corpus { return generatedCorpora(40, sweepGenerators...) },
	// large are collections that span several default windows, or fill
	// them unevenly at seven workers, SkewedOptional's field counts among
	// them.
	"large": func(t *testing.T) []corpus {
		return slices.Concat(generatedCorpora(400, genjson.Twitter{Seed: 92}), generatedCorpora(300, genjson.SkewedOptional{Seed: 9}),
			generatedCorpora(100, genjson.GitHub{Seed: 5}), generatedCorpora(120, genjson.Twitter{Seed: 71}, genjson.GitHub{Seed: 72},
				genjson.TypeDrift{Seed: 73}, genjson.SkewedOptional{Seed: 74}, genjson.NestedArrays{Seed: 75}, genjson.Orders{Seed: 76}, genjson.OpenData{Seed: 77}))
	},
	// sizes are one collection at the sizes that make every window
	// shape: empty input, one document, fewer documents than workers, a
	// partial final window.
	"sizes": func(t *testing.T) []corpus {
		g := genjson.Twitter{Seed: 42}
		return slices.Concat(generatedCorpora(0, g), generatedCorpora(1, g), generatedCorpora(3, g), generatedCorpora(100, g), generatedCorpora(513, g))
	},
	"large-files": func(t *testing.T) []corpus {
		return generatedCorpora(150, genjson.Twitter{Seed: 1}, genjson.TypeDrift{Seed: 3}, genjson.Sparse{Seed: 14}, genjson.Deep{Seed: 15})
	},
	"edge-cases": func(t *testing.T) []corpus {
		return corporaOf(t, false, slices.Concat(windowEdgeCases, collidingLabelSets)...)
	},
	"malformed": func(t *testing.T) []corpus { return corporaOf(t, true, malformedInputs...) },
	// malformed-files put each of malformedInputs in a file of its own
	// among clean ones.
	"malformed-files": func(t *testing.T) []corpus {
		clean := cutLines(jsontext.MarshalLines(genjson.Collection(genjson.Orders{Seed: 6}, 40)), 2)
		var out []corpus
		for _, in := range malformedInputs {
			c := corpus{name: fmt.Sprintf("%q", in), parts: [][]byte{clean[0], clean[1], []byte(in), clean[2]}}
			c.data, c.files = bytes.Join(c.parts, nil), writeFiles(t, t.TempDir(), c.parts)
			out = append(out, c)
		}
		return out
	},
	// label-sets are each of collidingLabelSets twice over, alone and
	// after enough label sets that the root looks its groups up by key;
	// the oracle keeps every label set apart under L.
	"label-sets": func(t *testing.T) []corpus {
		var pad strings.Builder
		for i := 0; i < 20; i++ { // past typelang's linear group scan
			fmt.Fprintf(&pad, "{\"pad%d\": null}\n", i)
		}
		var out []corpus
		for _, pair := range collidingLabelSets {
			for _, in := range []string{pair + pair, pad.String() + pair + pair} {
				want, _, err := oracle([]byte(in), typelang.EquivLabel)
				if got, sets := typelang.DistinctRecordAlternatives(want), strings.Count(in, "\n")-2; err != nil || got != sets {
					t.Errorf("%q: the oracle keeps %d record types apart under L (error %v), want %d: %s", in, got, err, sets, want)
				}
				out = append(out, corpus{name: fmt.Sprintf("%q", in), data: []byte(in)})
			}
		}
		return out
	},
	// broken-strings puts each of brokenStrings after 0, 3, 8 and
	// DefaultBatch good documents, so that each is met mid-window and
	// as the first record of a later one, and adds the targets of a
	// window of two good documents and of the one window that ends at
	// the defect's first raw newline.
	"broken-strings": func(t *testing.T) []corpus {
		good := `{"a": 1, "s": "x"}` + "\n"
		var out []corpus
		for _, d := range corporaOf(t, true, brokenStrings...) {
			defect := string(d.data)
			for _, n := range []int{0, 3, 8, DefaultBatch} {
				c := corpus{name: fmt.Sprintf("%d+%q", n, defect), data: []byte(strings.Repeat(good, n) + defect)}
				c.targets = []Options{{ChunkBytes: 2 * len(good)}}
				if i := strings.IndexByte(defect, '\n'); i >= 0 {
					c.targets = append(c.targets, Options{ChunkBytes: n*len(good) + i + 1})
				}
				out = append(out, c)
			}
		}
		return out
	},
	// straddle-defects runs each of straddleDefects under every byte
	// target from one byte to the whole input.
	"straddle-defects": func(t *testing.T) []corpus {
		out := corporaOf(t, true, straddleDefects...)
		for i := range out {
			for size := 1; size <= len(out[i].data); size++ {
				out[i].targets = append(out[i].targets, Options{ChunkBytes: size})
			}
		}
		return out
	},
}

// generatedCorpora are n documents of each of gens, one per line.
func generatedCorpora(n int, gens ...genjson.Generator) []corpus {
	var out []corpus
	for _, g := range gens {
		docs := genjson.Collection(g, n)
		out = append(out, corpus{name: fmt.Sprintf("%s/%d", g.Name(), n), data: jsontext.MarshalLines(docs), docs: docs})
	}
	return out
}

// corporaOf is ins as corpora of one input each, which the oracle
// must reject if listed as malformed.
func corporaOf(t *testing.T, malformed bool, ins ...string) []corpus {
	var out []corpus
	for _, in := range ins {
		if _, _, err := oracle([]byte(in), typelang.EquivKind); malformed && err == nil {
			t.Fatalf("the oracle accepts %q, listed as malformed", in)
		}
		out = append(out, corpus{name: fmt.Sprintf("%q", in), data: []byte(in)})
	}
	return out
}

// sweepGenerators are the genjson families, one of each.
var sweepGenerators = []genjson.Generator{
	genjson.Twitter{Seed: 1}, genjson.GitHub{Seed: 2}, genjson.TypeDrift{Seed: 3},
	genjson.SkewedOptional{Seed: 4}, genjson.NestedArrays{Seed: 5}, genjson.Orders{Seed: 6},
	genjson.Mixture{Seed: 7, Generators: []genjson.Generator{genjson.Twitter{Seed: 8}, genjson.Orders{Seed: 9}}, Weights: []float64{1, 1}},
	genjson.OpenData{Seed: 10}, genjson.NYTArticles{Seed: 11}, genjson.Wide{Seed: 12},
	genjson.Fields{Seed: 13}, genjson.Sparse{Seed: 14}, genjson.Deep{Seed: 15},
}

// windowEdgeCases are the layouts and defects a window's end has to get
// right.
var windowEdgeCases = []string{
	// Pretty-printed and concatenated layouts, CRLF, no newline at all,
	// several documents on one line and blank lines between documents.
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
	`1 "two" [3] {"four": 4}` + "\n" + `null true`,
	"\n\n{\"a\": 1}\n\n\n{\"a\": 2}\n\n",
}

// malformedInputs are streams the decoder rejects, with the failure in
// the first, a middle and the last document, at token and at structure
// level.
var malformedInputs = []string{
	"{\"a\": 1}\n{]\n",
	"[1, 2\n",
	"{\"a\": tru}\n",
	"\"unterminated\n{\"a\": 1}\n",
	"{\"a\": 1}\n12..5\n{\"b\": 2}\n",
	"{\"a\": 1}\n{\"s\": \"ctrl\x01\"}\n{\"b\": 2}\n",
	"{\"a\": [1, {\"b\": 2}, \n",
	"{\"a\": {\"b\": 1, }}\n",
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

// collidingLabelSets are pairs of records whose label sets typelang's
// key rendered alike while it joined names with NUL: the empty name
// against no name, and a NUL in a name against two names. MergeAll, the
// oracle, fused each pair under L and an accumulator below its label-key
// index did not.
var collidingLabelSets = []string{
	"{\"\": 0}\n{}\n",
	"{\"a\\u0000b\": 1}\n{\"a\": 1, \"b\": 1}\n",
}

// windowInputs are the small inputs of the table, the seeds of the
// fuzz targets that cut windows.
var windowInputs = slices.Concat(windowEdgeCases, brokenStrings, malformedInputs, collidingLabelSets, straddleDefects)

// inferStreamOver runs the engine over data as the named input kind:
// "reader" behind an io.Reader, "mapped" through a mapping of a file
// holding it (mappedSource), and "into" the registry's feed —
// InferStreamInto a fresh two-shard collector, closed for its fold.
func inferStreamOver(t testing.TB, input string, data []byte, opts Options) (*typelang.Type, int, error) {
	switch input {
	case "mapped":
		return run(only(mappedSource(t, data)), opts)
	case "into":
		col := NewShardedCollector(2, opts.Equiv)
		n, err := InferStreamInto(bytes.NewReader(data), opts, col)
		t, docs := col.Close()
		if docs != int64(n) {
			err = fmt.Errorf("collector holds %d docs, the feed committed %d (feed error: %v)", docs, n, err)
		}
		return t, n, err
	}
	return InferStream(bytes.NewReader(data), opts)
}

func syntaxOffset(err error) int {
	var se *jsontext.SyntaxError
	if errors.As(err, &se) {
		return se.Offset
	}
	return -1
}

// assertEngineYields runs the engine over data with base's equivalence
// and window target at every given worker count, in every cell a row
// of the table makes of it (cells), each run checked by assertRunYields.
func assertEngineYields(t *testing.T, label string, data []byte, base Options, workers []int, want *typelang.Type, wantN int, wantErr error) {
	t.Helper()
	row := engineRow{workers: workers, targets: []Options{{batch: base.batch, ChunkBytes: base.ChunkBytes}}}
	row.assertYields(t, corpus{name: label}.reads(data), base.Equiv, want, wantN, wantErr)
}

// assertRunYields runs the engine once under opts, with a recorder of
// its own, and demands the given outcome: the same schema in plain and
// counted rendering, the same document count and — on malformed input —
// the same error message and absolute offset, with type and count
// covering exactly the documents before it. On valid input it also
// demands that no byte was walked twice.
func assertRunYields(t *testing.T, name string, opts Options, run func(Options) (*typelang.Type, int, error), want *typelang.Type, wantN int, wantErr error) {
	t.Helper()
	var st PipelineStats
	opts.Stats = &st
	got, n, err := run(opts)
	if s := st.Snapshot(); wantErr == nil && s.BytesReindexed != 0 {
		t.Errorf("%s: bytes_reindexed=%d on valid input; want 0: a window ends only where a document does",
			name, s.BytesReindexed)
	}
	if (err == nil) != (wantErr == nil) ||
		(err != nil && (err.Error() != wantErr.Error() || syntaxOffset(err) != syntaxOffset(wantErr))) {
		t.Errorf("%s: error %v (offset %d), oracle %v (offset %d)",
			name, err, syntaxOffset(err), wantErr, syntaxOffset(wantErr))
	}
	if n != wantN {
		t.Errorf("%s: typed %d docs, oracle %d", name, n, wantN)
	}
	if want.String() != got.String() || want.StringCounted() != got.StringCounted() {
		t.Errorf("%s: schema diverges\n oracle: %s\n engine: %s",
			name, want.StringCounted(), got.StringCounted())
	}
}
