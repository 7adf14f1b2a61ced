package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/genjson"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/sparkinfer"
	"repro/internal/typelang"
)

// untouched is a stdin that fails the test when read: what an
// invocation rejected up front gets.
type untouched struct{ t *testing.T }

func (u untouched) Read([]byte) (int, error) {
	u.t.Helper()
	u.t.Error("stdin was read before the flags were validated")
	return 0, io.EOF
}

// cli drives run in-process and returns what a shell would see.
func cli(stdin io.Reader, args ...string) (stdout, stderr string, status int) {
	var out, errs bytes.Buffer
	status = run(args, stdin, &out, &errs)
	return out.String(), errs.String(), status
}

// TestValidateStreamFlags pins the fail-fast matrix: every combination
// that could only fail after (or silently survive) a full inference
// pass must be rejected before any input is read.
func TestValidateStreamFlags(t *testing.T) {
	cases := []struct {
		name             string
		eng              core.Engine
		workers          int
		precision, stats bool
		chunkBytesSet    bool
		output           string
		nArgs            int
		wantErr          bool
	}{
		{"plain parametric file", core.ParametricL, 0, false, false, false, "type", 1, false},
		{"plain parametric stdin", core.ParametricK, 0, false, false, false, "type", 0, false},
		{"report from files with precision", core.ParametricL, 0, true, false, false, "report", 2, false},
		{"stats", core.ParametricL, 0, false, true, false, "type", 0, false},
		{"chunk-bytes", core.ParametricK, 0, false, false, true, "type", 0, false},
		{"stats with spark", core.Spark, 0, false, true, false, "type", 0, false},
		{"precision with spark", core.Spark, 0, true, false, false, "report", 1, false},
		{"plain skinfer", core.Skinfer, 0, false, false, false, "report", 1, false},

		{"precision on non-report output", core.ParametricL, 0, true, false, false, "type", 1, true},
		{"precision from stdin", core.Spark, 0, true, false, false, "report", 0, true},
		{"precision with skinfer", core.Skinfer, 0, true, false, false, "report", 1, true},
		{"stats with skinfer", core.Skinfer, 0, false, true, false, "type", 1, true},
		{"chunk-bytes with skinfer", core.Skinfer, 0, false, false, true, "type", 1, true},
		{"negative workers", core.ParametricL, -3, false, false, false, "type", 1, true},
		{"workers above 1 with skinfer", core.Skinfer, 3, false, false, false, "type", 1, true},
		{"one worker with skinfer", core.Skinfer, 1, false, false, false, "type", 1, false},
		{"workers with spark", core.Spark, 3, false, false, false, "type", 1, false},
	}
	for _, c := range cases {
		err := validateStreamFlags(c.eng, c.workers, c.precision, c.stats, c.chunkBytesSet, c.output, c.nArgs)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", c.name, err, c.wantErr)
		}
	}

	// Through the command itself: a rejected invocation exits 1 with one
	// line on stderr and never touches its input — -output included,
	// which is checked beside -engine rather than after the pass.
	for _, args := range [][]string{
		{"-output", "bogus"},
		{"-engine", "bogus"},
		{"-chunk-bytes", "lots"},
		{"-engine", "skinfer", "-stats"},
		{"-engine", "skinfer", "-stream", "-chunk-bytes", "4M"},
	} {
		stdout, stderr, status := cli(untouched{t}, args...)
		if status != 1 || stdout != "" || !strings.HasPrefix(stderr, "jsinfer: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("jsinfer %v: status %d, stdout %q, stderr %q; want 1, nothing, one jsinfer: line", args, status, stdout, stderr)
		}
	}

	// Spark streams, so the pipeline's flags configure its run.
	if stdout, stderr, status := cli(strings.NewReader(`{"a":1}`+"\n"), "-engine", "spark", "-stats"); status != 0 ||
		stdout != "{a?: (Null + Int)}\n" || !strings.HasPrefix(stderr, "pipeline stats:\n") {
		t.Errorf("jsinfer -engine spark -stats: status %d, stdout %q, stderr %q; want 0, the schema, the stats table", status, stdout, stderr)
	}
}

// fixture is one testdata collection with the oracle's view of it:
// every document parsed, typed and merged, independently of the
// streamed engine.
type fixture struct {
	path string
	data []byte
	docs []*jsonvalue.Value
}

func loadFixtures(t *testing.T) []fixture {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/*.ndjson")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures under testdata: %v", err)
	}
	var fx []fixture
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		docs, err := jsontext.ParseLines(data)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		fx = append(fx, fixture{p, data, docs})
	}
	return fx
}

func (f fixture) oracle(e typelang.Equiv) *typelang.Type {
	ts := make([]*typelang.Type, len(f.docs))
	for i, d := range f.docs {
		ts[i] = infer.TypeOf(d, e)
	}
	return typelang.MergeAll(ts, e)
}

// schema is what the named engine prints for f under e: the oracle's
// type, or for Spark its projection of the parsed documents.
func (f fixture) schema(engine string, e typelang.Equiv) *typelang.Type {
	if engine == "spark" {
		return sparkinfer.Infer(f.docs).ToTypelang()
	}
	return f.oracle(e)
}

// streamedEngines are the engines the command streams, each with the
// equivalence of its pass; Spark's output is the projection of its K
// pass, and -output counted prints that pass's counted type.
var streamedEngines = []struct {
	name  string
	equiv typelang.Equiv
}{
	{"parametric-K", typelang.EquivKind},
	{"parametric-L", typelang.EquivLabel},
	{"spark", typelang.EquivKind},
}

// cliWorkers are the -workers settings the matrix turns through.
var cliWorkers = [][]string{nil, {"-workers", "1"}, {"-workers", "2"}}

// TestCLIMatrix pins the command's own axes end to end, over every
// fixture. Each -output runs once per fixture, its -engine (K, L or
// Spark), -workers, -simplify and input (file argument or stdin)
// turning with the fixture and the output, so that over the fixtures
// every engine prints every output and runs at every -workers setting,
// and every output runs with and without -simplify, from a file and
// from stdin; the test fails if the fixtures are too few for that.
// Every cell runs again with -stream, which selects nothing, so both
// runs agree byte for byte. Then -precision's report line, Skinfer's
// report, the fixture cut into files (testFileLayouts) and the exit
// codes and stderr of failed runs (testCLIErrors). Every expectation
// is computed here, not read from a golden file: from the
// Parse+TypeOf+MergeAll oracle, and for Spark from sparkinfer.Infer's
// fold over the parsed documents (-output counted: the K oracle's).
// The engine's identity across workers, input kinds and window targets
// is the engine table's (internal/infer, runEngineRows) and make
// ab-identity's.
func TestCLIMatrix(t *testing.T) {
	fixtures := loadFixtures(t)
	t.Run("errors", func(t *testing.T) { testCLIErrors(t, fixtures[0]) })
	covered := map[string]bool{}
	for f, fx := range fixtures {
		for o, output := range outputs {
			eng := streamedEngines[(f+o)%len(streamedEngines)]
			workers := cliWorkers[(2*f+o)%len(cliWorkers)]
			simplify, fromStdin := (f+o)%2 == 1, (f/2+o)%2 == 1
			covered[fmt.Sprint(eng.name, output)] = true
			covered[fmt.Sprint(eng.name, workers)] = true
			covered[fmt.Sprint(output, simplify, fromStdin)] = true

			counted, ty := fx.oracle(eng.equiv), fx.schema(eng.name, eng.equiv)
			args := append([]string{"-engine", eng.name, "-output", output}, workers...)
			if simplify {
				args = append(args, "-simplify")
				ty, counted = typelang.Simplify(ty), typelang.Simplify(counted)
			}
			var wantOut string
			switch output {
			case "type":
				wantOut = ty.String() + "\n"
			case "counted":
				wantOut = counted.StringCounted() + "\n"
			case "jsonschema":
				wantOut = string(core.MarshalIndent(core.TypeToJSONSchema(ty), "  ")) + "\n"
			case "typescript":
				wantOut = core.TypeToTypeScript("Root", ty)
			case "swift":
				wantOut = core.TypeToSwift("Root", ty)
			case "report":
				wantOut = fmt.Sprintf("engine:    %s\ndocuments: %d\nsize:      %d nodes\nprecision: n/a (streamed single pass; rerun with -precision and file arguments for a second pass)\ntype:      %s\n",
					eng.name, len(fx.docs), ty.Size(), ty)
			default:
				t.Fatalf("-output %s has no oracle here", output)
			}

			label := fmt.Sprintf("jsinfer %s < %s", strings.Join(args, " "), fx.path)
			stdin := func() io.Reader { return bytes.NewReader(fx.data) }
			if !fromStdin {
				label = fmt.Sprintf("jsinfer %s %s", strings.Join(args, " "), fx.path)
				args, stdin = append(args, fx.path), func() io.Reader { return untouched{t} }
			}
			stdout, stderr, status := cli(stdin(), args...)
			if status != 0 || stderr != "" {
				t.Fatalf("%s: status %d, stderr %q", label, status, stderr)
			}
			if stdout != wantOut {
				t.Errorf("%s printed\n%s\nthe oracle gives\n%s", label, stdout, wantOut)
			}
			if o, e, s := cli(stdin(), append([]string{"-stream"}, args...)...); o != stdout || e != stderr || s != status {
				t.Errorf("%s: -stream changes the run: status %d, stderr %q, stdout\n%s\nwant\n%s", label, s, e, o, stdout)
			}
		}

		// The precision column is the second pass's: the oracle's grade
		// of its own schema against the parsed documents.
		eng := streamedEngines[f%len(streamedEngines)]
		wantLine := fmt.Sprintf("precision: %.3f\n", typelang.Precision(fx.schema(eng.name, eng.equiv), fx.docs))
		for _, stream := range [][]string{nil, {"-stream"}} {
			args := append(stream, "-engine", eng.name, "-precision", "-output", "report", fx.path)
			stdout, stderr, status := cli(untouched{t}, args...)
			if status != 0 || stderr != "" || !strings.Contains(stdout, wantLine) {
				t.Errorf("jsinfer %v: status %d, stderr %q, stdout\n%s\nwant the line %q", args, status, stderr, stdout, wantLine)
			}
		}

		testFileLayouts(t, f, fx)

		// Skinfer materialises; its report grades in place, and -stream
		// is ignored there too.
		stdout, stderr, status := cli(untouched{t}, "-engine", "skinfer", "-output", "report", fx.path)
		var precision float64
		_, rest, _ := strings.Cut(stdout, "precision: ")
		if _, err := fmt.Sscanf(rest, "%f", &precision); err != nil || precision < 0 || status != 0 || stderr != "" ||
			!strings.HasPrefix(stdout, fmt.Sprintf("engine:    skinfer\ndocuments: %d\n", len(fx.docs))) {
			t.Errorf("jsinfer -engine skinfer -output report %s: status %d, stderr %q, precision %v (%v), stdout\n%s", fx.path, status, stderr, precision, err, stdout)
		}
		if o, e, s := cli(untouched{t}, "-stream", "-engine", "skinfer", "-output", "report", fx.path); o != stdout || e != stderr || s != status {
			t.Errorf("jsinfer -engine skinfer: -stream changes the run: status %d, stderr %q, stdout\n%s", s, e, o)
		}
	}
	if want := len(streamedEngines)*(len(outputs)+len(cliWorkers)) + 4*len(outputs); len(covered) != want {
		t.Errorf("the matrix covers %d engine × output, engine × -workers and output × -simplify × input pairs, want %d: too few fixtures", len(covered), want)
	}
}

// testFileLayouts pins that file arguments are one collection: the
// fixture cut into 1, 3 and 100 files — an empty file second, and a
// first file with no trailing newline — prints the oracle's schema of
// the whole fixture, plain and counted, each under an engine and a
// -workers setting that turn with the fixture; and at -workers 1 its
// -stats show one seal and every file but the empty one read as a
// window of its own, none mapped.
func testFileLayouts(t *testing.T, f int, fx fixture) {
	lines := bytes.SplitAfter(bytes.TrimSuffix(fx.data, []byte("\n")), []byte("\n"))
	for i, n := range []int{1, 3, 100} {
		dir := t.TempDir()
		per := (len(lines) + n - 1) / n
		var files []string
		for i := 0; i*per < len(lines); i++ {
			part := bytes.Join(lines[i*per:min((i+1)*per, len(lines))], nil)
			if i == 0 {
				part = bytes.TrimSuffix(part, []byte("\n"))
			}
			files = append(files, filepath.Join(dir, fmt.Sprintf("part%03d.ndjson", i)))
			if err := os.WriteFile(files[len(files)-1], part, 0o644); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				files = append(files, filepath.Join(dir, "empty.ndjson"))
				if err := os.WriteFile(files[1], nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		for j, mod := range []string{"-output=type", "-output=counted"} {
			eng := streamedEngines[(f+i+j)%len(streamedEngines)]
			workers := []string{"0", "1", "2", "4"}[(f+i+2*j)%4]
			wantOut := fx.oracle(eng.equiv).StringCounted() + "\n"
			if mod == "-output=type" {
				wantOut = fx.schema(eng.name, eng.equiv).String() + "\n"
			}
			args := append([]string{"-engine", eng.name, "-workers", workers, mod}, files...)
			if stdout, stderr, status := cli(untouched{t}, args...); status != 0 || stderr != "" || stdout != wantOut {
				t.Errorf("%s in %d files, -engine %s -workers %s %s: status %d, stderr %q, stdout\n%s\nthe oracle gives\n%s",
					fx.path, len(files), eng.name, workers, mod, status, stderr, stdout, wantOut)
			}
		}
		_, stderr, status := cli(untouched{t}, append([]string{"-workers", "1", "-stats"}, files...)...)
		if status != 0 || !strings.Contains(stderr, " seals=1\n") || !strings.Contains(stderr, " mmap_inputs=0\n") ||
			!strings.Contains(stderr, fmt.Sprintf(" chunks_split=%d ", len(files)-1)) {
			t.Errorf("jsinfer -workers 1 -stats over %d files of %s: status %d, want seals=1, mmap_inputs=0 and chunks_split=%d, stderr\n%s",
				len(files), fx.path, status, len(files)-1, stderr)
		}
	}
}

// testCLIErrors pins what a failed run prints: one "jsinfer:" line on
// stderr, nothing on stdout, status 1 — the same with and without
// -stream.
func testCLIErrors(t *testing.T, fx fixture) {
	malformed := append(append([]byte{}, fx.data...), "{]\n"...)
	_, decodeErr := core.ReadCollection(nil, bytes.NewReader(malformed))
	var se *jsontext.SyntaxError
	if !errors.As(decodeErr, &se) || se.Offset != len(fx.data)+1 {
		t.Fatalf("oracle error %v, want a syntax error at offset %d", decodeErr, len(fx.data)+1)
	}
	dir := t.TempDir()
	bad, missing := filepath.Join(dir, "bad.ndjson"), filepath.Join(dir, "missing.ndjson")
	if err := os.WriteFile(bad, malformed, 0o644); err != nil {
		t.Fatal(err)
	}
	_, openErr := os.Open(missing)

	type errCase struct {
		name  string
		stdin []byte // nil: must not be read
		args  []string
		want  string
	}
	cases := []errCase{
		{"empty stdin, skinfer", []byte(" \n"), []string{"-engine", "skinfer"}, "no input documents"},
		{"precision on stdin", nil, []string{"-precision", "-output", "report"}, "-precision needs file arguments: stdin cannot be re-read"},
		{"unknown output", nil, []string{"-output", "bogus"}, `unknown output "bogus"`},
		{"negative workers", nil, []string{"-workers", "-3"}, "-workers must be 0 (GOMAXPROCS) or more"},
		{"workers with skinfer", nil, []string{"-engine", "skinfer", "-workers", "3"}, "-workers above 1 applies to every engine but skinfer"},
		{"chunk bytes wrapping negative", nil, []string{"-chunk-bytes", "8589934592G"}, `-chunk-bytes: invalid size "8589934592G" (want e.g. 64K, 100MB, 1G)`},
		{"chunk bytes past int64", nil, []string{"-chunk-bytes", "99999999999G"}, `-chunk-bytes: invalid size "99999999999G" (want e.g. 64K, 100MB, 1G)`},
	}
	// The input failures read the same whichever engine streams, and for
	// skinfer -output counted, which prints the counted K type.
	for _, eng := range [][]string{nil, {"-engine", "spark"}, {"-engine", "skinfer", "-output", "counted"}} {
		cases = append(cases,
			errCase{fmt.Sprint("malformed stdin", eng), malformed, eng, decodeErr.Error()},
			errCase{fmt.Sprint("malformed file", eng), nil, slices.Concat(eng, []string{fx.path, bad}), bad + ": " + decodeErr.Error()},
			errCase{fmt.Sprint("empty stdin", eng), []byte{}, eng, "no input documents"},
			errCase{fmt.Sprint("missing file named once", eng), nil, slices.Concat(eng, []string{fx.path, missing}), openErr.Error()},
		)
	}
	for _, c := range cases {
		for _, stream := range [][]string{nil, {"-stream"}} {
			var stdin io.Reader = untouched{t}
			if c.stdin != nil {
				stdin = bytes.NewReader(c.stdin)
			}
			stdout, stderr, status := cli(stdin, append(stream, c.args...)...)
			if status != 1 || stdout != "" || stderr != "jsinfer: "+c.want+"\n" {
				t.Errorf("%s %v: status %d, stdout %q, stderr %q; want 1, nothing, %q", c.name, stream, status, stdout, stderr, "jsinfer: "+c.want)
			}
		}
	}
}

// TestRenderErrorExitsOne pins the streamed type outputs' failure path:
// when stdout fails part-way through the type, plain or counted, bare or
// in the report, run exits 1 and names the writer's error.
func TestRenderErrorExitsOne(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "sparse.ndjson")
	for _, args := range [][]string{nil, {"-output", "counted"}, {"-output", "report"}} {
		for _, limit := range []int{0, 100, 40 << 10} {
			out := &failingStdout{limit: limit}
			var errs bytes.Buffer
			status := run(append(slices.Clone(args), path), untouched{t}, out, &errs)
			if want := "jsinfer: " + errStdout.Error() + "\n"; status != 1 || errs.String() != want {
				t.Errorf("%v, stdout failing after %d bytes: status %d, stderr %q; want 1, %q", args, limit, status, errs.String(), want)
			}
		}
	}
}

var errStdout = errors.New("stdout closed")

// failingStdout accepts limit bytes, then fails every write.
type failingStdout struct{ limit, n int }

func (w *failingStdout) Write(p []byte) (int, error) {
	if room := w.limit - w.n; len(p) > room {
		w.n = w.limit
		return room, errStdout
	}
	w.n += len(p)
	return len(p), nil
}

// TestPrintStats pins the -stats table: one row per pipeline stage,
// every counter name=value on its stage's row (in the order of
// infer.StatsFields), and times rendered in milliseconds, then the gc
// row and the schema row — which a run that absorbed no document does
// not print — and the footer on reading the times. Scripts scrape
// this, so the shape is a contract.
func TestPrintStats(t *testing.T) {
	var b strings.Builder
	printStats(&b, core.StatsSnapshot{
		ChunksSplit: 3, PatternRecords: 400, FallbackRecords: 8,
		ScanDelegations: 5, RootFuses: 2, Seals: 9,
		BytesReindexed: 77, BytesCopied: 512, BuffersRecycled: 4, MmapInputs: 1,
		ReadNanos: 1_500_000, SplitNanos: 250_000, MapNanos: 7_000_000,
		ReduceNanos: 900_000, FuseNanos: 100_000,
	}, 2_500_000, 3, 1000, 128)
	want := `pipeline stats:
  stage           time  counters
  read         1.500ms  chunks_split=3 bytes_copied=512 buffers_recycled=4 mmap_inputs=1
  split        0.250ms  bytes_reindexed=77
  map          7.000ms  pattern_records=400 fallback_records=8 scan_delegations=5
  reduce       0.900ms
  fuse         0.100ms  root_fuses=2 seals=9
  gc           2.500ms  cycles=3
  schema                nodes=1000 docs=128 per_doc=7.81
  at several workers a stage's time is the sum over its goroutines, so map can exceed the wall time
`
	if got := b.String(); got != want {
		t.Errorf("stats table:\n%s\nwant:\n%s", got, want)
	}
	b.Reset()
	printStats(&b, core.StatsSnapshot{}, 0, 0, 1, 0)
	if got := b.String(); strings.Contains(got, "schema") {
		t.Errorf("a run that absorbed nothing prints a schema row:\n%s", got)
	}
}

// TestMain makes the test binary the command itself when
// JSINFER_TEST_MAIN is set, so a test can run the real main — start
// heap included — in a process of its own.
func TestMain(m *testing.M) {
	if os.Getenv("JSINFER_TEST_MAIN") != "" {
		main()
	}
	os.Exit(m.Run())
}

// gcCycles runs `jsinfer -workers 1 -stats path` as a process, with
// neither GOGC nor GOMEMLIMIT from this environment but env added, and
// returns the cycles its -stats gc row reports.
func gcCycles(t *testing.T, path string, env ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-workers", "1", "-stats", path)
	cmd.Env = slices.DeleteFunc(os.Environ(), func(kv string) bool {
		return strings.HasPrefix(kv, "GOGC=") || strings.HasPrefix(kv, "GOMEMLIMIT=")
	})
	cmd.Env = append(cmd.Env, append(env, "JSINFER_TEST_MAIN=1")...)
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.Discard, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("jsinfer %v: %v\n%s", env, err, stderr.String())
	}
	for _, line := range strings.Split(stderr.String(), "\n") {
		var n int
		if f := strings.Fields(line); len(f) == 3 && f[0] == "gc" {
			if _, err := fmt.Sscanf(f[2], "cycles=%d", &n); err == nil {
				return n
			}
		}
	}
	t.Fatalf("jsinfer %v: no gc row in\n%s", env, stderr.String())
	return 0
}

// TestStartHeapEndToEnd runs the command over 5000 generated tweets
// (about 3.5 MB) in a process of its own: the run stays below the start
// heap, so no collection runs at all — and GOGC=100 in the environment
// wins over the start heap, so collections run.
func TestStartHeapEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tweets.ndjson")
	if err := os.WriteFile(path, jsontext.MarshalLines(genjson.Collection(genjson.Twitter{Seed: 1}, 5000)), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := gcCycles(t, path); n != 0 {
		t.Errorf("jsinfer ran %d GC cycles below its %d MiB start heap, want 0", n, startHeap>>20)
	}
	if n := gcCycles(t, path, "GOGC=100"); n == 0 {
		t.Error("jsinfer with GOGC=100 ran no GC cycle: the environment's GOGC must win over the start heap")
	}
}

// gcPercent is the GOGC value the runtime paces with now.
func gcPercent() uint64 {
	s := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestDeferFirstGC pins the start-heap helper in process: a GOGC set in
// the environment is left alone; otherwise GOGC is raised until the
// first collection, and is 100 once that collection has run.
func TestDeferFirstGC(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(137))
	t.Setenv("GOGC", "137")
	deferFirstGC()
	if p := gcPercent(); p != 137 {
		t.Errorf("with GOGC=137 in the environment GC percent is %d after deferFirstGC, want 137", p)
	}

	os.Unsetenv("GOGC")
	runtime.GC() // the goal the helper scales from: this process's smallest
	deferFirstGC()
	if p := gcPercent(); p <= 100 {
		t.Fatalf("GC percent %d after deferFirstGC, want it raised above 100", p)
	}
	runtime.GC()
	for deadline := time.Now().Add(10 * time.Second); gcPercent() != 100; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("GC percent %d ten seconds after a collection, want 100", gcPercent())
		}
	}
}
