package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/jsontext"
)

func TestSameSeedSameCorpusAndBodies(t *testing.T) {
	for _, w := range workloads {
		a, b := generate(w.gen(7), 200), generate(w.gen(7), 200)
		if !bytes.Equal(a.data, b.data) || a.sha256 != b.sha256 {
			t.Errorf("%s: the same seed gave different corpora", w.name)
		}
		if other := generate(w.gen(8), 200); other.sha256 == a.sha256 {
			t.Errorf("%s: another seed gave the same corpus", w.name)
		}
		if err := a.cutBodies(); err != nil {
			t.Fatal(err)
		}
		if err := b.cutBodies(); err != nil {
			t.Fatal(err)
		}
		var joined []byte
		gz := 0
		for i := range a.bodies {
			if !bytes.Equal(a.bodies[i].wire, b.bodies[i].wire) {
				t.Errorf("%s: body %d differs between two cuts of the same corpus", w.name, i)
			}
			joined = append(joined, a.bodies[i].raw...)
			if a.bodies[i].gzip {
				gz++
			}
		}
		if !bytes.Equal(joined, a.data) {
			t.Errorf("%s: the bodies do not add up to the corpus", w.name)
		}
		if len(a.bodies) != nBodies || gz != nBodies/gzipEvery {
			t.Errorf("%s: %d bodies, %d gzip; want %d and %d", w.name, len(a.bodies), gz, nBodies, nBodies/gzipEvery)
		}
	}
}

func TestOracleIsIndependentOfDocumentOrder(t *testing.T) {
	w, _ := findWorkload("tweets_seq")
	c := generate(w.gen(3), 120)
	want, err := c.oracle()
	if err != nil {
		t.Fatal(err)
	}
	// The same documents, last half first.
	mid := c.starts[60]
	r := &corpus{data: append(append([]byte(nil), c.data[mid:]...), c.data[:mid]...)}
	for off := 0; off < len(r.data); off += bytes.IndexByte(r.data[off:], '\n') + 1 {
		r.starts = append(r.starts, off)
	}
	r.starts = append(r.starts, len(r.data))
	got, err := r.oracle()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("the oracle depends on the order of the documents")
	}
}

func TestBestAndPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := best(xs); got != 1 {
		t.Errorf("best = %v, want 1", got)
	}
	if got := best(nil); got != 0 {
		t.Errorf("best of nothing = %v, want 0", got)
	}
	asc := sorted(xs)
	for p, want := range map[float64]float64{0: 1, 0.5: 3, 1: 5, 0.25: 2, 0.9: 4.6} {
		if got := percentile(asc, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if xs[0] != 5 {
		t.Error("sorted changed its argument")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([...], n=4) of each input.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{2.5, 3.1, 2.9, 3.4, 2.7, 3.0, 3.3}, 2.7, 3.0, 3.3},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q2-c.q2) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if p, _ := tailPercentile(seq(2000), 0.99); p != 0.99 {
		t.Errorf("2000 samples support p99, got p%v", p*100)
	}
	if p, _ := tailPercentile(seq(1000), 0.99); p != 0.99 {
		t.Errorf("1000 samples have 10 beyond p99, got p%v", p*100)
	}
	p, v := tailPercentile(seq(500), 0.99)
	if math.Abs(p-0.98) > 1e-12 {
		t.Errorf("500 samples support p98, got p%v", p*100)
	}
	if v < 489 || v > 491 {
		t.Errorf("p98 of 1..500 = %v", v)
	}
	if p, _ := tailPercentile(seq(15), 0.99); p != 0.5 {
		t.Errorf("15 samples support only the median, got p%v", p*100)
	}
}

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "b", StartNs: 30, EndNs: 60},   // overlaps a: 10..60 counted once
		{ID: 4, Parent: 1, Name: "c", StartNs: 90, EndNs: 130},  // clipped to the parent
		{ID: 5, Parent: 2, Name: "a.x", StartNs: 15, EndNs: 20}, // a grandchild is its parent's business
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 40, 2: 25, 3: 30, 4: 40, 5: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorderNestsAndNumbersTraces(t *testing.T) {
	r := newRecorder()
	r.nextTrace()
	outer := r.begin("outer")
	inner := r.begin("inner")
	r.end(inner)
	r.add("request", time.Now(), time.Millisecond)
	r.end(outer)
	r.nextTrace()
	r.end(r.begin("next"))
	want := []span{{ID: 1, Parent: 0, Trace: 1, Name: "outer"}, {ID: 2, Parent: 1, Trace: 1, Name: "inner"},
		{ID: 3, Parent: 1, Trace: 1, Name: "request"}, {ID: 4, Parent: 0, Trace: 2, Name: "next"}}
	for i, w := range want {
		g := r.spans[i]
		if g.ID != w.ID || g.Parent != w.Parent || g.Trace != w.Trace || g.Name != w.Name || g.EndNs < g.StartNs {
			t.Errorf("span %d = %+v, want %+v", i, g, w)
		}
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if !strings.Contains(string(data), `"name":"inner"`) {
		t.Errorf("span file lacks the spans: %s", data)
	}
}

func TestFailedOpsAreCountedAndNeverTimed(t *testing.T) {
	calls := 0
	p := measure(0, 6, func() (timing, int64, error) {
		calls++
		if calls%3 == 0 {
			// A failed op took no time at all; were it timed it would win.
			return timing{wall: 0, stepNs: refStepNs}, 0, errors.New("output differs from the oracle")
		}
		return timing{wall: time.Duration(calls) * time.Millisecond, stepNs: refStepNs}, 100, nil
	})
	if p.attempted != 6 || p.failed != 2 || len(p.timings) != 4 || len(p.rssKB) != 4 {
		t.Fatalf("attempted %d failed %d timings %d, want 6 2 4", p.attempted, p.failed, len(p.timings))
	}
	if p.firstErr == nil {
		t.Error("the first failure was not kept")
	}
	if got := p.refWall(); got != 0.001 {
		t.Errorf("floor over the successful ops = %v, want the 1 ms op", got)
	}
}

func TestMeasureRunsForItsTimeAndAtLeastOnce(t *testing.T) {
	n := 0
	op := func() (timing, int64, error) { n++; time.Sleep(2 * time.Millisecond); return timing{stepNs: 1}, 0, nil }
	if p := measure(0, 0, op); p.attempted != 1 {
		t.Errorf("a phase of no length ran %d ops, want 1", p.attempted)
	}
	if p := measure(30*time.Millisecond, 0, op); p.attempted < 3 || p.attempted > 16 || n != p.attempted+1 {
		t.Errorf("a 30 ms phase of 2 ms ops ran %d ops", p.attempted)
	}
}

// A mismatching op through the real spawn path: the "program" prints
// something that is not the oracle.
func TestCLIOpRejectsWrongOutput(t *testing.T) {
	dir := t.TempDir()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// The stand-in for jsinfer is this test binary printing a fixed line
	// (see TestMain), behind a script because cliOp passes jsinfer flags.
	script := filepath.Join(dir, "jsinfer")
	if err := os.WriteFile(script, []byte("#!/bin/sh\nJSPERF_TEST_PRINT=xxxxx exec '"+self+"'\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	sp, err := startTestSpawner(t)
	if err != nil {
		t.Skip("cannot start a spawner from a test binary:", err)
	}
	e := &env{jsinfer: script, dir: dir, spawner: sp}
	f := &fixture{file: filepath.Join(dir, "none"), oracle: "xxxxx\n"}
	if _, _, err := e.cliOp(f); err != nil {
		t.Fatalf("the matching op failed: %v", err)
	}
	f.oracle = "Str\n"
	if _, _, err := e.cliOp(f); err == nil || !strings.Contains(err.Error(), "differs from the oracle") {
		t.Errorf("the mismatching op: err = %v", err)
	}
	e.jsinfer = filepath.Join(dir, "missing")
	if _, _, err := e.cliOp(f); err == nil {
		t.Error("an op that cannot start did not fail")
	}
}

// startTestSpawner runs the test binary itself as the spawner.
func startTestSpawner(t *testing.T) (*spawner, error) {
	t.Setenv("JSPERF_TEST_SPAWNER", "1")
	sp, err := startSpawner()
	if err == nil {
		t.Cleanup(func() { _ = sp.close() })
	}
	return sp, err
}

func TestMain(m *testing.M) {
	switch {
	case os.Getenv("JSPERF_TEST_PRINT") != "":
		// A child with a peak RSS well above any spawner's.
		big := make([]byte, 64<<20)
		for i := 0; i < len(big); i += 4096 {
			big[i] = 1
		}
		fmt.Println(os.Getenv("JSPERF_TEST_PRINT"))
	case os.Getenv("JSPERF_TEST_SPAWNER") == "1":
		if err := spawnerMain(); err != nil {
			os.Exit(1)
		}
	default:
		os.Exit(m.Run())
	}
}

func TestFloorUsesTheLowQuarterAtTheReferenceClock(t *testing.T) {
	var ts []timing
	for i := 1; i <= 8; i++ {
		ts = append(ts, timing{wall: time.Duration(i) * time.Second, stepNs: refStepNs})
	}
	if got := floor(ts, timing.refSeconds); got != 1.5 {
		t.Errorf("floor of 1..8 s = %v, want the mean of the lowest two, 1.5", got)
	}
	// The same second measured at a clock 10% slower than the reference
	// is 1/1.1 s at the reference clock.
	slow := timing{wall: time.Second, cpu: 2 * time.Second, stepNs: refStepNs * 1.1}
	if got := slow.refSeconds(); math.Abs(got-1/1.1) > 1e-12 {
		t.Errorf("refSeconds = %v, want %v", got, 1/1.1)
	}
	if got := slow.refCPU(); math.Abs(got-2/1.1) > 1e-12 {
		t.Errorf("refCPU = %v, want %v", got, 2/1.1)
	}
	if got := floor(nil, timing.refSeconds); got != 0 {
		t.Errorf("floor of nothing = %v", got)
	}
}

func TestTimedReadsTheClock(t *testing.T) {
	tm := timed(func() { time.Sleep(25 * time.Millisecond) })
	if tm.wall < 25*time.Millisecond || tm.wall > time.Second {
		t.Errorf("wall = %v", tm.wall)
	}
	if tm.stepNs < 0.2 || tm.stepNs > 50 {
		t.Errorf("clock reading %v ns per step is not plausible", tm.stepNs)
	}
}

func TestLexAllReadsNamesDecodedAndValuesSkipped(t *testing.T) {
	src := newTokenSource()
	doc := []byte(`{"name":"value","list":[{"k":"v"},"s"],"n":1}` + "\n" + `"top"` + "\n")
	if err := src.Reset(doc, 0); err != nil {
		t.Fatal(err)
	}
	var names []string
	n, err := lexAll(src, func(tok jsontext.Token) {
		if tok.Str != "" {
			names = append(names, tok.Str)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(names, ","); got != "name,list,k,n" {
		t.Errorf("decoded strings = %q, want only the field names", got)
	}
	if n != 22 {
		t.Errorf("%d tokens, want 22", n)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := benchSpec{EndToEnd: []metricSpec{
		{Name: "throughput_MBps", Unit: "MB/s", Better: "higher", Bound: 0.10},
		{Name: "cpu_ms_per_MB", Unit: "ms/MB", Better: "lower", Bound: 0.10},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	set := func(tp, cpu []float64) []record {
		var rs []record
		for i := range tp {
			rs = append(rs, record{Workload: "w", result: result{Correct: true, Metrics: map[string]metric{
				"throughput_MBps": {tp[i], "MB/s"}, "cpu_ms_per_MB": {cpu[i], "ms/MB"}}}})
		}
		return rs
	}
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name     string
		old, cur []record
		want     [2]string
		fails    bool
	}{
		{"same", set(steady, steady), set(steady, steady), [2]string{verdictOK, verdictOK}, false},
		{"throughput fell 20%, cpu rose 5%", set(steady, steady), set([]float64{80, 81, 79, 80, 82}, []float64{105, 106, 104, 105, 107}),
			[2]string{verdictWorse, verdictOK}, true},
		{"throughput rose, cpu rose 15%", set(steady, steady), set([]float64{120, 121, 119, 120, 122}, []float64{115, 116, 114, 115, 117}),
			[2]string{verdictOK, verdictWorse}, true},
		{"the old runs spread wider than the bound", set([]float64{80, 90, 100, 110, 120}, steady), set([]float64{70, 95, 100, 105, 130}, steady),
			[2]string{verdictUnresolved, verdictOK}, false},
		{"wide spread but every new run beats every old one", set([]float64{80, 90, 100, 110, 120}, steady), set([]float64{130, 140, 150, 135, 145}, steady),
			[2]string{verdictOK, verdictOK}, false},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := compareSets(&out, spec, c.old, c.cur)
		if (err != nil) != c.fails {
			t.Errorf("%s: err = %v, want failure %v", c.name, err, c.fails)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != 3 {
			t.Fatalf("%s: %d lines, want a header and two rows:\n%s", c.name, len(lines), out.String())
		}
		for i, want := range c.want {
			if f := strings.Fields(lines[i+1]); f[len(f)-1] != want {
				t.Errorf("%s: row %d verdict %q, want %q\n%s", c.name, i, f[len(f)-1], want, lines[i+1])
			}
		}
	}
	// More failed ops than the parent is worse whatever the numbers say.
	bad := set(steady, steady)
	bad[0].Failed = 1
	var out bytes.Buffer
	if err := compareSets(&out, spec, set(steady, steady), bad); err == nil || !strings.Contains(out.String(), "more failed ops") {
		t.Errorf("failed ops in the new set: err = %v\n%s", err, out.String())
	}
}

func TestReadSetSelectsLabelAndSkipsTracedRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "set.json")
	for _, r := range []record{
		{Workload: "w", Set: "a"}, {Workload: "w", Set: "b"}, {Workload: "w", Set: "b", Trace: true}, {Workload: "w", Set: "b"},
	} {
		if err := appendRecord(path, r); err != nil {
			t.Fatal(err)
		}
	}
	for arg, want := range map[string]int{path: 3, path + "#a": 1, path + "#b": 2} {
		runs, err := readSet(arg)
		if err != nil || len(runs) != want {
			t.Errorf("readSet(%s) = %d runs, %v; want %d", filepath.Base(arg), len(runs), err, want)
		}
	}
	if _, err := readSet(path + "#none"); err == nil {
		t.Error("an empty selection is not an error")
	}
}
