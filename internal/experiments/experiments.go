// Package experiments implements the evaluation harness: one runnable
// experiment per quantitative claim the tutorial makes about the
// surveyed systems (the tutorial itself, being a tutorial, has no
// numbered tables or figures). Each experiment builds its workload,
// runs the systems under comparison, and returns a printable table;
// cmd/jsbench prints them all, and docs/EXPERIMENTS.md indexes them
// and records the measured outcomes.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/fadjs"
	"repro/internal/genjson"
	"repro/internal/infer"
	"repro/internal/jsonschema"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/mison"
	"repro/internal/mongoschema"
	"repro/internal/skinfer"
	"repro/internal/sparkinfer"
	"repro/internal/typelang"
)

// Table is one experiment's result.
type Table struct {
	ID     string
	Title  string
	Claim  string
	Header []string
	Rows   [][]string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func d(n int) string      { return fmt.Sprintf("%d", n) }
func ms(dur time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(dur.Microseconds())/1000)
}

// E1SchemaSizes sweeps heterogeneity and compares K- versus L-schema
// size and precision against input size.
func E1SchemaSizes() *Table {
	t := &Table{
		ID:     "E1",
		Title:  "parametric inference: K vs L size and precision",
		Claim:  "precise yet concise schemas at different abstraction levels (§4.1 [10-12])",
		Header: []string{"docs", "input_nodes", "K_size", "L_size", "L_record_alts", "K_precision", "L_precision"},
	}
	for _, n := range []int{100, 1000, 5000} {
		docs := genjson.Collection(genjson.GitHub{Seed: 11}, n)
		input := 0
		for _, doc := range docs {
			input += doc.Size()
		}
		k := infer.Infer(docs, infer.Options{Equiv: typelang.EquivKind})
		l := infer.Infer(docs, infer.Options{Equiv: typelang.EquivLabel})
		t.Rows = append(t.Rows, []string{
			d(n), d(input), d(k.Size()), d(l.Size()),
			d(typelang.DistinctRecordAlternatives(l)),
			f3(typelang.Precision(k, docs)), f3(typelang.Precision(l, docs)),
		})
	}
	return t
}

// E2SparkImprecision compares Spark-style inference with parametric
// inference on increasingly drifting collections.
func E2SparkImprecision() *Table {
	t := &Table{
		ID:     "E2",
		Title:  "Spark's union-free inference vs parametric inference",
		Claim:  "Spark \"resorts to Str on strongly heterogeneous collections\" (§4.1 [7])",
		Header: []string{"drift_fields", "spark_str_cols", "spark_precision", "parametric_precision"},
	}
	for _, drift := range []int{0, 2, 5, 8} {
		docs := genjson.Collection(genjson.TypeDrift{Seed: 12, NumFields: 10, DriftFields: drift}, 1000)
		sp := sparkinfer.Infer(docs)
		strCols := 0
		for _, f := range sp.Fields {
			if f.Type.Kind == sparkinfer.StringType {
				strCols++
			}
		}
		param := infer.Infer(docs, infer.Options{Equiv: typelang.EquivLabel})
		t.Rows = append(t.Rows, []string{
			d(drift), d(strCols),
			f3(typelang.Precision(sp.ToTypelang(), docs)),
			f3(typelang.Precision(param, docs)),
		})
	}
	return t
}

// bestOf3 times every side three times and returns each side's best.
// The sides are interleaved rep by rep, so a noisy second on a shared
// host (the suite runs with other packages' tests in parallel) lands on
// all of them instead of skewing the ratio between two.
func bestOf3(sides ...func()) []time.Duration {
	best := make([]time.Duration, len(sides))
	for rep := 0; rep < 3; rep++ {
		for i, side := range sides {
			start := time.Now()
			side()
			if e := time.Since(start); rep == 0 || e < best[i] {
				best[i] = e
			}
		}
	}
	return best
}

// E3ParallelSpeedup measures the associative-merge parallel reduce on
// the engine and input route `jsinfer FILE` runs: InferStreamFiles over
// the serialised corpus in a temporary file (about 8 MB, so it is
// mapped) at several workers, timed against its own 1-worker run, each
// result checked against the sequential DOM fold (infer.Infer). The
// widths are interleaved rep by rep, so host noise lands on every row
// alike.
func E3ParallelSpeedup() *Table {
	t := &Table{
		ID:     "E3",
		Title:  "parallel inference (associative/commutative reduce)",
		Claim:  "the merge distributes: same result at every width (§4.1 [10-12]); speedup reported, not pinned: under a loaded test suite 2 workers trail 1",
		Header: []string{"workers", "time", "speedup", "identical_result", "windows", "bytes_reindexed"},
	}
	docs := genjson.Collection(genjson.Twitter{Seed: 13}, 12000)
	dir, err := os.MkdirTemp("", "e3-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	file := filepath.Join(dir, "tweets.ndjson")
	if err := os.WriteFile(file, jsontext.MarshalLines(docs), 0o644); err != nil {
		panic(err)
	}
	baseline := infer.Infer(docs, infer.Options{Equiv: typelang.EquivLabel})
	widths := []int{1, 2, 4, 8}
	got := make([]*typelang.Type, len(widths))
	stats := make([]*infer.PipelineStats, len(widths))
	sides := make([]func(), len(widths))
	for i, workers := range widths {
		sides[i] = func() {
			stats[i] = &infer.PipelineStats{}
			ty, _, err := infer.InferStreamFiles([]string{file}, infer.Options{Equiv: typelang.EquivLabel, Workers: workers, Stats: stats[i]})
			if err != nil {
				panic(err)
			}
			got[i] = ty
		}
	}
	times := bestOf3(sides...)
	for i, workers := range widths {
		s := stats[i].Snapshot()
		t.Rows = append(t.Rows, []string{
			d(workers), ms(times[i]),
			f2(float64(times[0]) / float64(times[i])),
			fmt.Sprint(typelang.Equal(got[i], baseline) && got[i].StringCounted() == baseline.StringCounted()),
			fmt.Sprint(s.ChunksSplit), fmt.Sprint(s.BytesReindexed),
		})
	}
	return t
}

// E4MongoVsStudio3T compares the merged streaming analyzer with the
// no-merge shape collector as the collection grows.
func E4MongoVsStudio3T() *Table {
	t := &Table{
		ID:     "E4",
		Title:  "mongodb-schema (merge) vs Studio 3T (no merge)",
		Claim:  "merged schemas stay concise; unmerged ones grow with the data (§4.1 [19][22])",
		Header: []string{"docs", "merged_bytes", "unmerged_bytes", "unmerged_shapes", "input_bytes"},
	}
	g := genjson.SkewedOptional{Seed: 14, NumFields: 18}
	for _, n := range []int{100, 1000, 5000} {
		docs := genjson.Collection(g, n)
		a := mongoschema.NewAnalyzer()
		c := mongoschema.NewShapeCollector()
		input := 0
		for _, doc := range docs {
			a.Analyze(doc)
			c.Analyze(doc)
			input += len(jsontext.Marshal(doc))
		}
		t.Rows = append(t.Rows, []string{
			d(n), d(a.SchemaSize()), d(c.SchemaSize()), d(c.DistinctShapes()), d(input),
		})
	}
	return t
}

// E5SkinferArrayGap measures the record-only-merge limitation.
func E5SkinferArrayGap() *Table {
	t := &Table{
		ID:     "E5",
		Title:  "Skinfer's record-only merge vs parametric inference",
		Claim:  "Skinfer \"cannot be recursively applied to objects nested inside arrays\" (§4.1 [23])",
		Header: []string{"engine", "docs_validating", "of", "precision"},
	}
	t.Rows = skinferGapRows(genjson.Collection(genjson.NestedArrays{Seed: 15, Shapes: 3}, 500))
	return t
}

// skinferGapRows are E5's rows over docs: for Skinfer's schema and for
// the parametric L type, the documents it validates, of how many, and
// its precision.
func skinferGapRows(docs []*jsonvalue.Value) [][]string {
	sk := jsonschema.MustCompile(skinfer.Infer(docs))
	param := infer.Infer(docs, infer.Options{Equiv: typelang.EquivLabel})
	skOK, paramOK := 0, 0
	for _, doc := range docs {
		if sk.Accepts(doc) {
			skOK++
		}
		if param.Matches(doc) {
			paramOK++
		}
	}
	return [][]string{
		{"skinfer", d(skOK), d(len(docs)), f3(typelang.Precision(jsonschema.ToType(sk), docs))},
		{"parametric-L", d(paramOK), d(len(docs)), f3(typelang.Precision(param, docs))},
	}
}

// E6MisonProjection sweeps projectivity: Mison versus full parsers.
func E6MisonProjection() *Table {
	t := &Table{
		ID:     "E6",
		Title:  "Mison structural-index projection vs full parsing",
		Claim:  "parse speedup by pruning data the task does not need (§4.2 [20])",
		Header: []string{"projected_fields", "mison", "full_parse", "speedup", "spec_hit_rate"},
	}
	docs := genjson.Collection(genjson.Twitter{Seed: 16, RetweetP: 0.01}, 2000)
	lines := make([][]byte, len(docs))
	for i, doc := range docs {
		lines[i] = jsontext.Marshal(doc)
	}
	projections := [][]string{
		{"id"},
		{"id", "lang"},
		{"id", "lang", "user.screen_name", "retweet_count"},
		{"id", "lang", "user.screen_name", "retweet_count", "favorite_count", "truncated", "created_at", "text"},
	}
	// Full-parse baseline: parse everything, look up the same fields.
	sides := []func(){func() {
		for _, raw := range lines {
			v, err := jsontext.Parse(raw)
			if err != nil {
				panic(err)
			}
			v.Get("id")
		}
	}}
	// Every rep speculates from a cold parser; the last one's hit rate
	// is reported (they are all the same).
	parsers := make([]*mison.Parser, len(projections))
	for i, proj := range projections {
		sides = append(sides, func() {
			parsers[i] = mison.MustNewParser(proj...)
			for _, raw := range lines {
				if _, err := parsers[i].ParseRecord(raw); err != nil {
					panic(err)
				}
			}
		})
	}
	times := bestOf3(sides...)
	fullTime := times[0]
	for i, proj := range projections {
		p, elapsed := parsers[i], times[i+1]
		hitRate := 0.0
		if p.Hits+p.Misses > 0 {
			hitRate = float64(p.Hits) / float64(p.Hits+p.Misses)
		}
		t.Rows = append(t.Rows, []string{
			d(len(proj)), ms(elapsed), ms(fullTime),
			f2(float64(fullTime) / float64(elapsed)), f2(hitRate),
		})
	}
	return t
}

// E7FadjsSpeculation compares the speculative codec on constant-shape
// and shape-churning streams.
func E7FadjsSpeculation() *Table {
	t := &Table{
		ID:     "E7",
		Title:  "Fad.js speculative decoding: constant vs churning shapes",
		Claim:  "speculation on constant structure wins; deopt stays graceful (§4.2 [14])",
		Header: []string{"stream", "fadjs", "generic", "ratio", "deopts"},
	}
	constant := make([][]byte, 5000)
	for i := range constant {
		constant[i] = jsontext.Marshal(jsonvalue.ObjectFromPairs(
			"id", i, "name", "user", "active", i%2 == 0, "score", float64(i)/3))
	}
	churn := make([][]byte, 5000)
	for i := range churn {
		churn[i] = jsontext.Marshal(jsonvalue.ObjectFromPairs(
			fmt.Sprintf("k%d", i%7), i, fmt.Sprintf("m%d", i%11), "x"))
	}
	run := func(name string, lines [][]byte, dec *fadjs.Decoder) {
		times := bestOf3(func() {
			for _, raw := range lines {
				if _, err := jsontext.Parse(raw); err != nil {
					panic(err)
				}
			}
		}, func() {
			for _, raw := range lines {
				if _, err := dec.Decode(raw); err != nil {
					panic(err)
				}
			}
		})
		genericTime, elapsed := times[0], times[1]
		t.Rows = append(t.Rows, []string{
			name, ms(elapsed), ms(genericTime),
			f2(float64(genericTime) / float64(elapsed)), d(dec.Deopts),
		})
	}
	run("constant-shape", constant, fadjs.NewDecoder())
	// The headline Fad.js scenario: "most applications never use all
	// the fields" — same constant stream, two used fields.
	run("constant-projected", constant, fadjs.NewDecoder("id", "score"))
	run("shape-churn", churn, fadjs.NewDecoder())
	return t
}

// E12CountingTypes measures the cost of counting annotations.
func E12CountingTypes() *Table {
	t := &Table{
		ID:     "E12",
		Title:  "counting types: annotation cost and exactness",
		Claim:  "cardinality info at near-zero size cost (§4.1 [11])",
		Header: []string{"docs", "plain_chars", "counted_chars", "overhead", "counts_exact"},
	}
	g := genjson.SkewedOptional{Seed: 17, NumFields: 15}
	for _, n := range []int{500, 2000} {
		docs := genjson.Collection(g, n)
		ty := infer.Infer(docs, infer.Options{Equiv: typelang.EquivKind})
		plain := len(ty.String())
		counted := len(ty.StringCounted())
		// Verify counts against a direct tally of field k01.
		tally := 0
		for _, doc := range docs {
			if doc.Has("k01") {
				tally++
			}
		}
		f, _ := ty.Get("k01")
		t.Rows = append(t.Rows, []string{
			d(n), d(plain), d(counted),
			f2(float64(counted) / float64(plain)),
			fmt.Sprint(int(f.Count) == tally && int(ty.Count) == n),
		})
	}
	return t
}
