package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/genjson"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/mmapio"
	"repro/internal/skinfer"
	"repro/internal/sparkinfer"
	"repro/internal/typelang"
)

// End-to-end pipeline tests mirroring the CLI tools' flows (the mains
// themselves are thin argument parsing over these paths).

func TestPipelineGenerateInferValidate(t *testing.T) {
	// jsgen | jsinfer | jsvalidate in-process.
	docs := genjson.Collection(genjson.OpenData{Seed: 111}, 120)
	ndjson := jsontext.MarshalLines(docs)
	parsed, err := ParseCollection(ndjson)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := InferSchema(parsed, ParametricL)
	if err != nil {
		t.Fatal(err)
	}
	validator, err := CompileJSONSchema(inf.JSONSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range parsed {
		if !validator.Accepts(d) {
			t.Fatalf("doc %d fails its own inferred schema", i)
		}
	}
}

func TestInferSchemaStreamFilesWith(t *testing.T) {
	// Multi-file streaming must match materialised inference over the
	// concatenation, and a decode error must name the offending file.
	docs1 := genjson.Collection(genjson.Orders{Seed: 201}, 60)
	docs2 := genjson.Collection(genjson.Orders{Seed: 202}, 40)
	dir := t.TempDir()
	f1 := filepath.Join(dir, "a.ndjson")
	f2 := filepath.Join(dir, "b.ndjson")
	if err := os.WriteFile(f1, jsontext.MarshalLines(docs1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f2, jsontext.MarshalLines(docs2), 0o644); err != nil {
		t.Fatal(err)
	}
	inf, n, err := InferSchemaStreamFilesWith([]string{f1, f2}, ParametricL, StreamOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("streamed %d docs, want 100", n)
	}
	want, err := InferSchema(append(append([]*Value{}, docs1...), docs2...), ParametricL)
	if err != nil {
		t.Fatal(err)
	}
	if !typelang.Equal(inf.Type, want.Type) {
		t.Errorf("streamed type %s differs from materialised %s", inf.Type, want.Type)
	}

	bad := filepath.Join(dir, "bad.ndjson")
	if err := os.WriteFile(bad, []byte("{]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, n, err := InferSchemaStreamFilesWith([]string{f1, bad}, ParametricL, StreamOptions{Workers: 3}); err == nil {
		t.Error("expected decode error")
	} else {
		if !strings.Contains(err.Error(), "bad.ndjson") {
			t.Errorf("error does not name the file: %v", err)
		}
		if n != 60 {
			t.Errorf("typed %d docs before the error, want 60", n)
		}
	}

	// A file that cannot be opened is named once — its *fs.PathError
	// already carries the name, only decode errors get the prefix — and
	// the files before it stay counted.
	var pe *fs.PathError
	_, n, err = InferSchemaStreamFilesWith([]string{f1, filepath.Join(dir, "missing.ndjson")}, ParametricL, StreamOptions{})
	if !errors.As(err, &pe) || strings.Count(err.Error(), "missing.ndjson") != 1 || n != 60 {
		t.Errorf("missing file: error %q after %d docs, want a PathError naming missing.ndjson once after 60", err, n)
	}

	// Spark streams the K pass and projects once, at the end of the run:
	// `a` is Int in one file and Str in the other, so its column is a
	// string — the merged images of the two files would be Int + Str + Null.
	ints, strs := filepath.Join(dir, "ints.ndjson"), filepath.Join(dir, "strs.ndjson")
	if err := os.WriteFile(ints, []byte(`{"a":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(strs, []byte(`{"a":"x"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, names := range [][]string{{f1, f2}, {ints, strs}} {
		var docs []*Value
		for _, name := range names {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			part, err := ParseCollection(data)
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, part...)
		}
		want := sparkinfer.Infer(docs)
		inf, n, err := InferSchemaStreamFilesWith(names, Spark, StreamOptions{Workers: 2})
		if err != nil || n != len(docs) || inf.Engine != Spark || !typelang.Equal(inf.Type, want.ToTypelang()) {
			t.Errorf("Spark over %v: %d docs, err %v, type %s; want %d docs and %s (%s)", names, n, err, inf.Type, len(docs), want.ToTypelang(), want)
		}
	}
	if _, _, err := InferSchemaStreamFilesWith([]string{f1}, Skinfer, StreamOptions{}); err == nil {
		t.Error("Skinfer must reject streaming")
	}
	if _, _, err := InferSchemaStreamWith(strings.NewReader(`{"a":1}`), Skinfer, StreamOptions{}); err == nil {
		t.Error("Skinfer must reject streaming from a reader")
	}
}

func TestStreamPrecisionSecondPass(t *testing.T) {
	// The streamed single pass cannot grade precision (Precision is -1);
	// the explicit second pass over the same files must reproduce the
	// figure the materialised path computes.
	docs := genjson.Collection(genjson.TypeDrift{Seed: 203}, 150)
	dir := t.TempDir()
	file := filepath.Join(dir, "drift.ndjson")
	if err := os.WriteFile(file, jsontext.MarshalLines(docs), 0o644); err != nil {
		t.Fatal(err)
	}

	streamed, n, err := InferSchemaStreamFilesWith([]string{file}, ParametricL, StreamOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n != 150 {
		t.Fatalf("streamed %d docs, want 150", n)
	}
	if streamed.Precision != -1 {
		t.Errorf("streamed single pass reported precision %v, want -1 sentinel", streamed.Precision)
	}

	p, graded, err := StreamPrecisionFiles([]string{file}, streamed.Type)
	if err != nil {
		t.Fatal(err)
	}
	if graded != 150 {
		t.Errorf("precision pass graded %d docs, want 150", graded)
	}
	want := typelang.Precision(streamed.Type, docs)
	if p != want {
		t.Errorf("second-pass precision %v differs from materialised %v", p, want)
	}
	if p <= 0 || p > 1 {
		t.Errorf("precision %v out of range", p)
	}

	// A precision pass over unreadable input names the problem.
	if _, _, err := StreamPrecisionFiles([]string{filepath.Join(dir, "missing.ndjson")}, streamed.Type); err == nil {
		t.Error("expected error for missing file")
	}
}

// TestReadCollection pins the collection reader: named files are read
// in turn as one collection, stdin when none is named, and a decode
// error names its file and carries the offset within it; the precision
// pass reads through the same loop and reports the same error.
func TestReadCollection(t *testing.T) {
	dir := t.TempDir()
	a, b, bad := filepath.Join(dir, "a.ndjson"), filepath.Join(dir, "b.ndjson"), filepath.Join(dir, "bad.ndjson")
	for name, body := range map[string]string{a: `{"x":1}` + "\n", b: `{"y":"s"} [2]` + "\n", bad: `{"z":true}` + "\n{]\n"} {
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	docs, err := ReadCollection([]string{a, b}, strings.NewReader(`{"ignored":0}`))
	if err != nil {
		t.Fatal(err)
	}
	stdin, err := ReadCollection(nil, strings.NewReader(`{"x":1} {"y":"s"}`+"\n[2]"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`{"x":1}`, `{"y":"s"}`, `[2]`}
	for _, got := range [][]*Value{docs, stdin} {
		if len(got) != len(want) {
			t.Fatalf("read %d documents, want %d", len(got), len(want))
		}
		for i, d := range got {
			if string(MarshalIndent(d, "")) != want[i] {
				t.Errorf("document %d = %s, want %s", i, MarshalIndent(d, ""), want[i])
			}
		}
	}

	_, err = ReadCollection([]string{a, bad}, nil)
	var se *jsontext.SyntaxError
	if err == nil || !strings.HasPrefix(err.Error(), bad+": ") || !errors.As(err, &se) || se.Offset != 12 {
		t.Errorf("malformed file: err = %v, want a syntax error at offset 12 prefixed with %s", err, bad)
	}
	if _, _, perr := StreamPrecisionFiles([]string{a, bad}, typelang.Any); perr == nil || perr.Error() != err.Error() {
		t.Errorf("precision pass error = %v, want the reader's %v", perr, err)
	}
	if _, err := ReadCollection([]string{filepath.Join(dir, "missing.ndjson")}, nil); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: err = %v, want fs.ErrNotExist", err)
	}
}

func TestPipelineGenerateTranslateRestore(t *testing.T) {
	docs := genjson.Collection(genjson.NestedArrays{Seed: 112}, 90)
	tr, err := Translate(docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Columnar) == 0 || len(tr.RowBinary) == 0 {
		t.Fatal("empty translation outputs")
	}
	back, err := RestoreColumnar(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(docs) {
		t.Fatalf("restored %d of %d docs", len(back), len(docs))
	}
}

func TestCodegenOutputsMentionEveryTopLevelField(t *testing.T) {
	docs := genjson.Collection(genjson.Orders{Seed: 113}, 50)
	inf, err := InferSchema(docs, ParametricK)
	if err != nil {
		t.Fatal(err)
	}
	ts := TypeToTypeScript("Order", inf.Type)
	sw := TypeToSwift("Order", inf.Type)
	for _, field := range []string{"order_id", "customer_id", "customer_name", "lines", "date"} {
		if !strings.Contains(ts, field) {
			t.Errorf("TypeScript output missing %s", field)
		}
		if !strings.Contains(sw, field) {
			t.Errorf("Swift output missing %s", field)
		}
	}
}

// TestStreamFilesKeepPrefixOnError pins the error contract the reader
// facade already had on the files facade too: when a file is malformed
// mid-way, the Inference returned with the error covers exactly the
// documents before it — every earlier file plus the failing file's good
// prefix — through the reader and the mmap route alike: the failing
// file is once short of infer's 1 MiB mapping threshold (read) and once
// past it (mapped, where the platform can). The malformed record sits
// in its file's last window, and at every worker count whatever follows
// that file — nothing, a file that cannot be opened, one that ends
// inside a document, one that fails its first read — leaves the error
// the failing file's own.
func TestStreamFilesKeepPrefixOnError(t *testing.T) {
	docs1 := genjson.Collection(genjson.Orders{Seed: 211}, 60)
	dir := t.TempDir()
	f1 := filepath.Join(dir, "a.ndjson")
	bad := filepath.Join(dir, "bad.ndjson")
	truncated, unreadable := filepath.Join(dir, "truncated.ndjson"), filepath.Join(dir, "unreadable")
	if err := os.WriteFile(f1, jsontext.MarshalLines(docs1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncated, []byte(`{"a":1}`+"\n"+`{"a":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(unreadable, 0o755); err != nil { // opens, then fails its first read
		t.Fatal(err)
	}
	for _, goodDocs := range []int{25, 2000} {
		docs2 := genjson.Collection(genjson.Twitter{Seed: 212}, goodDocs+15)
		good := jsontext.MarshalLines(docs2[:goodDocs])
		broken := append(append(append([]byte{}, good...), "{]\n"...), jsontext.MarshalLines(docs2[goodDocs:])...)
		if err := os.WriteFile(bad, broken, 0o644); err != nil {
			t.Fatal(err)
		}
		mapped := goodDocs == 2000 && mmapio.Supported()
		if (goodDocs == 2000) != (len(broken) >= 1<<20) {
			t.Fatalf("good=%d: bad.ndjson is %d bytes, on the wrong side of 1 MiB", goodDocs, len(broken))
		}
		want, err := InferSchema(append(append([]*Value{}, docs1...), docs2[:goodDocs]...), ParametricL)
		if err != nil {
			t.Fatal(err)
		}
		for _, next := range []string{"", filepath.Join(dir, "missing.ndjson"), truncated, unreadable} {
			for _, workers := range []int{1, 2, 3, 4} {
				files := []string{f1, bad}
				if next != "" {
					files = append(files, next)
				}
				label := fmt.Sprintf("good=%d workers=%d then %q", goodDocs, workers, filepath.Base(next))
				var stats PipelineStats
				inf, n, err := InferSchemaStreamFilesWith(files, ParametricL, StreamOptions{Workers: workers, Stats: &stats})
				if got := stats.Snapshot().MmapInputs == 1; got != mapped {
					t.Errorf("%s: bad.ndjson mapped = %v, want %v", label, got, mapped)
				}
				var se *jsontext.SyntaxError
				if !errors.As(err, &se) || !strings.HasPrefix(err.Error(), bad+": ") {
					t.Fatalf("%s: error = %v, want a syntax error naming bad.ndjson", label, err)
				}
				if wantOff := len(good) + 1; se.Offset != wantOff {
					t.Errorf("%s: error offset %d, want %d (the ']', relative to its file)", label, se.Offset, wantOff)
				}
				if n != 60+goodDocs {
					t.Errorf("%s: typed %d docs before the error, want %d", label, n, 60+goodDocs)
				}
				if inf == nil {
					t.Fatalf("%s: no Inference returned with the error", label)
				}
				if inf.Type.StringCounted() != want.Type.StringCounted() {
					t.Errorf("%s: prefix type differs from inference over the %d good documents\n want: %s\n got:  %s",
						label, 60+goodDocs, want.Type.StringCounted(), inf.Type.StringCounted())
				}
				if inf.Size() != want.Size() || inf.Precision != -1 {
					t.Errorf("%s: size %d precision %v, want %d and -1", label, inf.Size(), inf.Precision, want.Size())
				}
			}
		}
	}
}

// TestFilesFacadeRendersNothingUnasked pins that the files facade adds
// no pass over the schema its caller did not ask for: over the same
// reader path it allocates what infer.InferStream does, plus a few KB —
// no JSON Schema document, no per-file Inference. A rendering costs the
// size of the schema (megabytes on sparse, where L's schema is as large
// as the data).
func TestFilesFacadeRendersNothingUnasked(t *testing.T) {
	allocated := func(f func()) uint64 {
		f() // warm: the first run pays one-time setup on both sides
		best := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	for _, name := range []string{"sparse.ndjson", "tweets.ndjson"} {
		path := filepath.Join("..", "..", "testdata", name)
		engine := allocated(func() {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, _, err := infer.InferStream(f, infer.Options{Equiv: typelang.EquivLabel, Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
		facade := allocated(func() {
			if _, _, err := InferSchemaStreamFilesWith([]string{path}, ParametricL, StreamOptions{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
		if facade > engine+4<<10 {
			t.Errorf("%s: the facade allocates %d B over infer.InferStream's %d B; at most 4 KiB more", name, facade-engine, engine)
		}
	}
}

// TestJSONSchemaIsRenderedFromType pins the method every caller reads
// the document through: for each streamed engine it is Type's rendering,
// and Skinfer's is its own native document, not a rendering of its
// best-effort Type.
func TestJSONSchemaIsRenderedFromType(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ndjson"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	for _, path := range paths {
		for _, engine := range []Engine{ParametricK, ParametricL, Spark} {
			inf, _, err := InferSchemaStreamFilesWith([]string{path}, engine, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := inf.JSONSchema(), TypeToJSONSchema(inf.Type); !jsonvalue.Equal(got, want) {
				t.Errorf("%s %s: JSONSchema() = %s, want %s", path, engine, MarshalIndent(got, ""), MarshalIndent(want, ""))
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs, err := ParseCollection(data)
		if err != nil {
			t.Fatal(err)
		}
		inf, err := InferSchema(docs, Skinfer)
		if err != nil {
			t.Fatal(err)
		}
		if got := inf.JSONSchema(); got != inf.JSONSchema() || !jsonvalue.Equal(got, skinfer.Infer(docs)) {
			t.Errorf("%s skinfer: JSONSchema() = %s, want its native document %s", path, MarshalIndent(got, ""), MarshalIndent(skinfer.Infer(docs), ""))
		}
	}
}

// TestInferenceSimplifyCarriesDocument pins `jsinfer -simplify -output
// jsonschema`: the document (and Size) must be the simplified type's,
// not the one built before simplification. The type is the
// subsumed-record union of typelang's simplify tests, set by hand: no
// collection infers to a type Simplify changes (L groups records by
// exact label set, K fuses them all), so the CLI cannot show the
// difference from input alone.
func TestInferenceSimplifyCarriesDocument(t *testing.T) {
	narrow := typelang.NewRecord(typelang.Field{Name: "a", Type: typelang.Int})
	wide := typelang.NewRecord(
		typelang.Field{Name: "a", Type: typelang.Int},
		typelang.Field{Name: "b", Type: typelang.Str, Optional: true},
	)
	u := &typelang.Type{Kind: typelang.KUnion, Alts: []*typelang.Type{narrow, wide}}
	inf := &Inference{Engine: ParametricL, Type: u}
	inf.Simplify()
	want := typelang.Simplify(u)
	if !typelang.Equal(inf.Type, wide) || inf.Size() != want.Size() {
		t.Fatalf("Simplify left type %s (size %d), want the wide record alone (size %d)", inf.Type, inf.Size(), want.Size())
	}
	if !jsonvalue.Equal(inf.JSONSchema(), TypeToJSONSchema(want)) {
		t.Errorf("document after Simplify = %s, want %s", MarshalIndent(inf.JSONSchema(), ""), MarshalIndent(TypeToJSONSchema(want), ""))
	}
	if jsonvalue.Equal(inf.JSONSchema(), TypeToJSONSchema(u)) {
		t.Error("Simplify changed the type but not the document")
	}
}
