package infer

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/mmapio"
	"repro/internal/typelang"
)

// writeFiles writes each part to a file of its own under dir, in order,
// and returns their names.
func writeFiles(t *testing.T, dir string, parts [][]byte) []string {
	t.Helper()
	names := make([]string, len(parts))
	for i, p := range parts {
		names[i] = filepath.Join(dir, fmt.Sprintf("part%04d.ndjson", i))
		if err := os.WriteFile(names[i], p, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// cutLines cuts NDJSON data into n runs of whole lines (fewer when data
// has fewer lines), then adds the two edges a layout of files has: an
// empty file second, and a first file with no trailing newline.
func cutLines(data []byte, n int) [][]byte {
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	per := (len(lines) + n - 1) / n
	var parts [][]byte
	for len(lines) > 0 {
		k := min(per, len(lines))
		parts = append(parts, bytes.Join(lines[:k], nil))
		lines = lines[k:]
	}
	parts[0] = bytes.TrimSuffix(parts[0], []byte("\n"))
	return append(parts[:1], append([][]byte{{}}, parts[1:]...)...)
}

// filesOracle is the oracle of a run over files holding parts: the
// oracle over their concatenation up to the first part the decoder
// rejects, with that part's own error — its offset within the part —
// prefixed with its name.
func filesOracle(names []string, parts [][]byte, e typelang.Equiv) (*typelang.Type, int, error) {
	var data []byte
	for i, p := range parts {
		data = append(data, p...)
		if _, _, err := oracle(p, e); err != nil {
			t, n, _ := oracle(data, e)
			return t, n, fmt.Errorf("%s: %w", names[i], err)
		}
	}
	return oracle(data, e)
}

// TestStreamFilesMatchOracle pins that many files are one collection:
// the large-files corpora cut into 1, 3 and 100 files (filesLayout) are
// the oracle's schema of their concatenation in every shape; and that a
// malformed record in one of many files (malformed-files) ends the run
// with that file's error, at its offset within the file, after exactly
// the documents before it.
func TestStreamFilesMatchOracle(t *testing.T) {
	targets := []Options{{}, {batch: 2}, {ChunkBytes: 64}}
	runEngineRows(t, engineRow{"large-files", filesLayout, windowWorkers, targets}, engineRow{"malformed-files", asListed, windowWorkers, targets})
}

// TestStreamFilesMapped runs files past mmapMinSize — mapped where the
// platform can — at one and four workers (under `make race` too): the
// schema and count are one reader's over their concatenation, every
// file is counted as mapped, a malformed record in a mapped
// file's last window wins over the missing file after it, and no
// mapping outlives the run.
func TestStreamFilesMapped(t *testing.T) {
	dir := t.TempDir()
	var parts [][]byte
	for i := range 3 {
		parts = append(parts, jsontext.MarshalLines(genjson.Collection(genjson.Twitter{Seed: int64(96 + i)}, 1600)))
		if len(parts[i]) < mmapMinSize {
			t.Fatalf("file %d is %d bytes, short of mmapMinSize", i, len(parts[i]))
		}
	}
	names := writeFiles(t, dir, parts)
	all := bytes.Join(parts, nil)
	mapped := int64(0)
	if mmapio.Supported() {
		mapped = 3
	}
	for _, w := range []int{1, 4} {
		want, wantN, err := InferStream(bytes.NewReader(all), Options{Equiv: typelang.EquivLabel, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		var st PipelineStats
		got, n, err := InferStreamFiles(names, Options{Equiv: typelang.EquivLabel, Workers: w, Stats: &st})
		if err != nil || n != wantN || got.StringCounted() != want.StringCounted() {
			t.Errorf("w%d: %d docs, err %v, schema\n %s\nwant %d docs and\n %s", w, n, err, got.StringCounted(), wantN, want.StringCounted())
		}
		if s := st.Snapshot(); s.MmapInputs != mapped || (mapped == 3 && s.BytesCopied != 0) {
			t.Errorf("w%d: mmap_inputs=%d bytes_copied=%d, want %d mapped inputs and nothing copied", w, s.MmapInputs, s.BytesCopied, mapped)
		}

		broken := append(append([]byte{}, parts[1]...), "{]\n"...)
		if err := os.WriteFile(names[1], broken, 0o644); err != nil {
			t.Fatal(err)
		}
		_, n, err = InferStreamFiles([]string{names[0], names[1], filepath.Join(dir, "missing.ndjson")}, Options{Workers: w})
		if err == nil || !strings.HasPrefix(err.Error(), names[1]+": ") || syntaxOffset(err) != len(parts[1])+1 || n != 3200 {
			t.Errorf("w%d: error %v (offset %d) after %d docs, want %s's at %d after 3200", w, err, syntaxOffset(err), n, names[1], len(parts[1])+1)
		}
		if err := os.WriteFile(names[1], parts[1], 0o644); err != nil {
			t.Fatal(err)
		}
		if maps, err := os.ReadFile("/proc/self/maps"); err == nil && bytes.Contains(maps, []byte(dir)) {
			t.Errorf("w%d: a mapping of a file under %s outlives its run", w, dir)
		}
	}
}

// TestStreamFilesAllocateLinearly pins that a file costs a run what its
// own bytes cost, not what the schema so far does: over 1000
// one-document files, each a label set of its own (so under L the
// schema grows a record per file), a file allocates at most twice what
// it does over the first 100. A per-file fold into the running schema
// allocates in proportion to files × schema, ten times more per file at
// 1000 than at 100.
func TestStreamFilesAllocateLinearly(t *testing.T) {
	dir := t.TempDir()
	names := make([]string, 1000)
	for i := range names {
		names[i] = filepath.Join(dir, fmt.Sprintf("doc%04d.json", i))
		if err := os.WriteFile(names[i], fmt.Appendf(nil, `{"k%d": %d}`+"\n", i, i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	allocated := func(names []string) uint64 {
		best := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, n, err := InferStreamFiles(names, Options{Equiv: typelang.EquivLabel, Workers: 1}); err != nil || n != len(names) {
				t.Fatalf("%d files: %d docs, err %v", len(names), n, err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	one := allocated(names[:1])
	perFileAt100 := (allocated(names[:100]) - one) / 99
	perFileAt1000 := (allocated(names) - one) / 999
	t.Logf("per file: %d B at 100 files, %d B at 1000", perFileAt100, perFileAt1000)
	if perFileAt1000 > 2*perFileAt100 {
		t.Errorf("a file allocates %d B in a 1000-file run, %d B in a 100-file one: the run is not linear in files", perFileAt1000, perFileAt100)
	}
}
