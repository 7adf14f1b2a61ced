package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/mmapio"
	"repro/internal/typelang"
)

// TestStreamFilesMmapEquivalence pins the mmap routing seen through the
// facade: a file past infer's 1 MiB threshold is mapped and a shorter
// one read, the stats attribute each input to the path that served it,
// and the schema and document count are those of the reader path over
// the same bytes.
func TestStreamFilesMmapEquivalence(t *testing.T) {
	big := jsontext.MarshalLines(genjson.Collection(genjson.Twitter{Seed: 301}, 2000))
	small := jsontext.MarshalLines(genjson.Collection(genjson.Orders{Seed: 302}, 150))
	if len(big) < 1<<20 || len(small) >= 1<<20 {
		t.Fatalf("corpora are %d and %d bytes; the pin needs one on each side of 1 MiB", len(big), len(small))
	}
	dir := t.TempDir()
	f1 := filepath.Join(dir, "big.ndjson")
	f2 := filepath.Join(dir, "small.ndjson")
	if err := os.WriteFile(f1, big, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f2, small, 0o644); err != nil {
		t.Fatal(err)
	}

	var readStats PipelineStats
	read, readN, err := InferSchemaStreamWith(bytes.NewReader(append(append([]byte{}, big...), small...)),
		ParametricL, StreamOptions{Workers: 3, Stats: &readStats})
	if err != nil {
		t.Fatal(err)
	}
	if readN != 2150 {
		t.Fatalf("reader path typed %d docs, want 2150", readN)
	}
	if s := readStats.Snapshot(); s.MmapInputs != 0 {
		t.Errorf("reader path counted mmap_inputs=%d, want 0", s.MmapInputs)
	}

	var stats PipelineStats
	got, n, err := InferSchemaStreamFilesWith([]string{f1, f2}, ParametricL, StreamOptions{Workers: 3, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if n != readN {
		t.Errorf("files facade typed %d docs, reader path %d", n, readN)
	}
	if !typelang.Equal(got.Type, read.Type) || got.Type.StringCounted() != read.Type.StringCounted() {
		t.Errorf("files facade diverges from reader path\n files:  %s\n reader: %s",
			got.Type.StringCounted(), read.Type.StringCounted())
	}
	wantMapped := int64(1)
	if !mmapio.Supported() {
		wantMapped = 0
	}
	// Only the big file is mapped; the short one is read.
	if s := stats.Snapshot(); s.MmapInputs != wantMapped {
		t.Errorf("files facade counted mmap_inputs=%d, want %d", s.MmapInputs, wantMapped)
	}
}
