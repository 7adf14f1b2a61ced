package main

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestValidateStreamFlags pins the fail-fast matrix: every combination
// that could only fail after (or silently survive) a full inference
// pass must be rejected before any input is read.
func TestValidateStreamFlags(t *testing.T) {
	cases := []struct {
		name                                      string
		stream, precision, mapSet, stats, mmapSet bool
		mmapMode                                  string
		chunkBytesSet                             bool
		output                                    string
		nArgs                                     int
		wantErr                                   bool
	}{
		{"plain materialised", false, false, false, false, false, "auto", false, "type", 1, false},
		{"plain streamed stdin", true, false, false, false, false, "auto", false, "type", 0, false},
		{"streamed report from files with precision", true, true, false, false, false, "auto", false, "report", 2, false},
		{"explicit map with stream", true, false, true, false, false, "auto", false, "type", 0, false},
		{"stats with stream", true, false, false, true, false, "auto", false, "type", 0, false},
		{"mmap auto with stream from stdin", true, false, false, false, true, "auto", false, "type", 0, false},
		{"mmap on with stream from files", true, false, false, false, true, "on", false, "type", 2, false},
		{"mmap off with stream from stdin", true, false, false, false, true, "off", false, "type", 0, false},
		{"chunk-bytes with stream", true, false, false, false, false, "auto", true, "type", 0, false},

		{"precision without stream", false, true, false, false, false, "auto", false, "report", 1, true},
		{"map without stream", false, false, true, false, false, "auto", false, "type", 1, true},
		{"stats without stream", false, false, false, true, false, "auto", false, "type", 1, true},
		{"mmap without stream", false, false, false, false, true, "auto", false, "type", 1, true},
		{"chunk-bytes without stream", false, false, false, false, false, "auto", true, "type", 1, true},
		{"precision on non-report output", true, true, false, false, false, "auto", false, "type", 1, true},
		{"precision from stdin", true, true, false, false, false, "auto", false, "report", 0, true},
		{"mmap on from stdin", true, false, false, false, true, "on", false, "type", 0, true},
	}
	for _, c := range cases {
		err := validateStreamFlags(c.stream, c.precision, c.mapSet, c.stats, c.mmapSet, c.mmapMode, c.chunkBytesSet, c.output, c.nArgs)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", c.name, err, c.wantErr)
		}
	}
}

// TestPrintStats pins the -stats table: one row per pipeline stage,
// every counter name=value on its stage's row, and times rendered in
// milliseconds. Scripts scrape this, so the shape is a contract.
func TestPrintStats(t *testing.T) {
	var b strings.Builder
	printStats(&b, core.StatsSnapshot{
		ChunksSplit: 3, BytesLexed: 4096, DocsAbsorbed: 128,
		IndexRecords: 120, FallbackRecords: 8, ParityRejects: 1,
		ScanDelegations: 5, RootFuses: 2, Seals: 9,
		BytesAliased: 2048, BytesCopied: 512, BuffersRecycled: 4,
		MmapInputs: 1, ReaderInputs: 2,
		ReadNanos: 1_500_000, SplitNanos: 250_000, MapNanos: 7_000_000,
		ReduceNanos: 900_000, FuseNanos: 100_000,
	})
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 7 { // banner + header + 5 stage rows
		t.Fatalf("stats table has %d lines, want 7:\n%s", len(lines), out)
	}
	for i, stage := range []string{"read", "split", "map", "reduce", "fuse"} {
		if !strings.HasPrefix(strings.TrimSpace(lines[i+2]), stage) {
			t.Errorf("row %d = %q, want stage %q", i+2, lines[i+2], stage)
		}
	}
	for _, want := range []string{
		"chunks_split=3", "reader_inputs=2", "mmap_inputs=1",
		"bytes_copied=512", "buffers_recycled=4", "bytes_aliased=2048",
		"docs_absorbed=128", "bytes_lexed=4096",
		"index_records=120", "fallback_records=8", "parity_rejects=1",
		"scan_delegations=5", "root_fuses=2", "seals=9",
		"1.500ms", "0.250ms", "7.000ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats table lacks %q:\n%s", want, out)
		}
	}
}
