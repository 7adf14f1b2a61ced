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
		name                     string
		stream, precision, stats bool
		chunkBytesSet            bool
		output                   string
		nArgs                    int
		wantErr                  bool
	}{
		{"plain materialised", false, false, false, false, "type", 1, false},
		{"plain streamed stdin", true, false, false, false, "type", 0, false},
		{"streamed report from files with precision", true, true, false, false, "report", 2, false},
		{"stats with stream", true, false, true, false, "type", 0, false},
		{"chunk-bytes with stream", true, false, false, true, "type", 0, false},

		{"precision without stream", false, true, false, false, "report", 1, true},
		{"stats without stream", false, false, true, false, "type", 1, true},
		{"chunk-bytes without stream", false, false, false, true, "type", 1, true},
		{"precision on non-report output", true, true, false, false, "type", 1, true},
		{"precision from stdin", true, true, false, false, "report", 0, true},
	}
	for _, c := range cases {
		err := validateStreamFlags(c.stream, c.precision, c.stats, c.chunkBytesSet, c.output, c.nArgs)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", c.name, err, c.wantErr)
		}
	}
}

// TestPrintStats pins the -stats table: one row per pipeline stage,
// every counter name=value on its stage's row (in the order of
// infer.StatsFields), and times rendered in milliseconds. Scripts
// scrape this, so the shape is a contract.
func TestPrintStats(t *testing.T) {
	var b strings.Builder
	printStats(&b, core.StatsSnapshot{
		ChunksSplit: 3, BytesLexed: 4096, DocsAbsorbed: 128,
		IndexRecords: 120, FallbackRecords: 8, ParityRejects: 1,
		ScanDelegations: 5, ChunksDirect: 3, RootFuses: 2, Seals: 9,
		BytesAliased: 2048, BytesCopied: 512, BuffersRecycled: 4,
		MmapInputs: 1, ReaderInputs: 2,
		ReadNanos: 1_500_000, SplitNanos: 250_000, MapNanos: 7_000_000,
		ReduceNanos: 900_000, FuseNanos: 100_000,
	})
	want := `pipeline stats:
  stage           time  counters
  read         1.500ms  chunks_split=3 bytes_copied=512 buffers_recycled=4 mmap_inputs=1 reader_inputs=2
  split        0.250ms  bytes_aliased=2048
  map          7.000ms  bytes_lexed=4096 docs_absorbed=128 index_records=120 fallback_records=8 parity_rejects=1 scan_delegations=5 chunks_direct=3
  reduce       0.900ms
  fuse         0.100ms  root_fuses=2 seals=9
`
	if got := b.String(); got != want {
		t.Errorf("stats table:\n%s\nwant:\n%s", got, want)
	}
}
