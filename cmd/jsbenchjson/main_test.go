package main

import (
	"strings"
	"testing"
)

// TestParseEventsMixedStream feeds a realistic test2json event stream —
// benchmark rows interleaved with GOMAXPROCS noise, custom metrics,
// non-output events and a raw (non-JSON) line — and checks the rows
// survive with the right numbers.
func TestParseEventsMixedStream(t *testing.T) {
	stream := strings.Join([]string{
		`{"Action":"start","Package":"repro"}`,
		`{"Action":"output","Output":"goos: linux\n"}`,
		// The testing package flushes the name before the numbers, so a
		// result line usually spans two output events.
		`{"Action":"output","Output":"BenchmarkE3StreamingInference/mison-parallel-4-8         \t"}`,
		`{"Action":"output","Output":"      33\t  36398818 ns/op\t  96.69 MB/s\t22345678 B/op\t  161616 allocs/op\n"}`,
		`{"Action":"output","Output":"BenchmarkE3StreamingInference/dom-sequential-8 \t      14\t  83652642 ns/op\t  42.09 MB/s\t32090912 B/op\t  306844 allocs/op\n"}`,
		`{"Action":"output","Output":"BenchmarkE1ParametricInference/K-8 \t     100\t   1234567 ns/op\t        77.0 schema-nodes\t         0.99 precision\n"}`,
		`{"Action":"output","Output":"PASS\n"}`,
		`{"Action":"pass","Package":"repro"}`,
		"BenchmarkRaw-8   7   999 ns/op   1 B/op   0 allocs/op",
		`not json at all`,
	}, "\n")
	rows, err := parseEvents(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("parsed %d rows, want 4: %+v", len(rows), rows)
	}
	r := rows[0]
	if r.Name != "BenchmarkE3StreamingInference/mison-parallel-4-8" ||
		r.Iterations != 33 || r.NsPerOp != 36398818 ||
		r.MBPerS != 96.69 || r.BytesPerOp != 22345678 || r.AllocsPerOp != 161616 {
		t.Errorf("row 0 wrong: %+v", r)
	}
	if rows[2].Name != "BenchmarkE1ParametricInference/K-8" || rows[2].MBPerS != 0 {
		t.Errorf("custom-metric row wrong: %+v", rows[2])
	}
	if rows[3].Name != "BenchmarkRaw-8" || rows[3].NsPerOp != 999 {
		t.Errorf("raw-line row wrong: %+v", rows[3])
	}
}

// TestParseBenchLineRejectsNonRows keeps the filter tight: lines that
// merely start with "Benchmark" but are not result rows are dropped.
func TestParseBenchLineRejectsNonRows(t *testing.T) {
	for _, line := range []string{
		"BenchmarkE3StreamingInference",       // bench start line, no row yet
		"Benchmarking is fun",                 // prose
		"BenchmarkX-8   notanumber   1 ns/op", // corrupt
		"",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("parseBenchLine accepted %q", line)
		}
	}
}
