// Command jstranslate converts an NDJSON collection into the
// schema-driven formats of §5: the Avro-like row binary or the
// Parquet-like columnar blob. It infers the schema (parametric-L),
// writes the output file, and reports the size ratio against the raw
// JSON. With -verify it decodes the output back and checks equality.
//
// Usage:
//
//	jstranslate -format rows|columnar -out data.bin [-verify] [data.ndjson ...]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/jsonvalue"
)

func main() {
	format := flag.String("format", "columnar", "target format: rows or columnar")
	out := flag.String("out", "", "output file (required)")
	verify := flag.Bool("verify", false, "decode the output back and compare")
	flag.Parse()

	if *out == "" {
		fatal(fmt.Errorf("-out is required"))
	}
	docs, err := core.ReadCollection(flag.Args(), os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(docs) == 0 {
		fatal(fmt.Errorf("no input documents"))
	}
	tr, err := core.Translate(docs)
	if err != nil {
		fatal(err)
	}
	var payload []byte
	switch *format {
	case "rows":
		payload = tr.RowBinary
	case "columnar":
		payload = tr.Columnar
	default:
		fatal(fmt.Errorf("unknown format %q", *format))
	}
	if err := os.WriteFile(*out, payload, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("schema:   %s\n", tr.Schema)
	fmt.Printf("raw json: %d bytes\n", len(tr.RawJSON))
	fmt.Printf("%s: %d bytes (%.2fx)\n", *format, len(payload),
		float64(len(payload))/float64(len(tr.RawJSON)))

	if *verify {
		var back []*jsonvalue.Value
		if *format == "rows" {
			back, err = core.RestoreRows(tr)
		} else {
			back, err = core.RestoreColumnar(tr)
		}
		if err != nil {
			fatal(fmt.Errorf("verify: %w", err))
		}
		for i := range docs {
			if !jsonvalue.Equal(docs[i], back[i]) {
				fatal(fmt.Errorf("verify: doc %d does not round-trip", i))
			}
		}
		fmt.Printf("verify:   %d documents round-trip exactly\n", len(docs))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jstranslate:", err)
	os.Exit(1)
}
