// Command jsvalidate validates an NDJSON collection against a schema
// expressed in any of the three §2 formalisms: JSON Schema, JSound, or
// an inferred-type JSON Schema. It prints per-document verdicts (or a
// summary) and exits non-zero if any document is invalid.
//
// Usage:
//
//	jsvalidate -schema schema.json [-lang jsonschema|jsound] [-quiet] [data.ndjson ...]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/jsontext"
)

func main() {
	schemaPath := flag.String("schema", "", "path to the schema document (required)")
	lang := flag.String("lang", "jsonschema", "schema language: jsonschema or jsound")
	quiet := flag.Bool("quiet", false, "print only the summary")
	flag.Parse()

	if *schemaPath == "" {
		fatal(fmt.Errorf("-schema is required"))
	}
	schemaBytes, err := os.ReadFile(*schemaPath)
	if err != nil {
		fatal(err)
	}
	schemaDoc, err := jsontext.Parse(schemaBytes)
	if err != nil {
		fatal(fmt.Errorf("parsing schema: %w", err))
	}
	var validator core.Validator
	switch *lang {
	case "jsonschema":
		validator, err = core.CompileJSONSchema(schemaDoc)
	case "jsound":
		validator, err = core.CompileJSound(schemaDoc)
	default:
		err = fmt.Errorf("unknown language %q", *lang)
	}
	if err != nil {
		fatal(err)
	}

	docs, err := core.ReadCollection(flag.Args(), os.Stdin)
	if err != nil {
		fatal(err)
	}
	invalid := 0
	for i, doc := range docs {
		if validator.Accepts(doc) {
			continue
		}
		invalid++
		if !*quiet {
			fmt.Printf("doc %d: INVALID\n", i)
			for _, reason := range validator.Explain(doc) {
				fmt.Printf("  %s\n", reason)
			}
		}
	}
	fmt.Printf("%s: %d/%d valid\n", validator.Name(), len(docs)-invalid, len(docs))
	if invalid > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jsvalidate:", err)
	os.Exit(1)
}
