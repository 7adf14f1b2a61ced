package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported functions and methods that may
// have no caller in the module's non-test Go code (bench/, a module of
// its own, does not count), each with the reason it stays. The audit is
// by name, as the Go parser sees identifiers: a function is called where
// its name appears, a method only where a selector names it (x.Name), so
// a dead method hides behind a live method of the same name but not
// behind a type, field or variable.
var surfaceAllowlist = map[string]string{
	// Bench-only: bench/jsperf measures layers through them; they go
	// when the collector and chunker layers are retired from jsperf.
	"NewShardedCollector": "bench-only: jsperf's collector layer",
	"AddBatch":            "bench-only: jsperf's collector layer",
	"NewChunker":          "bench-only: jsperf's chunker layer",
	"Splits":              "bench-only: jsperf's chunker layer",
	"NewTokenSource":      "bench-only: jsperf's mison lexing layer",
	"ResetBytes":          "bench-only: jsperf's jsontext lexing layer",
	"Ingest":              "bench-only: jsperf's registry layer and BenchmarkE3StreamingInference",

	// Oracles: reference implementations the production paths are
	// tested against.
	"BuildBitmaps": "oracle: mison's one-shot bitmap build, the reference for the amortised builder",
	"BuildIndex":   "oracle: mison's one-shot index build, the reference for the amortised builder",
	"InString":     "oracle: the string mask read bit by bit, the reference for the index walk's skips",
	"Witness":      "oracle: generates values of a type for the membership cross-tests",

	// The API of a surveyed system or formalism, exercised by an
	// experiment's package tests.
	"NewEncoder":         "E7: Fad.js's encoder half",
	"Encode":             "E7: Fad.js's encoder half",
	"Forbidden":          "E9: Joi's builder API",
	"Alternatives":       "E9: Joi's builder API",
	"Max":                "E9: Joi's builder API",
	"Unique":             "E9: Joi's builder API",
	"And":                "E9: Joi's builder API",
	"Or":                 "E9: Joi's builder API",
	"Nand":               "E9: Joi's builder API",
	"ValidateCollection": "E9: JSound's collection validation",
	"Default":            "E9: JSound's field defaults",
	"DocCount":           "E4: mongodb-schema's analyzer",
	"EncodedSize":        "E10: the translated encodings' size",
	"ScanStrings":        "E10: the columnar encoding's string scan",
	"Classify":           "E13: the profiler's per-field classification",
	"FromTokens":         "JSON Pointer (RFC 6901): jsonschema's $ref paths",
	"Tokens":             "JSON Pointer (RFC 6901): jsonschema's $ref paths",
	"IsRoot":             "JSON Pointer (RFC 6901): jsonschema's $ref paths",
	"Child":              "JSON Pointer (RFC 6901): jsonschema's $ref paths",
	"Resolve":            "JSON Pointer (RFC 6901): jsonschema's $ref paths",

	// Interface methods, called through the interface.
	"Unwrap": "interface: http.ResponseController unwraps jsinferd's status recorder",
}

// TestExportedSurface fails when an exported function has a name that
// appears in no non-test Go file outside bench/ except at its own
// declaration, or an exported method has a name no selector there
// names, unless the allowlist gives a reason for it; and when an
// allowlist entry no longer names such a function or method.
func TestExportedSurface(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		name   string
		pos    token.Pos
		method bool
	}
	var decls []decl
	uses, selected := map[string]int{}, map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, dcl := range f.Decls {
			if fd, ok := dcl.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				decls = append(decls, decl{fd.Name.Name, fd.Name.Pos(), fd.Recv != nil})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				uses[n.Name]++
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	uncalled := map[string]bool{}
	var bad []string
	for _, d := range decls {
		// Every declaration is one use of its own name.
		if d.method && selected[d.name] || !d.method && uses[d.name] > 1 {
			continue
		}
		uncalled[d.name] = true
		if _, ok := surfaceAllowlist[d.name]; !ok {
			bad = append(bad, fset.Position(d.pos).String()+": "+d.name+" has no caller outside tests and bench/")
		}
	}
	for name := range surfaceAllowlist {
		if !uncalled[name] {
			bad = append(bad, "allowlist entry "+name+" names no uncalled exported function: drop it")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}
