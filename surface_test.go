package repro_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names, by declaration (see declName), the exported
// functions and methods that may have no caller in the module's non-test
// Go code (bench/, a module of its own, does not count), each with the
// reason it stays.
var surfaceAllowlist = map[string]string{
	// Bench-only: bench/jsperf measures layers through them; they go
	// when the collector and chunker layers are retired from jsperf.
	"infer.NewShardedCollector":                "bench-only: jsperf's collector layer",
	"infer.(*ShardedCollector).AddBatch":       "bench-only: jsperf's collector layer",
	"infer.(*ShardedCollector).Close":          "bench-only: jsperf's collector layer",
	"mison.NewChunker":                         "bench-only: jsperf's chunker layer",
	"mison.(*Chunker).Splits":                  "bench-only: jsperf's chunker layer",
	"mison.(*Chunker).Reset":                   "bench-only: jsperf's chunker layer",
	"mison.NewTokenSource":                     "bench-only: jsperf's mison lexing layer",
	"mison.(*TokenSource).Reset":               "bench-only: jsperf's mison lexing layer",
	"jsontext.(*TokenReader).ResetBytes":       "bench-only: jsperf's jsontext lexing layer",
	"jsontext.(*TokenReader).SetInternStrings": "bench-only: jsperf's jsontext lexing layer",
	"registry.(*Registry).Ingest":              "bench-only: jsperf's registry layer and BenchmarkE3StreamingInference",
	"registry.(*Registry).Close":               "bench-only: jsperf's registry layer",

	// Oracles: reference implementations the production paths are
	// tested against.
	"mison.BuildBitmaps":         "oracle: mison's one-shot bitmap build, the reference for the amortised builder",
	"mison.BuildIndex":           "oracle: mison's one-shot index build, the reference for the amortised builder",
	"mison.(*Bitmaps).InString":  "oracle: the string mask read bit by bit, the reference for the index walk's skips",
	"typelang.(*Type).Witness":   "oracle: generates values of a type for the membership cross-tests",
	"typelang.(*Type).Inhabited": "oracle: which types Witness can generate a value of",

	// The API of a surveyed system or formalism, exercised by an
	// experiment's package tests.
	"mongoschema.(*Analyzer).DocCount":    "E4: mongodb-schema's analyzer",
	"mongoschema.(*Analyzer).Describe":    "E4: mongodb-schema's analyzer summary",
	"mison.(*Index).Reset":                "E6: the projecting index reused across records",
	"mison.(*Parser).ParseLines":          "E6: the projecting parser over NDJSON",
	"fadjs.NewEncoder":                    "E7: Fad.js's encoder half",
	"fadjs.(*Encoder).Encode":             "E7: Fad.js's encoder half",
	"skeleton.(*Skeleton).Paths":          "E8: the skeleton's retained paths",
	"joi.Null":                            "E9: Joi's builder API",
	"joi.Forbidden":                       "E9: Joi's builder API",
	"joi.Alternatives":                    "E9: Joi's builder API",
	"joi.(*Schema).Max":                   "E9: Joi's builder API",
	"joi.(*Schema).Unique":                "E9: Joi's builder API",
	"joi.(*Schema).And":                   "E9: Joi's builder API",
	"joi.(*Schema).Or":                    "E9: Joi's builder API",
	"joi.(*Schema).Nand":                  "E9: Joi's builder API",
	"joi.(*Schema).Describe":              "E9: Joi's describe() introspection",
	"joi.(*Schema).ToType":                "E9: a Joi schema in the type algebra",
	"jsound.(*Schema).ValidateCollection": "E9: JSound's collection validation",
	"jsound.(*Schema).Default":            "E9: JSound's field defaults",
	"jsound.(*Schema).ApplyDefaults":      "E9: JSound's field defaults",
	"translate.(*ColumnSet).EncodedSize":  "E10: the translated encodings' size",
	"translate.(*ColumnSet).ScanStrings":  "E10: the columnar encoding's string scan",
	"profile.(*Tree).Classify":            "E13: the profiler's per-field classification",
	"profile.(*Tree).Describe":            "E13: the profiler's tree, rendered",
	"discovery.(*Report).Describe":        "E16: the discovery report, rendered",
	"jsonpointer.FromTokens":              "JSON Pointer (RFC 6901): jsonschema's $ref paths",
	"jsonpointer.Pointer.Tokens":          "JSON Pointer (RFC 6901): jsonschema's $ref paths",
	"jsonpointer.Pointer.IsRoot":          "JSON Pointer (RFC 6901): jsonschema's $ref paths",
	"jsonpointer.Pointer.Child":           "JSON Pointer (RFC 6901): jsonschema's $ref paths",
	"jsonpointer.Resolve":                 "JSON Pointer (RFC 6901): jsonschema's $ref paths",

	// Interface methods, called through an interface no declaration in
	// reach names.
	"cmd/jsinferd.(*statusRecorder).Unwrap": "interface: http.ResponseController unwraps jsinferd's status recorder",
}

// TestExportedSurface fails when an exported function or method of the
// module has no caller in its non-test Go code outside bench/, unless
// the allowlist gives a reason for it; and when an allowlist entry no
// longer names such a declaration. It decides by declaration, on the
// type-checked module (checkModule): a function or method is called
// where a use resolves to it — a call, a method value, a function value —
// anywhere but in its own body, and a method also when its receiver
// type, T or *T, implements an interface that declares it (fmt.Stringer,
// io.Writer, core.Validator, ...), since a call through the interface
// names no declaration.
func TestExportedSurface(t *testing.T) {
	fset, pkgs := checkModule(t)
	byMethod := interfacesByMethod(t, pkgs)
	called := map[string]bool{}
	type decl struct {
		fn  *types.Func
		pos token.Pos
	}
	var decls []decl
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				var self string
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn := p.info.Defs[fd.Name].(*types.Func)
					self = declName(fn)
					if fd.Name.IsExported() {
						decls = append(decls, decl{fn, fd.Name.Pos()})
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.info.Uses[id].(*types.Func); ok && declName(fn) != self {
							called[declName(fn)] = true
						}
					}
					return true
				})
			}
		}
	}
	uncalled := map[string]bool{}
	var bad []string
	for _, d := range decls {
		name := declName(d.fn)
		if called[name] || implementsDeclaring(d.fn, byMethod) {
			continue
		}
		uncalled[name] = true
		if _, ok := surfaceAllowlist[name]; !ok {
			bad = append(bad, fset.Position(d.pos).String()+": "+name+" has no caller outside tests and bench/")
		}
	}
	for name := range surfaceAllowlist {
		if !uncalled[name] {
			bad = append(bad, "allowlist entry "+name+" names no uncalled exported function or method: drop it")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// declName names a function or method by its declaration, as the
// allowlist spells it: the package path after repro/ and internal/,
// then Name, T.Name or (*T).Name. A method of a generic type is named by
// its generic declaration.
func declName(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return fn.Name() // a method of the universe's error
	}
	pkg := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), "repro/"), "internal/")
	recv := fn.Signature().Recv()
	if recv == nil {
		return pkg + "." + fn.Name()
	}
	switch typ := recv.Type().(type) {
	case *types.Pointer:
		return pkg + ".(*" + typ.Elem().(*types.Named).Obj().Name() + ")." + fn.Name()
	case *types.Named:
		return pkg + "." + typ.Obj().Name() + "." + fn.Name()
	default:
		return pkg + ".(" + typ.String() + ")." + fn.Name() // an interface's own method
	}
}

// interfacesByMethod indexes, by method name, every interface type
// declared at package level in the module or in any package it depends
// on, plus error. A module package's interfaces are indexed twice: from
// its source check, whose types are the ones its own methods' signatures
// name, and from its export data, whose types are the ones every other
// package's signatures name.
func interfacesByMethod(t *testing.T, pkgs []checkedPackage) map[string][]*types.Interface {
	t.Helper()
	scopes := []*types.Scope{types.Universe}
	for _, p := range pkgs {
		scopes = append(scopes, p.pkg.Scope())
	}
	for _, path := range module.deps {
		if path == "unsafe" || module.exports[path] == "" {
			continue
		}
		dep, err := module.imp.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		scopes = append(scopes, dep.Scope())
	}
	byMethod := map[string][]*types.Interface{}
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok || !iface.IsMethodSet() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() != nil {
				continue
			}
			for i := range iface.NumMethods() {
				byMethod[iface.Method(i).Name()] = append(byMethod[iface.Method(i).Name()], iface)
			}
		}
	}
	return byMethod
}

// implementsDeclaring reports whether fn is a method whose receiver
// type, T or *T, implements an interface that declares fn's name.
func implementsDeclaring(fn *types.Func, byMethod map[string][]*types.Interface) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	for _, iface := range byMethod[fn.Name()] {
		if types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface) {
			return true
		}
	}
	return false
}
