package repro_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names, by declaration (see declName), the functions
// and methods the reachability walk takes as roots beside the commands,
// each with the reason no command reaches it.
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

	// Oracles that another package's tests compare against.
	"typelang.(*Type).Witness":   "oracle: generates values of a type for core's membership cross-tests",
	"typelang.(*Type).Inhabited": "oracle: which types Witness can generate a value of",

	// Called through an interface no package-level declaration names.
	"cmd/jsinferd.(*statusRecorder).Unwrap": "interface: http.ResponseController unwraps jsinferd's status recorder",
}

// TestExportedSurface fails when a function or method of the module's
// non-test Go code (bench/, a module of its own, does not count),
// exported or not, is reachable from no command — see unreachable for
// the roots and the walk — unless the allowlist makes it a root; and
// when an allowlist entry is not needed, because it names no declaration
// or the commands reach it anyway.
func TestExportedSurface(t *testing.T) {
	fset, pkgs := checkModule(t)
	byMethod := interfacesByMethod(moduleScopes(t, pkgs))
	var bad []string
	for _, d := range unreachable(pkgs, byMethod, surfaceAllowlist) {
		bad = append(bad, fset.Position(d.pos).String()+": "+d.name+" is reachable from no command")
	}
	deadAlone := map[string]bool{}
	for _, d := range unreachable(pkgs, byMethod, nil) {
		deadAlone[d.name] = true
	}
	for name := range surfaceAllowlist {
		if !deadAlone[name] {
			bad = append(bad, "allowlist entry "+name+" names no function the commands leave unreached: drop it")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// deadFunc is a function or method that no root reaches.
type deadFunc struct {
	name string // declName
	pos  token.Pos
}

// unreachable walks resolved uses from the roots and returns, sorted by
// name, every function and method declared in pkgs that the walk does
// not reach. The roots are every main function of a main package, every
// init function, every package-level var declaration (its initialisers),
// every method whose receiver implements an interface in byMethod that
// declares it (a call through the interface names no declaration), and
// the functions extra names. A use is an identifier that resolves to a
// function or method — a call, a method value or a function value — and
// the walk follows it into that declaration's body.
func unreachable(pkgs []checkedPackage, byMethod map[string][]*types.Interface, extra map[string]string) []deadFunc {
	type body struct {
		node ast.Node
		info *types.Info
	}
	decls := map[string][]body{}
	var dead []deadFunc
	var roots []string
	var work []body
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					if d.(*ast.GenDecl).Tok == token.VAR {
						work = append(work, body{d, p.info})
					}
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				name := declName(fn)
				if len(decls[name]) == 0 {
					dead = append(dead, deadFunc{name, fd.Name.Pos()})
				}
				decls[name] = append(decls[name], body{fd, p.info})
				entry := fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && p.pkg.Name() == "main")
				if _, ok := extra[name]; ok || entry || implementsDeclaring(fn, byMethod) {
					roots = append(roots, name)
				}
			}
		}
	}
	reached := map[string]bool{}
	reach := func(name string) {
		if !reached[name] {
			reached[name] = true
			work = append(work, decls[name]...)
		}
	}
	for _, name := range roots {
		reach(name)
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(b.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := b.info.Uses[id].(*types.Func); ok {
					reach(declName(fn))
				}
			}
			return true
		})
	}
	dead = slices.DeleteFunc(dead, func(d deadFunc) bool { return reached[d.name] })
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	return dead
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

// moduleScopes returns the universe, the package scope of every package
// of the module and that of every package it depends on. A module
// package appears twice: from its source check, whose types are the ones
// its own methods' signatures name, and from its export data, whose
// types are the ones every other package's signatures name.
func moduleScopes(t *testing.T, pkgs []checkedPackage) []*types.Scope {
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
	return scopes
}

// interfacesByMethod indexes, by method name, every non-generic
// interface type declared in scopes.
func interfacesByMethod(scopes []*types.Scope) map[string][]*types.Interface {
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

// TestUnreachableWalk pins the walk on two small packages checked from
// source. It must report a function called only from an unreachable
// function and an unexported function nothing calls — both of which a
// rule asking only whether an exported declaration has a caller lets
// through — and keep a method reached only through an interface, a
// function used only by a package-level var's initialiser, and what an
// init function calls. A name given as an extra root is kept with what
// it calls.
func TestUnreachableWalk(t *testing.T) {
	pkgs := checkSources(t, []string{`package lib

type Shape interface{ Area() int }

type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

var Table = map[string]func() int{"one": fromVar}

func fromVar() int { return 1 }

func init() { fromInit() }

func fromInit() {}

func Used() int { return 2 }

func dead() int { return OnlyFromDead() }

func OnlyFromDead() int { return 3 }

func helper() {}
`, `package main

import "repro/internal/lib"

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	_ = s.Area() + lib.Used() + lib.Table["one"]()
}
`})
	scopes := []*types.Scope{types.Universe}
	for _, p := range pkgs {
		scopes = append(scopes, p.pkg.Scope())
	}
	byMethod := interfacesByMethod(scopes)
	names := func(extra map[string]string) []string {
		var out []string
		for _, d := range unreachable(pkgs, byMethod, extra) {
			out = append(out, d.name)
		}
		return out
	}
	if got, want := names(nil), []string{"lib.OnlyFromDead", "lib.dead", "lib.helper"}; !slices.Equal(got, want) {
		t.Errorf("unreachable = %v, want %v", got, want)
	}
	if got, want := names(map[string]string{"lib.dead": "a root"}), []string{"lib.helper"}; !slices.Equal(got, want) {
		t.Errorf("unreachable with lib.dead a root = %v, want %v", got, want)
	}
}

// checkSources type-checks one package per source, in order, as
// repro/internal/<package name>; a later source may import an earlier.
func checkSources(t *testing.T, sources []string) []checkedPackage {
	t.Helper()
	fset := token.NewFileSet()
	byPath := sourceImporter{}
	var pkgs []checkedPackage
	for _, src := range sources {
		f, err := parser.ParseFile(fset, "", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		c := checkedPackage{files: []*ast.File{f}, info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		}}
		path := "repro/internal/" + f.Name.Name
		if c.pkg, err = (&types.Config{Importer: byPath}).Check(path, fset, c.files, c.info); err != nil {
			t.Fatal(err)
		}
		byPath[path] = c.pkg
		pkgs = append(pkgs, c)
	}
	return pkgs
}

// sourceImporter imports the packages checkSources has checked.
type sourceImporter map[string]*types.Package

func (m sourceImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, errors.New("no source package " + path)
}
