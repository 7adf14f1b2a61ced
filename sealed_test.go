package repro_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// sealedFields are the typelang.Type fields a seal fills. Sealed types
// share nodes (every atom counted once is its kind's one package-level
// node), so a write into one through a pointer changes every schema in
// the process that holds it.
var sealedFields = map[string]bool{"Count": true, "Alts": true, "Elem": true, "Fields": true, "MinLen": true, "MaxLen": true}

// sealedWriteAllowlist names the functions (as types.Func.FullName
// spells them) that may write a sealed field through a pointer, each
// with the reason the node written is not shared yet.
var sealedWriteAllowlist = map[string]string{
	"repro/internal/typelang.fuseRecords": "the record NewRecord has just built, before anything holds it",
}

// TestSealedTypesAreNotWritten type-checks every package of the module
// (non-test files) and fails on an assignment, op-assignment or ++/--
// to one of sealedFields of a typelang.Type, unless it writes a local
// copy (`c := *t; c.Count = n`, as Simplify does) or its function is in
// sealedWriteAllowlist; and when an allowlist entry matches no write.
// Every name that reaches a Type counts — core.Inference.Type.Count as
// much as t.Count — so the check needs types, not just identifiers.
func TestSealedTypesAreNotWritten(t *testing.T) {
	fset, pkgs := checkModule(t)
	allowed := map[string]bool{}
	var bad []string
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func).FullName()
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					var lhs []ast.Expr
					switch n := n.(type) {
					case *ast.AssignStmt:
						lhs = n.Lhs
					case *ast.IncDecStmt:
						lhs = []ast.Expr{n.X}
					}
					for _, e := range lhs {
						sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
						if !ok || !sealedFields[sel.Sel.Name] || !writesSharedType(sel, p.info, p.pkg) {
							continue
						}
						if _, ok := sealedWriteAllowlist[fn]; ok {
							allowed[fn] = true
							continue
						}
						bad = append(bad, fset.Position(sel.Pos()).String()+": "+fn+" writes "+sel.Sel.Name+
							" of a typelang.Type it did not copy: sealed types are shared and immutable")
					}
					return true
				})
			}
		}
	}
	for fn := range sealedWriteAllowlist {
		if !allowed[fn] {
			bad = append(bad, "allowlist entry "+fn+" writes no sealed field: drop it")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// writesSharedType reports whether sel selects a field of a
// typelang.Type that may be shared: one reached through a pointer, or a
// Type value that is not a local variable (the copy of copy-then-write).
func writesSharedType(sel *ast.SelectorExpr, info *types.Info, pkg *types.Package) bool {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return false
	}
	recv := types.Unalias(s.Recv())
	ptr, isPtr := recv.(*types.Pointer)
	if isPtr {
		recv = types.Unalias(ptr.Elem()) // core.Type is an alias of typelang.Type
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "repro/internal/typelang" || named.Obj().Name() != "Type" {
		return false
	}
	if isPtr {
		return true
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return true
	}
	v, ok := info.Uses[id].(*types.Var)
	return !ok || v.Parent() == pkg.Scope()
}

// checkedPackage is one package of the module, type-checked from its
// non-test files.
type checkedPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// module caches what checkModule loads: it is the same for every test.
var module struct {
	once sync.Once
	fset *token.FileSet
	pkgs []checkedPackage
	imp  types.Importer
	// deps are every package path the module depends on, itself
	// included, and exports their export data files ("" for a main
	// package).
	deps    []string
	exports map[string]string
	err     error
}

// checkModule type-checks every package of the module — its non-test
// files; bench/ is a module of its own — against the export data `go
// list -export` builds for its dependencies, once per test binary.
func checkModule(t *testing.T) (*token.FileSet, []checkedPackage) {
	t.Helper()
	module.once.Do(func() { module.err = loadModule() })
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.fset, module.pkgs
}

func loadModule() error {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Module", "./...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list: %w", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Module                  *struct{ Path string }
	}
	exports := map[string]string{}
	module.exports = exports
	var own []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return err
		}
		exports[p.ImportPath] = p.Export
		module.deps = append(module.deps, p.ImportPath)
		if p.Module != nil && p.Module.Path == "repro" {
			own = append(own, p)
		}
	}

	module.fset = token.NewFileSet()
	module.imp = importer.ForCompiler(module.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, errors.New("go list gave no export data for " + path)
		}
		return os.Open(exports[path])
	})
	for _, p := range own {
		c := checkedPackage{info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(module.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			c.files = append(c.files, f)
		}
		if c.pkg, err = (&types.Config{Importer: module.imp}).Check(p.ImportPath, module.fset, c.files, c.info); err != nil {
			return fmt.Errorf("type-checking %s: %w", p.ImportPath, err)
		}
		module.pkgs = append(module.pkgs, c)
	}
	return nil
}
