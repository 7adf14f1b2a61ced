package repro_test

import (
	"bytes"
	"encoding/json"
	"errors"
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
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Module", "./...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Module                  *struct{ Path string }
	}
	exports := map[string]string{}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
		if p.Module != nil && p.Module.Path == "repro" {
			pkgs = append(pkgs, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, errors.New("go list gave no export data for " + path)
		}
		return os.Open(exports[path])
	})
	allowed := map[string]bool{}
	var bad []string
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func).FullName()
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
						if !ok || !sealedFields[sel.Sel.Name] || !writesSharedType(sel, info, pkg) {
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
