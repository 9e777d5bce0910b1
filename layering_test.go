package coda_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// persistSPI is the whole surface of internal/persist its consumers may
// name: Open plus the KV/Cursor contract. Anything else — a concrete
// backend, an internal helper — is a leak.
var persistSPI = map[string]bool{
	"Open": true, "KV": true, "Item": true, "Cursor": true, "Stats": true,
	"ErrClosed": true,
}

// coreStoreCapabilities are the only interfaces internal/core may assert a
// value to: what search.go probes SearchOptions.Store for beyond the
// ResultStore contract.
var coreStoreCapabilities = map[string]bool{"Flusher": true, "Waiter": true}

// coreContracts are the component contracts; only the last two may embed
// another of them.
var coreContracts = map[string]bool{"Component": true, "Transformer": true, "Estimator": true}

// checkCoreComponentSeam holds internal/core to one way through a
// pipeline: a component is reached through Component/Transformer/Estimator
// and nothing else, so no further interface may extend those contracts (a
// capability a decorator would hide), and a type assertion or type-switch
// case may name only a concrete pointer type or a store capability.
func checkCoreComponentSeam(t *testing.T, fset *token.FileSet, file *ast.File) {
	assertable := func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.StarExpr:
			return true
		case *ast.Ident:
			return x.Name == "nil" || coreStoreCapabilities[x.Name]
		}
		return false
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.TypeSpec:
			it, ok := x.Type.(*ast.InterfaceType)
			if !ok || x.Name.Name == "Transformer" || x.Name.Name == "Estimator" {
				return true
			}
			for _, m := range it.Methods.List {
				if id, ok := m.Type.(*ast.Ident); ok && len(m.Names) == 0 && coreContracts[id.Name] {
					t.Errorf("%s: interface %s embeds %s: a component capability interface", fset.Position(m.Pos()), x.Name.Name, id.Name)
				}
			}
		case *ast.TypeAssertExpr:
			if x.Type != nil && !assertable(x.Type) { // nil Type is the x.(type) of a switch
				t.Errorf("%s: type assertion to an interface other than a store capability", fset.Position(x.Pos()))
			}
		case *ast.TypeSwitchStmt:
			for _, c := range x.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					if !assertable(e) {
						t.Errorf("%s: type-switch case on an interface other than a store capability", fset.Position(e.Pos()))
					}
				}
			}
		}
		return true
	})
}

// TestLayeringSeams holds four seams in the shipped code (non-test files
// under cmd, internal and examples): outside internal/store nothing names
// the concrete store.HomeStore — consumers program against ObjectStore,
// and constructor calls such as store.NewHomeStore do not count — outside
// internal/persist nothing names a persist identifier beyond the SPI,
// internal/core touches components only through their three contracts
// (checkCoreComponentSeam), and no binary or example imports a coda
// package blank: a binary links only what it calls, so its /metrics shows
// only series it can move.
func TestLayeringSeams(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "internal", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			if dir == "internal/core" {
				checkCoreComponentSeam(t, fset, file)
			}
			// Local names under which this file imports the two packages.
			var storeName, persistName string
			for _, imp := range file.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				name := p[strings.LastIndex(p, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				if name == "_" && strings.HasPrefix(p, "coda/internal/") && root != "internal" {
					t.Errorf("%s: blank import of %s", fset.Position(imp.Pos()), p)
				}
				switch {
				case p == "coda/internal/store" && dir != "internal/store":
					storeName = name
				case p == "coda/internal/persist" && dir != "internal/persist":
					persistName = name
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok || pkg.Obj != nil { // a resolved ident is a local, not the import
					return true
				}
				switch {
				case pkg.Name == storeName && sel.Sel.Name == "HomeStore":
					t.Errorf("%s: concrete store.HomeStore named outside internal/store", fset.Position(sel.Pos()))
				case pkg.Name == persistName && !persistSPI[sel.Sel.Name]:
					t.Errorf("%s: non-SPI identifier persist.%s used outside internal/persist", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
