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
	"ErrClosed": true, "Register": true, "Schemes": true,
}

// TestLayeringSeams holds the two data-tier seams in the shipped code
// (non-test files under cmd, internal and examples): outside
// internal/store nothing names the concrete store.HomeStore — consumers
// program against ObjectStore, and constructor calls such as
// store.NewHomeStore do not count — and outside internal/persist nothing
// names a persist identifier beyond the SPI.
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
			// Local names under which this file imports the two packages.
			var storeName, persistName string
			for _, imp := range file.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				name := p[strings.LastIndex(p, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
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
