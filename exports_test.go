package coda_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyAPI is the whole allowlist of TestEveryExportHasACaller: exports
// under internal/ that no shipped code reaches but that another package's
// tests use, which a _test.go file cannot share. An allowed type's methods
// are allowed with it.
var testOnlyAPI = map[string]string{
	"faultinject.Transport":            "the httpapi, replication and core claim-window tests wrap their clients in it",
	"faultinject.NewTransport":         "the httpapi, replication and core claim-window tests wrap their clients in it",
	"faultinject.Config":               "NewTransport's argument",
	"faultinject.Counts":               "Transport.Counts' result",
	"obs/trace.SetDefaultRecorder":     "the core and httpapi tests swap in a ring of their own",
	"core.UnitKey":                     "tests in core, darr, httpapi and the root package name DARR keys with it",
	"dataset.MakeClassification":       "the mlmodels and core tests draw their classification sets from it",
	"dataset.ClassificationSpec":       "MakeClassification's argument",
	"replication.Manager.ActiveLeases": "the httpapi lease tests count the server's leases with it",
	"obs.SetEnabled":                   "the core benchmarks turn metric collection off with it",
	"obs.WritePrometheus":              "the core tests read the default registry's exposition with it",
	"obs.Histogram.Count":              "the replication fanout tests count fanout_seconds observations with it",
	"matrix.KernelPaths":               "the matrix, nn, core and tsgraph tests name every kernel path this CPU runs with it",
	"matrix.WithKernelPath":            "the matrix, nn, core and tsgraph tests run their checks and goldens on each kernel path with it",
}

// program is shipped code (no _test.go files) type-checked with go/types:
// each package keyed by import path.
type program struct {
	fset     *token.FileSet
	std      types.ImporterFrom
	internal string              // the import path prefix of internal/ packages
	files    map[string][]string // import path -> the package's non-test files
	pkgs     map[string]*checked
}

type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loadProgram type-checks the non-test files under each of dirs, which are
// relative to root, for the host's GOOS/GOARCH. A directory's import path is
// module joined to its path below root; the standard library is
// type-checked from source.
func loadProgram(t *testing.T, root, module string, dirs ...string) *program {
	t.Helper()
	fset := token.NewFileSet()
	p := &program{
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		internal: module + "/internal/",
		files:    map[string][]string{},
		pkgs:     map[string]*checked{},
	}
	for _, dir := range dirs {
		for _, file := range goFiles(t, false, filepath.Join(root, dir)) {
			dir := filepath.Dir(file)
			if ok, err := build.Default.MatchFile(dir, filepath.Base(file)); err != nil || !ok {
				continue
			}
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				t.Fatal(err)
			}
			path := module
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			p.files[path] = append(p.files[path], file)
		}
	}
	paths := make([]string, 0, len(p.files))
	for path := range p.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := p.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

var (
	shippedOnce sync.Once
	shipped     *program
)

// shippedProgram is the module's shipped code, bench/e2e included, loaded
// once for every gate that reads it.
func shippedProgram(t *testing.T) *program {
	t.Helper()
	shippedOnce.Do(func() { shipped = loadProgram(t, ".", "coda", ".", filepath.Join("bench", "e2e")) })
	if shipped == nil {
		t.Fatal("the shipped program did not load")
	}
	return shipped
}

func (p *program) Import(path string) (*types.Package, error) {
	return p.ImportFrom(path, "", 0)
}

func (p *program) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if c, ok := p.pkgs[path]; ok {
		return c.pkg, nil
	}
	files, ok := p.files[path]
	if !ok {
		return p.std.ImportFrom(path, dir, mode)
	}
	c := &checked{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, file := range files {
		f, err := parser.ParseFile(p.fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		c.files = append(c.files, f)
	}
	pkg, err := (&types.Config{Importer: p}).Check(path, p.fset, c.files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkg = pkg
	p.pkgs[path] = c
	return pkg, nil
}

// decl is one declaration: the syntax to walk once it is live, with the
// package whose Info resolves its identifiers.
type decl struct {
	node ast.Node
	c    *checked
}

// reachable returns the objects of the program's packages that the shipped
// code reaches, and the declaration of every package-level object, method
// and interface method under internal/, by its object.
//
// The roots are every declaration outside internal/, every init function
// and every package-level var initialiser. A live declaration makes live
// each object its syntax names, so an interface's method is live only when
// live code calls it through that interface (or one embedding it). A
// concrete method is live when it is named, or when a live type whose
// method set holds it (T or *T) implements an interface that declares it,
// one of the program's, the standard library's or the universe's error:
// a call through an interface names only the interface's method.
func (p *program) reachable() (live map[types.Object]bool, decls map[types.Object]decl) {
	decls = map[types.Object]decl{}
	var roots []decl
	var named []*types.TypeName
	ifaces := map[string][]*types.Interface{} // method Id -> interfaces declaring it
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seenIface[it] {
			return
		}
		seenIface[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			id := it.Method(i).Id()
			ifaces[id] = append(ifaces[id], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for path, c := range p.pkgs {
		inInternal := strings.HasPrefix(path, p.internal)
		for _, f := range c.files {
			for _, d := range f.Decls {
				if !inInternal {
					roots = append(roots, decl{d, c})
					continue
				}
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						roots = append(roots, decl{d, c})
						continue
					}
					decls[c.info.Defs[d.Name]] = decl{d, c}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decls[c.info.Defs[s.Name]] = decl{s, c}
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, name := range m.Names {
										decls[c.info.Defs[name]] = decl{m, c}
									}
								}
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if obj := c.info.Defs[name]; obj != nil {
									decls[obj] = decl{s, c}
								}
							}
							if d.Tok == token.VAR {
								for _, v := range s.Values {
									roots = append(roots, decl{v, c})
								}
							}
						}
					}
				}
			}
		}
		for _, f := range c.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					addIface(c.info.Types[it].Type)
				}
				return true
			})
		}
		for _, obj := range c.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named = append(named, tn)
			}
		}
	}
	seen := map[*types.Package]bool{}
	var std func(pkg *types.Package)
	std = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		if _, ok := p.pkgs[pkg.Path()]; !ok {
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
		for _, imp := range pkg.Imports() {
			std(imp)
		}
	}
	for _, c := range p.pkgs {
		std(c.pkg)
	}

	// via holds, by type, the concrete methods its values are called
	// through an interface with.
	via := map[*types.TypeName][]*types.Func{}
	for _, tn := range named {
		if types.IsInterface(tn.Type()) {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		mset := types.NewMethodSet(ptr)
		tried := map[*types.Interface]bool{}
		for i := 0; i < mset.Len(); i++ {
			for _, it := range ifaces[mset.At(i).Obj().Id()] {
				if tried[it] {
					continue
				}
				tried[it] = true
				if !types.Implements(ptr, it) {
					continue
				}
				for j := 0; j < it.NumMethods(); j++ {
					m := it.Method(j)
					fn := mset.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func)
					if !types.IsInterface(fn.Type().(*types.Signature).Recv().Type()) {
						via[tn] = append(via[tn], fn.Origin())
					}
				}
			}
		}
	}

	live = map[types.Object]bool{}
	var queue []decl
	var mark func(obj types.Object)
	mark = func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			if o.IsField() {
				return
			}
		}
		if live[obj] {
			return
		}
		d, ok := decls[obj]
		tn, isType := obj.(*types.TypeName)
		if !ok && !(isType && via[tn] != nil) {
			return
		}
		live[obj] = true
		if ok {
			queue = append(queue, d)
		}
		switch o := obj.(type) {
		case *types.TypeName:
			for _, m := range via[o] {
				mark(m)
			}
		case *types.Var, *types.Const:
			if tn := baseType(o.Type()); tn != nil {
				mark(tn)
			}
		}
	}
	queue = append(queue, roots...)
	for len(queue) > 0 {
		d := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := d.c.info.Uses[id]; obj != nil {
					mark(obj)
				}
			}
			return true
		})
	}
	return live, decls
}

// baseType is the declared type a (pointer to a) named type comes from,
// or nil.
func baseType(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// exportKey names an internal/ declaration as the allowlist does: its
// package path under internal/, then the receiver's type for a method.
func exportKey(obj types.Object) string {
	if recv := receiverKey(obj); recv != "" {
		return recv + "." + obj.Name()
	}
	_, pkg, _ := strings.Cut(obj.Pkg().Path(), "/internal/")
	return pkg + "." + obj.Name()
}

// receiverKey is the exportKey of a method's receiver type, or "".
func receiverKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return exportKey(baseType(recv.Type()))
		}
	}
	return ""
}

// TestEveryExportHasACaller holds internal/ to its callers. Nothing outside
// the module can import internal/, so an exported function, method,
// interface method, type, var or const there that no shipped code reaches
// (see reachable) has no user: only tests keep it. Each such export fails,
// unless testOnlyAPI names it with a reason; an allowlist entry that is
// reachable or no longer declared fails too.
func TestEveryExportHasACaller(t *testing.T) {
	p := shippedProgram(t)
	live, decls := p.reachable()
	if len(live) == 0 || len(decls) == 0 {
		t.Fatalf("%d of %d internal/ declarations reachable: the walk reads nothing", len(live), len(decls))
	}
	declared := map[string]bool{}
	var dead []string
	for obj, d := range decls {
		if !obj.Exported() {
			continue
		}
		key := exportKey(obj)
		declared[key] = true
		_, allowed := testOnlyAPI[key]
		if recv := receiverKey(obj); recv != "" && testOnlyAPI[recv] != "" {
			allowed = true
		}
		switch {
		case live[obj] && allowed:
			t.Errorf("%s is reachable from shipped code: take it off testOnlyAPI", key)
		case !live[obj] && !allowed:
			dead = append(dead, p.fset.Position(d.node.Pos()).String()+": "+key+" has no caller outside tests")
		}
	}
	sort.Strings(dead)
	for _, msg := range dead {
		t.Error(msg)
	}
	for key := range testOnlyAPI {
		if !declared[key] {
			t.Errorf("testOnlyAPI names %s, which internal/ no longer declares", key)
		}
	}
}

// TestReachabilityRules runs the walk on testdata/exportgate, one shipped
// command over one internal package, and checks the verdict on each of
// its exported methods.
func TestReachabilityRules(t *testing.T) {
	p := loadProgram(t, filepath.Join("testdata", "exportgate"), "fixture", ".")
	live, decls := p.reachable()
	verdict := map[string]bool{}
	for obj := range decls {
		if obj.Exported() {
			verdict[exportKey(obj)] = live[obj]
		}
	}
	for _, tc := range []struct {
		key  string
		live bool
		why  string
	}{
		{"lib.Store.Get", true, "the command calls it through Store"},
		{"lib.Store.Snapshot", false, "Store declares it, and nothing calls it through Store"},
		{"lib.Mem.Get", true, "Mem implements Store, which declares it"},
		{"lib.Mem.Snapshot", true, "Mem implements Store, which declares it"},
		{"lib.Mem.Flush", true, "Mem implements flusher, whose other method is unexported"},
		{"lib.Counter.String", true, "*Counter implements fmt.Stringer"},
		{"lib.Counter.Read", false, "it shares only its name with io.Reader's Read"},
	} {
		got, ok := verdict[tc.key]
		if !ok {
			t.Errorf("%s: not declared in the fixture", tc.key)
		} else if got != tc.live {
			t.Errorf("%s: live = %v, want %v: %s", tc.key, got, tc.live, tc.why)
		}
	}
}
