package coda_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// optionStruct reports whether a type name is one of the option kinds
// TestEveryOptionFieldIsSet holds to a writer.
func optionStruct(name string) bool {
	for _, suffix := range []string{"Options", "Config", "Policy", "Spec"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// fieldWrites returns every struct field shipped code writes outside the
// field's own package: a key of a composite literal, the target of an
// assignment or an increment, or an operand of &. A literal without keys
// writes every field of its type.
func (p *program) fieldWrites() map[*types.Var]bool {
	written := map[*types.Var]bool{}
	for _, c := range p.pkgs {
		write := func(obj types.Object) {
			if v, ok := obj.(*types.Var); ok && v.IsField() && v.Pkg() != c.pkg {
				written[v.Origin()] = true
			}
		}
		selected := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				write(c.info.Uses[sel.Sel])
			}
		}
		for _, f := range c.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := c.info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								write(c.info.Uses[id])
							}
						} else if i < st.NumFields() {
							write(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						selected(lhs)
					}
				case *ast.IncDecStmt:
					selected(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						selected(n.X)
					}
				}
				return true
			})
		}
	}
	return written
}

// unsetOptions is the whole allowlist of TestEveryOptionFieldIsSet: option
// fields that no shipped code outside their package writes, each kept for
// the reason given. The fields of a type testOnlyAPI lists are allowed
// with it.
var unsetOptions = map[string]string{
	"core.SearchOptions.DisablePrefixCache": "the reference path: the fuzz, golden and prefix-cache tests compare the cached search with it",
	"retry.Policy.Sleep":                    "a fake clock: the retry tests assert the backoff schedule without waiting, the fault tests retry at once",
}

// TestEveryOptionFieldIsSet holds the knobs of internal/ to a caller that
// turns them. An exported field of an exported internal/ struct whose name
// ends in Options, Config, Policy or Spec is a setting; one that no shipped
// code outside its package writes (see fieldWrites; bench/e2e counts as
// shipped) always holds its default, so it is a constant, not an option.
// Each such field fails unless unsetOptions names it or testOnlyAPI its
// type; an unsetOptions entry that is written or no longer declared fails
// too.
func TestEveryOptionFieldIsSet(t *testing.T) {
	p := shippedProgram(t)
	written := p.fieldWrites()
	declared := map[string]bool{}
	var unset []string
	for path, c := range p.pkgs {
		if !strings.HasPrefix(path, p.internal) {
			continue
		}
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !optionStruct(name) || testOnlyAPI[exportKey(tn)] != "" {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				key := exportKey(tn) + "." + f.Name()
				declared[key] = true
				_, allowed := unsetOptions[key]
				switch {
				case written[f] && allowed:
					t.Errorf("%s is written by shipped code: take it off unsetOptions", key)
				case !written[f] && !allowed:
					unset = append(unset, p.fset.Position(f.Pos()).String()+": "+key+" is set by no shipped code outside its package")
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no option fields found: the walk reads nothing")
	}
	sort.Strings(unset)
	for _, msg := range unset {
		t.Error(msg)
	}
	for key := range unsetOptions {
		if !declared[key] {
			t.Errorf("unsetOptions names %s, which internal/ no longer declares", key)
		}
	}
}

// flagBinaries are the shipped commands TestEveryFlagIsExercised reads, by
// directory under cmd/.
var flagBinaries = []string{"coda-server", "coda-client", "coda-bench"}

// flagDefiners are the flag.FlagSet methods (and flag package functions)
// that declare a flag, by the index of the argument that names it.
var flagDefiners = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1, "StringVar": 1,
	"UintVar": 1, "Uint64Var": 1, "TextVar": 1, "Var": 1,
}

// declaredFlags returns, by name, where each flag a command's non-test
// files declare through flag.X or fs.X is declared.
func declaredFlags(t *testing.T, dir string) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	flags := map[string]string{}
	for _, path := range goFiles(t, false, dir) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv, ok := sel.X.(*ast.Ident)
			arg, defines := flagDefiners[sel.Sel.Name]
			if !ok || (recv.Name != "flag" && recv.Name != "fs") || !defines || arg >= len(call.Args) {
				return true
			}
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok {
				if name, ok := stringLit(lit); ok {
					flags[name] = fset.Position(lit.Pos()).String()
				}
			}
			return true
		})
	}
	return flags
}

// flagArg is a command-line flag written as a string literal.
var flagArg = regexp.MustCompile(`^-([a-z][a-z0-9-]*)$`)

// passedFlags collects into passed, by binary, the "-name" literals each
// of a test file's calls hands to a binary: bin names the binary a call
// runs, or "" for a call that runs none.
func passedFlags(t *testing.T, path string, passed map[string]map[string]bool, bin func(call *ast.CallExpr) string) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		b := bin(call)
		if b == "" {
			return true
		}
		for _, a := range call.Args {
			ast.Inspect(a, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok {
					if s, ok := stringLit(lit); ok {
						if m := flagArg.FindStringSubmatch(s); m != nil {
							passed[b][m[1]] = true
						}
					}
				}
				return true
			})
		}
		return true
	})
}

// smokeRunners are smoke_test.go's smokeBins methods, by the binary each
// runs.
var smokeRunners = map[string]string{
	"startServer": "coda-server", "startServe": "coda-client", "run": "coda-client", "runBench": "coda-bench",
}

// smokeCall is the binary a smoke_test.go call runs: one of smokeRunners,
// or start(t, bins.X, ...), where X is a smokeBins field.
func smokeCall(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		return smokeRunners[fn.Sel.Name]
	case *ast.Ident:
		if fn.Name != "start" || len(call.Args) < 2 {
			return ""
		}
		if sel, ok := call.Args[1].(*ast.SelectorExpr); ok {
			return map[string]string{"server": "coda-server", "client": "coda-client", "bench": "coda-bench"}[sel.Sel.Name]
		}
	}
	return ""
}

// clientCall is the binary a cmd/coda-client test call runs: a subcommand
// (run*), or a flag set's Parse.
func clientCall(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		if strings.HasPrefix(fn.Name, "run") {
			return "coda-client"
		}
	case *ast.SelectorExpr:
		if fn.Sel.Name == "Parse" {
			return "coda-client"
		}
	}
	return ""
}

// operatorFlags is the whole allowlist of TestEveryFlagIsExercised: flags
// no test passes, by binary, each kept for the operational reason given.
var operatorFlags = map[string]map[string]string{
	"coda-server": {
		"claim-ttl":     "how long a crashed client's claims hold its units; sized to the slowest unit of a deployment's graphs",
		"retain":        "versions kept as delta bases; sized to how far behind a deployment's replicas fall",
		"read-timeout":  "a WAN client on a slow link needs longer than the default to send a large object",
		"write-timeout": "a WAN client on a slow link needs longer than the default to receive a large object",
		"idle-timeout":  "keep-alive length is sized to a deployment's load balancer",
		"log-level":     "debug logs every request, for an operator chasing one",
		"log-format":    "json for a log shipper",
		"debug-addr":    "pprof and a second /metrics listener on an operator-only port",
	},
	"coda-client": {
		"parallelism": "search's worker count, sized to the cores a host can spare",
		"log-format":  "json for a log shipper",
	},
	"coda-bench": {
		"all": "regenerates every table and figure, minutes even with -quick: EXPERIMENTS.md is refreshed with it",
	},
}

// TestEveryFlagIsExercised holds each shipped command's flags to a test
// that sets them. A flag passes when a test hands its "-name" to that
// binary (smoke_test.go's runners for all three, and a subcommand or flag
// set run in cmd/coda-client's tests for coda-client), or when
// operatorFlags gives it a reason. Any other flag is a setting that no
// test or benchmark runs: a constant, not a flag. An operatorFlags entry
// that a test passes, or that no command declares, fails too.
func TestEveryFlagIsExercised(t *testing.T) {
	passed := map[string]map[string]bool{}
	for _, bin := range flagBinaries {
		passed[bin] = map[string]bool{}
	}
	passedFlags(t, "smoke_test.go", passed, smokeCall)
	for _, path := range goFiles(t, true, filepath.Join("cmd", "coda-client")) {
		passedFlags(t, path, passed, clientCall)
	}
	total := 0
	for _, bin := range flagBinaries {
		declared := declaredFlags(t, filepath.Join("cmd", bin))
		total += len(declared)
		names := make([]string, 0, len(declared))
		for name := range declared {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			_, listed := operatorFlags[bin][name]
			switch {
			case passed[bin][name] && listed:
				t.Errorf("%s -%s is passed by a test: take it off operatorFlags", bin, name)
			case !passed[bin][name] && !listed:
				t.Errorf("%s: %s -%s is passed by no test and has no operatorFlags reason", declared[name], bin, name)
			}
		}
		for name := range operatorFlags[bin] {
			if declared[name] == "" {
				t.Errorf("operatorFlags names %s -%s, which it no longer declares", bin, name)
			}
		}
	}
	if total == 0 || len(passed["coda-server"]) == 0 || len(passed["coda-client"]) == 0 {
		t.Fatalf("%d flags declared, %d and %d passed to the server and client: the parser reads nothing",
			total, len(passed["coda-server"]), len(passed["coda-client"]))
	}
}
