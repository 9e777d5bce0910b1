package coda_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// goFiles returns the module's .go files under the given roots, test files
// or not, skipping testdata directories and nested modules (bench/e2e).
func goFiles(t *testing.T, tests bool, roots ...string) []string {
	t.Helper()
	var files []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() && path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") && strings.HasSuffix(path, "_test.go") == tests {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

var metricFamily = regexp.MustCompile(`^coda_[a-z0-9_]+`)

// registeredNames parses the non-test Go files under internal/ and cmd/ and
// returns the metric families and span names they name: the family of every
// string literal that starts with coda_ (its name up to any label set), and
// the name every trace.Start call passes — a literal, or a literal prefix
// joined to a variable, which is recorded as the prefix followed by "*".
func registeredNames(t *testing.T) (families, spans map[string]string) {
	t.Helper()
	families, spans = map[string]string{}, map[string]string{}
	fset := token.NewFileSet()
	for _, path := range goFiles(t, false, "internal", "cmd") {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if s, ok := stringLit(n); ok {
					if fam := metricFamily.FindString(s); fam != "" {
						families[fam] = fset.Position(n.Pos()).String()
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Start" || len(n.Args) < 2 {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "trace" {
					return true
				}
				name := n.Args[1]
				suffix := ""
				if bin, ok := name.(*ast.BinaryExpr); ok && bin.Op == token.ADD {
					name, suffix = bin.X, "*"
				}
				lit, ok := name.(*ast.BasicLit)
				if s, isStr := stringLit(lit); ok && isStr {
					spans[s+suffix] = fset.Position(n.Pos()).String()
				} else {
					t.Errorf("%s: trace.Start with a span name that is not a literal or a literal prefix", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
	return families, spans
}

func stringLit(lit *ast.BasicLit) (string, bool) {
	if lit == nil || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

var catalogueRow = regexp.MustCompile("^\\| `([^`]+)` \\|")

// catalogue returns the names in the first column of the markdown table
// under the heading that contains title, with the line each is on.
func catalogue(t *testing.T, path, title string) map[string]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	in := false
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			in = strings.Contains(line, title)
			continue
		}
		if m := catalogueRow.FindStringSubmatch(line); in && m != nil {
			names[m[1]] = n
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatalf("%s has no %q table", path, title)
	}
	return names
}

// checkCatalogue fails for a name the code uses that the catalogue lacks,
// and for a catalogued name the code does not use.
func checkCatalogue(t *testing.T, kind string, code map[string]string, doc map[string]int) {
	t.Helper()
	for name, where := range code {
		if _, ok := doc[name]; !ok {
			t.Errorf("%s: %s %s is not in DESIGN.md's catalogue", where, kind, name)
		}
	}
	for name, line := range doc {
		if _, ok := code[name]; !ok {
			t.Errorf("DESIGN.md:%d catalogues %s %s, which no code under internal/ or cmd/ names", line, kind, name)
		}
	}
}

// TestCatalogueMatchesCode holds DESIGN.md's metric and span catalogues to
// the code in both directions: every coda_* family and trace.Start name in
// the program has a row, and every row names something the program emits.
func TestCatalogueMatchesCode(t *testing.T) {
	families, spans := registeredNames(t)
	if len(families) == 0 || len(spans) == 0 {
		t.Fatalf("found %d metric families and %d span names: the parser reads nothing", len(families), len(spans))
	}
	checkCatalogue(t, "metric family", families, catalogue(t, "DESIGN.md", "Metric catalogue"))
	checkCatalogue(t, "span", spans, catalogue(t, "DESIGN.md", "Span catalogue"))
}

var (
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	citedTest   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)
	testPattern = regexp.MustCompile(`-(?:run|bench|fuzz)(?:=|\s+)('[^']*'|"[^"]*"|\S+)`)
	repoPath    = regexp.MustCompile(`^(?:\./)?((?:internal|cmd|examples)/[^\s:]*?)/?(?::\d+)?$`)
)

// TestDocsCiteWhatExists holds README.md and DESIGN.md to the tree: every
// Test, Benchmark or Fuzz function they name is defined in some _test.go
// file (a name inside a -run, -bench or -fuzz pattern need only be the
// prefix of one), and every internal/, cmd/ or examples/ path they put in
// backticks exists.
func TestDocsCiteWhatExists(t *testing.T) {
	var defined []string
	for _, path := range goFiles(t, true, ".") {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			defined = append(defined, string(m[1]))
		}
	}
	sort.Strings(defined)
	exact := func(name string) bool {
		i := sort.SearchStrings(defined, name)
		return i < len(defined) && defined[i] == name
	}
	prefix := func(name string) bool {
		i := sort.SearchStrings(defined, name)
		return i < len(defined) && strings.HasPrefix(defined[i], name)
	}
	cited := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(src), "\n") {
			where := doc + ":" + strconv.Itoa(n+1)
			for _, pat := range testPattern.FindAllString(line, -1) {
				for _, name := range citedTest.FindAllString(pat, -1) {
					cited++
					if !prefix(name) {
						t.Errorf("%s: the pattern %s names %s, which no test function starts with", where, pat, name)
					}
				}
			}
			for _, name := range citedTest.FindAllString(testPattern.ReplaceAllString(line, ""), -1) {
				cited++
				if !exact(name) {
					t.Errorf("%s: cites %s, which no _test.go file defines", where, name)
				}
			}
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				p := repoPath.FindStringSubmatch(m[1])
				if p == nil {
					continue
				}
				cited++
				if matches, _ := filepath.Glob(p[1]); len(matches) == 0 {
					t.Errorf("%s: cites %s, which does not exist", where, m[1])
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("the documents cite no tests and no paths: the parser reads nothing")
	}
}

// pkgPath is the ./-relative package path go test takes for a file's
// directory.
func pkgPath(file string) string {
	if dir := filepath.ToSlash(filepath.Dir(file)); dir != "." {
		return "./" + dir
	}
	return "."
}

var ciFuzz = regexp.MustCompile(`(?m)go test -run '\^\$' -fuzz '\^(Fuzz\w+)\$' -fuzztime \S+ (?:-fuzzminimizetime \S+ )?(\.\S*)\s*$`)

// TestCIFuzzesEveryTarget holds ci.yml's fuzz step to the module: it runs
// every Fuzz function against the package that defines it, and nothing else.
func TestCIFuzzesEveryTarget(t *testing.T) {
	want := map[string]bool{}
	for _, path := range goFiles(t, true, ".") {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			if strings.HasPrefix(string(m[1]), "Fuzz") {
				want[string(m[1])+" "+pkgPath(path)] = true
			}
		}
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	run := map[string]bool{}
	for _, m := range ciFuzz.FindAllStringSubmatch(string(ci), -1) {
		run[m[1]+" "+m[2]] = true
	}
	if len(want) == 0 || len(run) == 0 {
		t.Fatalf("found %d fuzz targets and %d fuzz runs in ci.yml: the parser reads nothing", len(want), len(run))
	}
	for target := range want {
		if !run[target] {
			t.Errorf("ci.yml's fuzz step does not run %s", target)
		}
	}
	for target := range run {
		if !want[target] {
			t.Errorf("ci.yml's fuzz step runs %s, which is not a fuzz target in that package", target)
		}
	}
}

var ciRunPattern = regexp.MustCompile(`(?m)go test [^\n']*-run '([^']+)' (\./\S+)\s*$`)

// TestCIRunPatternsMatchTests holds ci.yml's `go test … -run '<pattern>'
// <pkg>` steps to the tree: every alternative of a pattern, a group's
// alternatives included, must match a Test or Fuzz function in <pkg>, so a
// renamed test cannot silently drop out of a step such as the -race
// -count=20 fanout run.
func TestCIRunPatternsMatchTests(t *testing.T) {
	tests := map[string][]string{} // ./pkg -> its Test and Fuzz functions
	for _, path := range goFiles(t, true, ".") {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			if name := string(m[1]); !strings.HasPrefix(name, "Benchmark") {
				tests[pkgPath(path)] = append(tests[pkgPath(path)], name)
			}
		}
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, m := range ciRunPattern.FindAllStringSubmatch(string(ci), -1) {
		pattern, pkg := m[1], m[2]
		for _, alt := range alternatives(pattern) {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Fatalf("ci.yml's -run %q for %s: %v", pattern, pkg, err)
			}
			matched := false
			for _, name := range tests[pkg] {
				matched = matched || re.MatchString(name)
			}
			if !matched {
				t.Errorf("ci.yml runs -run %q on %s, and its alternative %q matches no Test or Fuzz function there", pattern, pkg, alt)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("found no -run pattern in ci.yml: the parser reads nothing")
	}
}

// alternatives expands a regexp's |s, inside groups as well, into the
// alternatives it is the union of: `A(b|c)|D` gives Ab, Ac and D.
func alternatives(pattern string) []string {
	var out []string
	for _, alt := range splitTop(pattern) {
		open := strings.IndexByte(alt, '(')
		if open < 0 {
			out = append(out, alt)
			continue
		}
		depth, end := 0, open
		for i := open; i < len(alt); i++ {
			if alt[i] == '(' {
				depth++
			} else if alt[i] == ')' {
				if depth--; depth == 0 {
					end = i
					break
				}
			}
		}
		for _, inner := range splitTop(alt[open+1 : end]) {
			out = append(out, alternatives(alt[:open]+inner+alt[end+1:])...)
		}
	}
	return out
}

// splitTop splits s at the |s outside any parentheses.
func splitTop(s string) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, s[start:])
}
