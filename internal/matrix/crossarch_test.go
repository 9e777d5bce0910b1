package matrix

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// fusedOp matches arm64's fused multiply-add family, double and single
// precision: one rounding where the twin's contract has two.
var fusedOp = regexp.MustCompile(`\t(FMADD|FMSUB|FNMADD|FNMSUB)[DS]\t`)

// arm64Asm compiles pkg for arm64 and returns each function's listing
// (-gcflags=-S), keyed by its full symbol name.
func arm64Asm(t *testing.T, pkg string) map[string]string {
	t.Helper()
	return asmListing(t, pkg, "GOARCH=arm64")
}

// asmListing compiles pkg under env and returns each function's listing
// (-gcflags=-S), keyed by its full symbol name.
func asmListing(t *testing.T, pkg string, env ...string) map[string]string {
	t.Helper()
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-gcflags=-S", pkg)
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s go build -gcflags=-S %s: %v\n%s", strings.Join(env, " "), pkg, err, out)
	}
	funcs := map[string]string{}
	var name string
	for _, line := range strings.Split(string(out), "\n") {
		if line != "" && line[0] != '\t' && line[0] != ' ' {
			name = strings.Fields(line)[0]
			continue
		}
		funcs[name] += line + "\n"
	}
	return funcs
}

// fusedAllowed names the functions (full symbol names) that may compile to
// a fused multiply-add on arm64, each with the reason no score reads its
// rounding. It is empty: every function of every scanned package is held to
// the rule.
var fusedAllowed = map[string]string{}

// fusedScans are the packages the scan holds to the rule, each with
// functions that must be in its listing, so a scan that parsed nothing
// cannot pass: in matrix the twins arm64 runs for the row kernel, the
// activations, the LSTM step and the element-wise kernels, the
// least-squares solve, and the column statistics, covariance and
// eigensolver under the scalers and PCA; in nn the optimizer and its bias
// corrections' power, the layers' own arithmetic and the weight
// initialisers; and on the score path, the target denormalisation and
// synthetic targets in dataset, the scorers in metrics, and core's fold
// scoring and pipeline prediction, which inline the denormalisation; and
// the synthetic series, failure, anomaly and fleet generators in sim, whose
// data every search trains on; and the estimators in mlmodels and the
// transformers in preprocess that the searched graphs are built from.
var fusedScans = []struct {
	dir, pkg string
	must     []string
}{
	{".", "coda/internal/matrix", []string{
		"sigmoidGeneric", "tanhGeneric", "expCore",
		"SolveLeastSquares", "reflect",
		"lstmCellGeneric", "lstmGateGradsGeneric",
		"adamUpdateGeneric", "dropoutApplyGeneric", "mulElemsGeneric",
		"mulRowsGeneric[go.shape.float64]",
		"(*Mat[go.shape.float64]).ColMeansStds", "(*Mat[go.shape.float64]).Covariance", "SymEig",
	}},
	{"../nn", "coda/internal/nn", []string{
		"(*Adam).Step", "(*GatedResidualBlock).Forward", "(*GatedResidualBlock).Backward", "powInt", "signedUniform",
		"NewConv1D", "NewDense", "NewLSTM",
	}},
	{"../dataset", "coda/internal/dataset", []string{"(*Dataset).DenormY", "MakeRegression"}},
	{"../metrics", "coda/internal/metrics", []string{"MSE", "MSLE", "R2", "AUC"}},
	{"../core", "coda/internal/core", []string{"scoreFold", "(*Pipeline).PredictWithTruth", "(*Pipeline).predict"}},
	{"../sim", "coda/internal/sim", []string{"GenerateSeries", "GenerateFailureData", "GenerateAnomalyData", "GenerateFleet"}},
	{"../mlmodels", "coda/internal/mlmodels", []string{
		"(*grower).varianceScan", "(*grower).giniScan", "gini", "newColumns", "(*LogisticRegression).Fit", "(*KMeans).runOnce", "(*KNN).Predict", "(*ARModel).Predict",
	}},
	{"../preprocess", "coda/internal/preprocess", []string{
		"pearson", "quantiles", "interpolate", "(*Scaler).Transform", "(*Covariance).Transform",
	}},
}

// TestActivationTwinNotFusedOnArm64 is the cross-architecture half of the
// kernels' bitwise contract: no function of a scanned package compiles to
// a fused multiply-add on arm64 unless fusedAllowed names it, so every
// product is rounded as an amd64 machine rounds it. The fixture in
// testdata/fmafixture is the control — a plain p*r + c that must compile to
// FMADDD, or the scan could not fail.
func TestActivationTwinNotFusedOnArm64(t *testing.T) {
	for _, scan := range fusedScans {
		listing := arm64Asm(t, scan.dir)
		prefix := scan.pkg + "."
		for _, fn := range scan.must {
			if _, ok := listing[prefix+fn]; !ok {
				t.Errorf("no arm64 listing for %s%s", prefix, fn)
			}
		}
		for name, body := range listing {
			if !strings.HasPrefix(name, prefix) {
				continue
			}
			if m := fusedOp.FindString(body); m != "" && fusedAllowed[name] == "" {
				t.Errorf("%s compiles to %s on arm64: a product the amd64 kernels round is fused", name, strings.TrimSpace(m))
			}
		}
	}
	control := arm64Asm(t, "./testdata/fmafixture")
	if !fusedOp.MatchString(control["coda/internal/matrix/testdata/fmafixture.HornerStep"]) {
		t.Error("the plain p*r + c fixture compiled to no FMADDD on arm64: the scan cannot tell fused code from unfused")
	}
}

// amd64FusedOp matches amd64's FMA3 family, which GOAMD64=v3 makes
// available to the compiler.
var amd64FusedOp = regexp.MustCompile(`\tVFN?M(ADD|SUB)(ADD|SUB)?[0-9]+[PS][DS]\t`)

// TestAmd64DoesNotFuse is why amd64 code needs no float64(a*b): even at
// GOAMD64=v3, where FMA3 is in the instruction set, the amd64 backend
// compiles the fixture's plain p*r + c to a multiply and an add, each
// rounded. A toolchain that starts fusing it fails here, before any score
// moves on the machines that build with v3.
func TestAmd64DoesNotFuse(t *testing.T) {
	listing := asmListing(t, "./testdata/fmafixture", "GOARCH=amd64", "GOAMD64=v3")
	body, ok := listing["coda/internal/matrix/testdata/fmafixture.HornerStep"]
	if !ok {
		t.Fatal("no amd64 listing for the fixture's HornerStep")
	}
	if m := amd64FusedOp.FindString(body); m != "" {
		t.Errorf("the plain p*r + c fixture compiles to %s at GOAMD64=v3: amd64 code now needs float64(a*b) as arm64's does", strings.TrimSpace(m))
	}
	if !strings.Contains(body, "MULSD") || !strings.Contains(body, "ADDSD") {
		t.Errorf("the fixture at GOAMD64=v3 has no MULSD and ADDSD: the control cannot tell a fused listing from an unfused one\n%s", body)
	}
}

// mathExact are the math functions the scanned packages may call anywhere:
// each gives the same bits on every architecture, so calling one cannot
// move a score between machines.
var mathExact = map[string]string{
	"Abs":             "clears the sign bit",
	"Copysign":        "moves a sign bit",
	"Signbit":         "reads a sign bit",
	"Float64bits":     "a bit cast",
	"Float64frombits": "a bit cast",
	"Inf":             "a constant",
	"NaN":             "a constant",
	"IsInf":           "a comparison",
	"IsNaN":           "a comparison",
	"Frexp":           "bit arithmetic and a product by a power of two: nothing to fuse",
	"Ldexp":           "bit arithmetic and a product by a power of two: nothing to fuse",
	"Sqrt":            "IEEE 754 square root, correctly rounded: SQRTSD on amd64, FSQRTD on arm64",
}

// mathArchDependent names each call, by package, enclosing function and
// math function, of a math function that is not in mathExact: pure Go in
// the standard library, so arm64 fuses its products and its bits can
// differ from amd64's. Each says why it may stay.
var mathArchDependent = map[string]string{
	"metrics.MSLE math.Log1p":     "the msle and rmsle scores are arch-dependent: math.log1p fuses 21 products on arm64; no golden and no graph in the paper's inventory scores with them",
	"sim.GenerateSeries math.Sin": "the seasonal and harmonic terms of the synthetic series are arch-dependent: math.sin fuses 16 products on arm64, so a series search's data, and its scores, can differ there; a rounded sin twin alone would not fix the series, because its rand.NormFloat64 noise calls math.Log in the base-strip tail, assembly on amd64 and pure Go with fusible products on arm64, which this scan cannot see",
	"sim.GenerateFleet math.Sin":  "the fleet's seasonal term is arch-dependent for the same reason as GenerateSeries', and its rand.NormFloat64 noise for the same second reason",
}

// TestMathCallsAreListed holds every call into package math from a package
// fusedScans names to mathExact or mathArchDependent: a new call of a
// function whose bits can depend on the architecture fails until it is
// listed with its reason, and a listed call that is gone fails too.
func TestMathCallsAreListed(t *testing.T) {
	fset := token.NewFileSet()
	seen := map[string]bool{}
	calls := 0
	for _, scan := range fusedScans {
		files, err := filepath.Glob(filepath.Join(scan.dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.Base(strings.TrimSuffix(scan.pkg, "/"))
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller := pkg + "." + funcName(fd)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "math" {
						return true
					}
					calls++
					if mathExact[sel.Sel.Name] != "" {
						return true
					}
					key := caller + " math." + sel.Sel.Name
					seen[key] = true
					if mathArchDependent[key] == "" {
						t.Errorf("%s: %s calls math.%s, whose bits can differ between architectures: list it in mathArchDependent with the reason it may stay, or compute it with a twin", fset.Position(call.Pos()), caller, sel.Sel.Name)
					}
					return true
				})
			}
		}
	}
	if calls == 0 {
		t.Fatal("found no math calls in the scanned packages: the parser reads nothing")
	}
	for key := range mathArchDependent {
		if !seen[key] {
			t.Errorf("mathArchDependent lists %s, which the code no longer calls", key)
		}
	}
}

// funcName is fd's name as the arm64 listings spell it: F, or (*T).M and
// T.M for a method.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	recv, ptr := fd.Recv.List[0].Type, false
	if star, ok := recv.(*ast.StarExpr); ok {
		recv, ptr = star.X, true
	}
	if idx, ok := recv.(*ast.IndexExpr); ok {
		recv = idx.X
	}
	if ptr {
		return "(*" + recv.(*ast.Ident).Name + ")." + fd.Name.Name
	}
	return recv.(*ast.Ident).Name + "." + fd.Name.Name
}
