package matrix

import (
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
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-gcflags=-S", pkg)
	cmd.Env = append(os.Environ(), "GOARCH=arm64")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("GOARCH=arm64 go build -gcflags=-S %s: %v\n%s", pkg, err, out)
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

// fusedAllowed names the package's functions that may compile to a fused
// multiply-add on arm64, each with the reason no score reads its
// rounding. It is empty: every function is held to the rule.
var fusedAllowed = map[string]string{}

// TestActivationTwinNotFusedOnArm64 is the cross-architecture half of the
// package's bitwise contract: no function of the package compiles to a
// fused multiply-add on arm64 unless fusedAllowed names it, so every
// product is rounded as an amd64 machine rounds it — the twins arm64 runs
// for the row kernel, the activations and the LSTM step, the least-squares
// solve, and the column statistics, covariance and eigensolver under the
// scalers and PCA. The named twins must be in the listing, so a scan that
// parsed nothing cannot pass. The fixture in testdata/fmafixture is the
// control — a plain p*r + c that must compile to FMADDD, or the scan could
// not fail.
func TestActivationTwinNotFusedOnArm64(t *testing.T) {
	const pkg = "coda/internal/matrix."
	listing := arm64Asm(t, ".")
	for _, fn := range []string{
		"sigmoidGeneric", "tanhGeneric", "expCore",
		"SolveLeastSquares", "reflect",
		"lstmCellGeneric", "lstmHiddenGeneric", "lstmGateGradsGeneric",
		"mulRowsGeneric[go.shape.float64]",
		"(*Mat[go.shape.float64]).ColMeansStds", "(*Mat[go.shape.float64]).Covariance", "SymEig",
	} {
		if _, ok := listing[pkg+fn]; !ok {
			t.Errorf("no arm64 listing for %s", fn)
		}
	}
	for name, body := range listing {
		fn, ok := strings.CutPrefix(name, pkg)
		if !ok {
			continue
		}
		if m := fusedOp.FindString(body); m != "" && fusedAllowed[fn] == "" {
			t.Errorf("%s compiles to %s on arm64: a product the amd64 kernels round is fused", fn, strings.TrimSpace(m))
		}
	}
	control := arm64Asm(t, "./testdata/fmafixture")
	if !fusedOp.MatchString(control["coda/internal/matrix/testdata/fmafixture.HornerStep"]) {
		t.Error("the plain p*r + c fixture compiled to no FMADDD on arm64: the scan cannot tell fused code from unfused")
	}
}
