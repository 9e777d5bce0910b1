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

// fusedOp matches arm64's fused multiply-add family: one rounding where the
// twin's contract has two.
var fusedOp = regexp.MustCompile(`\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\t`)

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

// TestActivationTwinNotFusedOnArm64 is the cross-architecture half of the
// activations' bitwise contract: the portable twin, which is what arm64
// runs, compiles to no fused multiply-add, so it rounds every product as
// the AVX2 kernel does. The least-squares solve (SolveLeastSquares and its
// reflect) is held to the same scan, so a refit's coefficients are an
// amd64 machine's on arm64 too, and so are the LSTM step's twins (the cell
// and hidden updates and BPTT's gate gradients) at float64 — instantiated
// where nn uses them, so they are read from nn's listing. The fixture in
// testdata/fmafixture is the control — a plain p*r + c that must compile to
// FMADDD, or the scan could not fail.
func TestActivationTwinNotFusedOnArm64(t *testing.T) {
	matrixAsm, nnAsm := arm64Asm(t, "."), arm64Asm(t, "../nn")
	for _, c := range []struct {
		listing map[string]string
		fn      string
	}{
		{matrixAsm, "sigmoidGeneric"}, {matrixAsm, "tanhGeneric"}, {matrixAsm, "expCore"},
		{matrixAsm, "SolveLeastSquares"}, {matrixAsm, "reflect"},
		{nnAsm, "lstmCellGeneric[go.shape.float64]"},
		{nnAsm, "lstmHiddenGeneric[go.shape.float64]"},
		{nnAsm, "lstmGateGradsGeneric[go.shape.float64]"},
	} {
		body, ok := c.listing["coda/internal/matrix."+c.fn]
		if !ok {
			t.Errorf("no arm64 listing for %s", c.fn)
			continue
		}
		if m := fusedOp.FindString(body); m != "" {
			t.Errorf("%s compiles to %s on arm64: a product the AVX2 kernel rounds is fused", c.fn, strings.TrimSpace(m))
		}
	}
	control := arm64Asm(t, "./testdata/fmafixture")
	if !fusedOp.MatchString(control["coda/internal/matrix/testdata/fmafixture.HornerStep"]) {
		t.Error("the plain p*r + c fixture compiled to no FMADDD on arm64: the scan cannot tell fused code from unfused")
	}
}
