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
// eigensolver under the scalers and PCA; in nn the optimizers, the layers'
// own arithmetic, the loss and the weight initialisers; and on the score
// path, the target denormalisation and synthetic targets in dataset, the
// scorers in metrics, and core's fold scoring and pipeline prediction, which
// inline the denormalisation; and the synthetic series, failure, anomaly
// and fleet generators in sim, whose data every search trains on; and the
// estimators in mlmodels and the transformers in preprocess that the
// searched graphs are built from.
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
		"(*SGD).Step", "(*Tanh).Backward", "(*GatedResidualBlock).Backward", "MSELoss", "signedUniform",
		"NewConv1D", "NewDense", "NewLSTM",
	}},
	{"../dataset", "coda/internal/dataset", []string{"(*Dataset).DenormY", "MakeRegression"}},
	{"../metrics", "coda/internal/metrics", []string{"MSE", "MSLE", "R2", "AUC"}},
	{"../core", "coda/internal/core", []string{"scoreFold", "(*Pipeline).PredictWithTruth", "(*Pipeline).predict"}},
	{"../sim", "coda/internal/sim", []string{"GenerateSeries", "GenerateFailureData", "GenerateAnomalyData", "GenerateFleet"}},
	{"../mlmodels", "coda/internal/mlmodels", []string{
		"(*grower).bestSplit", "gini", "(*LogisticRegression).Fit", "(*KMeans).runOnce", "(*GradientBoosting).Fit", "(*ARModel).Predict",
	}},
	{"../preprocess", "coda/internal/preprocess", []string{
		"pearson", "quantiles", "FilterIQROutliers", "(*Scaler).Transform", "(*MICEImputer).predictCell",
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
