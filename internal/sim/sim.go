// Package sim generates synthetic multivariate industrial sensor data — the
// substitute for the paper's proprietary heavy-industry customer data. Each
// generator produces series with a known temporal structure so experiments
// can check *which model family should win where*: autocorrelated (AR)
// dynamics favour temporal models, random walks favour the Zero baseline,
// transactional cross-variable dependencies favour IID models. The package
// also injects ground-truth failures and anomalies for the solution-template
// experiments (FPA, RCA, Anomaly, Cohort).
//
// Every product that meets an add is written float64(a*b), and a draw
// whose own scaling would meet one is rounded as float64(rng.Float64()),
// so no compiler fuses the two into one rounding (arm64 would): each
// generator gives the same series on every architecture.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"coda/internal/dataset"
	"coda/internal/matrix"
)

// Regime names a temporal structure for GenerateSeries.
type Regime int

// Temporal regimes with known best-model families.
const (
	// RegimeAR: stable AR(2) dynamics plus seasonality — history helps, so
	// temporal models and AR should beat the Zero baseline.
	RegimeAR Regime = iota + 1
	// RegimeRandomWalk: a martingale — the Zero model (predict last value)
	// is optimal; nothing should beat it meaningfully.
	RegimeRandomWalk
	// RegimeTransactional: the target depends on the *current* values of
	// the other variables, not on its own history — IID models suffice.
	RegimeTransactional
	// RegimeSeasonal: strong periodic component with noise — models that
	// can see at least one period of history win.
	RegimeSeasonal
	// RegimeMeanShift: AR(1) dynamics around an operating level that
	// jumps abruptly every ~Steps/6 timestamps — genuine concept drift.
	// A model fitted before a shift carries the stale level; retraining
	// after shifts restores accuracy (the S3 experiment).
	RegimeMeanShift
)

// String names the regime.
func (r Regime) String() string {
	switch r {
	case RegimeAR:
		return "ar"
	case RegimeRandomWalk:
		return "randomwalk"
	case RegimeTransactional:
		return "transactional"
	case RegimeSeasonal:
		return "seasonal"
	case RegimeMeanShift:
		return "meanshift"
	default:
		return fmt.Sprintf("regime(%d)", int(r))
	}
}

// SeriesSpec configures GenerateSeries.
type SeriesSpec struct {
	Steps  int     // number of timestamps (>= 10)
	Vars   int     // number of sensor variables (>= 1); variable 0 is the target
	Regime Regime  // temporal structure
	Noise  float64 // observation noise stddev (default 0.1)
}

// GenerateSeries produces a Steps x Vars multivariate series whose target
// variable (column 0) follows the requested regime. Auxiliary variables are
// correlated sensors: lagged or noisy echoes of the target (AR/seasonal
// regimes) or independent drivers (transactional regime).
func GenerateSeries(spec SeriesSpec, rng *rand.Rand) (*dataset.Dataset, error) {
	if spec.Steps < 10 || spec.Vars < 1 {
		return nil, fmt.Errorf("sim: series spec needs >= 10 steps and >= 1 var, got %+v", spec)
	}
	if spec.Noise == 0 {
		spec.Noise = 0.1
	}
	x := matrix.New(spec.Steps, spec.Vars)
	target := make([]float64, spec.Steps)

	switch spec.Regime {
	case RegimeAR:
		// Stationary AR(2): y_t = 1.2 y_{t-1} - 0.4 y_{t-2} + seasonal + eps.
		for t := 0; t < spec.Steps; t++ {
			v := 0.0
			if t >= 1 {
				v += float64(1.2 * target[t-1])
			}
			if t >= 2 {
				v -= float64(0.4 * target[t-2])
			}
			v += float64(0.5 * math.Sin(2*math.Pi*float64(t)/24))
			v += float64(spec.Noise * rng.NormFloat64())
			target[t] = v
		}
	case RegimeRandomWalk:
		for t := 1; t < spec.Steps; t++ {
			target[t] = target[t-1] + float64(spec.Noise*rng.NormFloat64())
		}
	case RegimeTransactional:
		// Filled after drivers are generated below.
	case RegimeSeasonal:
		for t := 0; t < spec.Steps; t++ {
			target[t] = float64(3*math.Sin(2*math.Pi*float64(t)/12)) +
				math.Sin(2*math.Pi*float64(t)/48) +
				float64(spec.Noise*rng.NormFloat64())
		}
	case RegimeMeanShift:
		level := 0.0
		shiftEvery := spec.Steps / 6
		if shiftEvery < 10 {
			shiftEvery = 10
		}
		prev := 0.0
		for t := 0; t < spec.Steps; t++ {
			if t > 0 && t%shiftEvery == 0 {
				level += float64((float64(float64(rng.Float64())*2) - 1) * 10) // abrupt operating-point change
			}
			v := level + float64(0.5*(prev-level)) + float64(spec.Noise*rng.NormFloat64())
			target[t] = v
			prev = v
		}
	default:
		return nil, fmt.Errorf("sim: unknown regime %v", spec.Regime)
	}

	// Auxiliary sensors.
	aux := make([][]float64, spec.Vars)
	for j := 1; j < spec.Vars; j++ {
		aux[j] = make([]float64, spec.Steps)
		switch spec.Regime {
		case RegimeTransactional:
			// Independent drivers.
			for t := 0; t < spec.Steps; t++ {
				aux[j][t] = rng.NormFloat64()
			}
		default:
			// Noisy lagged echoes of the target.
			lag := j % 3
			for t := 0; t < spec.Steps; t++ {
				src := 0.0
				if t >= lag {
					src = target[t-lag]
				}
				aux[j][t] = float64(0.8*src) + float64(0.3*rng.NormFloat64())
			}
		}
	}
	if spec.Regime == RegimeTransactional {
		// Target is a fixed linear function of the current drivers.
		for t := 0; t < spec.Steps; t++ {
			v := 0.0
			for j := 1; j < spec.Vars; j++ {
				w := 1.0 / float64(j)
				v += float64(w * aux[j][t])
			}
			target[t] = v + float64(spec.Noise*rng.NormFloat64())
		}
	}

	names := make([]string, spec.Vars)
	names[0] = "target"
	for t := 0; t < spec.Steps; t++ {
		x.Set(t, 0, target[t])
	}
	for j := 1; j < spec.Vars; j++ {
		names[j] = fmt.Sprintf("sensor%d", j)
		for t := 0; t < spec.Steps; t++ {
			x.Set(t, j, aux[j][t])
		}
	}
	return &dataset.Dataset{X: x, ColNames: names, TargetName: "target"}, nil
}

// FailureSpec configures GenerateFailureData.
type FailureSpec struct {
	Steps    int // timestamps
	Sensors  int // sensor count (>= 2)
	Failures int // number of failure events to inject
	LeadTime int // degradation window length before each failure
}

// failureNoise is the sensor noise stddev of GenerateFailureData.
const failureNoise = 0.2

// FailureData is labelled sensor history for failure-prediction analysis:
// Series rows are sensor readings, and Series.Y[t] == 1 when a failure
// occurs within LeadTime steps after t (the standard FPA target encoding);
// FailureTimes lists the injected failure timestamps.
type FailureData struct {
	Series       *dataset.Dataset
	FailureTimes []int
}

// GenerateFailureData simulates equipment whose first two sensors drift
// upward during the LeadTime window before each failure, then reset —
// giving supervised models a learnable precursor signature.
func GenerateFailureData(spec FailureSpec, rng *rand.Rand) (*FailureData, error) {
	if spec.Steps < 50 || spec.Sensors < 2 || spec.Failures < 1 {
		return nil, fmt.Errorf("sim: failure spec needs >= 50 steps, >= 2 sensors, >= 1 failure, got %+v", spec)
	}
	if spec.LeadTime <= 0 {
		spec.LeadTime = 10
	}
	if spec.Failures*(spec.LeadTime+5) > spec.Steps {
		return nil, fmt.Errorf("sim: %d failures with lead %d do not fit in %d steps", spec.Failures, spec.LeadTime, spec.Steps)
	}
	x := matrix.New(spec.Steps, spec.Sensors)
	for t := 0; t < spec.Steps; t++ {
		for j := 0; j < spec.Sensors; j++ {
			x.Set(t, j, failureNoise*rng.NormFloat64())
		}
	}
	// Place failures roughly evenly with jitter.
	gap := spec.Steps / (spec.Failures + 1)
	failures := make([]int, 0, spec.Failures)
	for f := 1; f <= spec.Failures; f++ {
		at := f*gap + rng.Intn(gap/2+1)
		if at >= spec.Steps {
			at = spec.Steps - 1
		}
		failures = append(failures, at)
		// Degradation ramp on sensors 0 and 1.
		for k := 0; k < spec.LeadTime && at-k >= 0; k++ {
			ramp := 2.0 * float64(spec.LeadTime-k) / float64(spec.LeadTime)
			x.Set(at-k, 0, x.At(at-k, 0)+ramp)
			x.Set(at-k, 1, x.At(at-k, 1)+float64(0.5*ramp))
		}
	}
	labels := make([]float64, spec.Steps)
	for _, at := range failures {
		for k := 0; k < spec.LeadTime && at-k >= 0; k++ {
			labels[at-k] = 1
		}
	}
	names := make([]string, spec.Sensors)
	for j := range names {
		names[j] = fmt.Sprintf("sensor%d", j)
	}
	series := &dataset.Dataset{X: x, Y: labels, ColNames: names}
	return &FailureData{Series: series, FailureTimes: failures}, nil
}

// AnomalySpec configures GenerateAnomalyData.
type AnomalySpec struct {
	Steps     int
	Vars      int
	Anomalies int     // point anomalies to inject
	Magnitude float64 // anomaly deviation in sigmas (default 8)
}

// AnomalyData carries a series plus the ground-truth anomalous timestamps.
type AnomalyData struct {
	Series       *dataset.Dataset
	AnomalyTimes []int
}

// GenerateAnomalyData produces a smooth seasonal series with Anomalies
// injected point spikes of known magnitude at known times.
func GenerateAnomalyData(spec AnomalySpec, rng *rand.Rand) (*AnomalyData, error) {
	if spec.Steps < 50 || spec.Vars < 1 || spec.Anomalies < 1 {
		return nil, fmt.Errorf("sim: anomaly spec invalid: %+v", spec)
	}
	if spec.Magnitude == 0 {
		spec.Magnitude = 8
	}
	base, err := GenerateSeries(SeriesSpec{Steps: spec.Steps, Vars: spec.Vars, Regime: RegimeSeasonal, Noise: 0.2}, rng)
	if err != nil {
		return nil, err
	}
	times := make([]int, 0, spec.Anomalies)
	used := map[int]bool{}
	for len(times) < spec.Anomalies {
		at := 5 + rng.Intn(spec.Steps-10)
		if used[at] {
			continue
		}
		used[at] = true
		times = append(times, at)
		sign := 1.0
		if rng.Float64() < 0.5 {
			sign = -1
		}
		base.X.Set(at, 0, base.X.At(at, 0)+float64(sign*spec.Magnitude*0.2))
	}
	return &AnomalyData{Series: base, AnomalyTimes: times}, nil
}

// FleetSpec configures GenerateFleet for cohort analysis.
type FleetSpec struct {
	Assets    int // total assets (>= Cohorts)
	Cohorts   int // behavioural groups (>= 2)
	StepsEach int // series length per asset
}

// Fleet is a set of per-asset series with ground-truth cohort assignments.
type Fleet struct {
	AssetSeries []*dataset.Dataset
	TrueCohort  []int
}

// GenerateFleet simulates Assets pieces of equipment whose sensor dynamics
// depend on a hidden cohort: each cohort has a distinct operating level and
// oscillation period, so behaviour summaries cluster back into the truth.
func GenerateFleet(spec FleetSpec, rng *rand.Rand) (*Fleet, error) {
	if spec.Cohorts < 2 || spec.Assets < spec.Cohorts || spec.StepsEach < 20 {
		return nil, fmt.Errorf("sim: fleet spec invalid: %+v", spec)
	}
	fleet := &Fleet{
		AssetSeries: make([]*dataset.Dataset, spec.Assets),
		TrueCohort:  make([]int, spec.Assets),
	}
	for a := 0; a < spec.Assets; a++ {
		cohort := a % spec.Cohorts
		level := float64(10 * float64(cohort))
		period := 8 + float64(6*float64(cohort))
		x := matrix.New(spec.StepsEach, 2)
		for t := 0; t < spec.StepsEach; t++ {
			x.Set(t, 0, level+float64(2*math.Sin(2*math.Pi*float64(t)/period))+float64(0.3*rng.NormFloat64()))
			x.Set(t, 1, float64(level/2)+float64(0.3*rng.NormFloat64()))
		}
		fleet.AssetSeries[a] = &dataset.Dataset{X: x, ColNames: []string{"load", "temp"}}
		fleet.TrueCohort[a] = cohort
	}
	return fleet, nil
}
