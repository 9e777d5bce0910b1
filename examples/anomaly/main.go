// Anomaly and root-cause analysis: two more Section IV-E solution
// templates. AnomalyAnalysis models normal operation and flags anomalous
// modes; RootCauseAnalysis ranks which process factors drive an outcome and
// in which direction — the interpretability the paper argues matters as
// much as raw accuracy.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"coda/internal/dataset"
	"coda/internal/matrix"
	"coda/internal/sim"
	"coda/internal/templates"
)

func main() {
	rng := rand.New(rand.NewSource(17))

	// --- Anomaly Analysis.
	ad, err := sim.GenerateAnomalyData(sim.AnomalySpec{
		Steps: 800, Vars: 2, Anomalies: 6, Magnitude: 20,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	res, err := templates.AnomalyAnalysis(ad.Series, templates.AnomalyConfig{Threshold: 6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("anomaly analysis over %d steps:\n", ad.Series.NumSamples())
	fmt.Printf("  normal behaviour: %s\n", res.Search.Best.Spec)
	fmt.Printf("  injected at %v\n", ad.AnomalyTimes)
	fmt.Printf("  flagged  at %v\n\n", res.AnomalousAt)

	// --- Root Cause Analysis on a simulated process: yield is driven up
	// by line speed and down (strongly) by temperature; humidity and
	// vibration are red herrings.
	n := 400
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		speed, vib, temp, hum := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		rows[i] = []float64{speed, vib, temp, hum}
		y[i] = 2*speed - 5*temp + 0.2*rng.NormFloat64()
	}
	x, err := matrix.NewFromRows(rows)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := dataset.New(x, y)
	if err != nil {
		log.Fatal(err)
	}
	ds.ColNames = []string{"line_speed", "vibration", "temperature", "humidity"}
	rca, err := templates.RootCauseAnalysis(ds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("root cause analysis (model R2 %.3f):\n", rca.R2)
	for i, factor := range rca.Factors {
		arrow := "raises"
		if factor.Direction < 0 {
			arrow = "lowers"
		}
		fmt.Printf("  %d. %-12s importance %.3f (%s the outcome)\n", i+1, factor.Name, factor.Importance, arrow)
	}
}
