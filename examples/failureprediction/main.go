// Failure Prediction Analysis: the Section IV-E solution template for
// heavy industry. Historical sensor data with failure logs goes in; a
// searched early-warning model with held-out quality numbers comes out —
// one call, no ML expertise required.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"coda/internal/sim"
	"coda/internal/templates"
)

func main() {
	// Simulated equipment history: 2000 timestamps, 5 sensors, 16 failure
	// events, each preceded by a 12-step degradation ramp on two sensors.
	rng := rand.New(rand.NewSource(13))
	fd, err := sim.GenerateFailureData(sim.FailureSpec{
		Steps: 2000, Sensors: 5, Failures: 16, LeadTime: 12,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	positives := 0
	for _, l := range fd.Series.Y {
		if l == 1 {
			positives++
		}
	}
	fmt.Printf("history: %d steps, %d sensors, %d failures (%d labelled lead-window steps)\n",
		fd.Series.NumSamples(), fd.Series.NumFeatures(), len(fd.FailureTimes), positives)

	res, err := templates.FailurePrediction(fd.Series, templates.FPAConfig{
		History: 6, TrainFrac: 0.7, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npipelines searched on the first 70%% of time (F1 over 3 sliding folds):\n")
	for _, u := range res.Search.Units {
		fmt.Printf("  %.3f  %s\n", u.Mean, u.Spec)
	}
	fmt.Printf("\nwinner, refitted there and tested on the rest: %s\n", res.Search.Best.Spec)
	fmt.Printf("  precision %.3f  recall %.3f  F1 %.3f  AUC %.3f  (%d failure steps in test)\n",
		res.Precision, res.Recall, res.F1, res.AUC, res.TestPositives)
}
