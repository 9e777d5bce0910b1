// Package fmafixture is crossarch_test.go's control: a Horner step written
// as a plain p*r + c, which the arm64 compiler fuses into one FMADDD. If the
// scan stops finding it here, the scan is broken, not the twin fixed.
package fmafixture

// HornerStep is the unrounded form the twin must not use.
func HornerStep(p, r, c float64) float64 { return p*r + c }
