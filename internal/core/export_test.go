package core

// ClaimAhead lets the external test package state the claim window's
// bounds in terms of the constant the search uses.
const ClaimAhead = claimAhead

// EvalSpec is the eval spec Search keys opts' units with.
func EvalSpec(opts SearchOptions) string { return evalSpecOf(opts) }
