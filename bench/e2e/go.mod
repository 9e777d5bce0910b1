module coda/bench/e2e

go 1.22

require coda v0.0.0

replace coda => ../..
