// Package repro is a from-scratch Go reproduction of "Timing Driven
// Incremental Multi-Bit Register Composition Using a Placement-Aware ILP
// Formulation" (DAC 2017).
//
// The implementation lives under internal/ (core is the paper's
// contribution; the other packages are the substrates it needs), the
// executables under cmd/, and runnable examples under examples/.
// `go run ./cmd/paperrepro -all` regenerates every table and figure of the
// paper's evaluation, and `bash benchmark/run.sh` is the repo's performance
// benchmark; see DESIGN.md and EXPERIMENTS.md.
package repro
