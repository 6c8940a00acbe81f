// Package repro is a from-scratch Go reproduction of "Evolution of
// Social-Attribute Networks: Measurements, Modeling, and Implications
// using Google+" (Gong et al., IMC 2012).
//
// The repository-root benchmarks (bench_test.go) regenerate every
// figure of the paper, and the package Example (example_test.go) is the
// quickstart; the library lives under internal/ (see DESIGN.md for the
// system inventory) and the runnable entry points under cmd/.
// cmd/sanserve serves every figure over HTTP from packed snapshot
// timelines; see README.md for a walkthrough.
package repro
