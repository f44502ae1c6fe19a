// Package connlib defines the eighteen parametrizable benchmark
// connectors of experiment E1 (the paper's §V-B suite: a comprehensive
// selection covering the major examples of parametrizable connectors in
// the Reo literature), together with driver metadata used by the
// benchmark harness and the test suite.
//
// Drive runs every task of a connector as often as it can until the
// instance closes (§V-B). StepsIn times one window over it: the Fig. 12
// metric, global steps in a time budget, as cmd/fig12 and the root Go
// benchmarks read it. Tests do not time windows; they drive until a step
// count is reached, under a hang guard.
package connlib
