// Package gen is the static code-generation backend of the compiler.
// `reoc gen` runs the ordinary front-end pipeline
// (lexer→parser→sema→flatten→compile) for one connector, instantiates it
// at a few probe lengths, partitions each instance into asynchronous
// regions exactly as the interpreted PartitionRegions path does, and
// emits one static template per distinct single-automaton region *shape*
// (ca.CanonicalRegion): state/transition tables over port slots, with
// every guard conjunction and data move a straight-line Go closure. The
// emitted package holds those templates plus the connector's source text
// and calls genrun.New(n), which re-plans the regions at the requested
// length and binds each matching region to its template — one generation
// run serves every N, and no composite state space is ever materialized.
//
// There is one lowering and one loop. engine.BindGen turns a template
// into the dispatch table the engine walks anyway (one pre-linked entry
// per local state, ca.NativePlan plans), so a bound region and an
// interpreted region run the same fireLoop over the same table shape:
// candidate order, seeded choice, batch cursors, fused pure-flow bursts,
// tracing, the τ budget and the Steps/GuardEvals accounting are shared
// code, not replicated behaviour. What a bound region skips is
// just-in-time expansion and plan interpretation. Regions no template
// matches (node regions, multi-automaton regions, shapes that cannot be
// re-emitted) stay interpreted, so an instance is correct at every N.
//
// parametric.go is the ahead-of-time printer (templates as Go source);
// inproc.go builds the same templates as closures in process, which is
// what lets the schedule explorer and the differential tests bind
// arbitrary connectors without the Go toolchain. The differential tests
// in this package pin per-port sequences, Steps and GuardEvals of bound
// instances against interpreted ones, and the golden test pins the
// checked-in internal/genlib packages byte for byte.
package gen
