// Package genlib holds checked-in output of the static code-generation
// backend (`reoc gen`), so that in-process tests and benchmarks can run
// a generated connector next to its interpreted twin without invoking
// the Go toolchain at test time.
//
// Each subdirectory is one emitted package, produced from the .reo
// source checked in beside this file. The golden test in internal/gen
// regenerates every entry and fails on any byte difference, so the
// checked-in output can never drift from the generator; regenerate
// with `go generate ./internal/genlib` after changing the generator or
// a source.
//
// Every package holds one static template per region shape over the
// internal/gen/genrun runtime and instantiates at any array length:
//
//   - fabric (fabric.reo): n independent Fifo1 lanes, the pure
//     region-scaling shape (every region solid, no links).
//   - xfab (xfab.reo): a Transformer→Fifo1→Filter chain per lane; the
//     region analysis cuts the middle buffer, so generated regions run
//     guards and transformations on both sides of real SPSC links.
//   - msfabric (msfabric.reo): the NPB master/slaves scatter-gather
//     fabric (npb's MasterSlaves shape) — the generated backend the
//     NPB programs and fig13 -backend generated run on.
//
// xfab references registered data functions, which the reoc CLI cannot
// supply, so the set is regenerated by the in-process regen command
// rather than per-package CLI lines.
package genlib

//go:generate go run repro/internal/genlib/regen
