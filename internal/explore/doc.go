// Package explore is the adversarial scenario engine: instead of
// replaying fixed schedules over the fixed connlib connectors (the
// first differential layer, internal/gen/diff_test.go and the root
// partition/batch/remote tests), it *searches* for divergence between
// execution lanes.
//
// It has three parts:
//
//   - A grammar-based, seeded connector generator (grammar.go): random
//     well-typed .reo connectors, weighted over Sync/Fifo1/Fifo1Full/
//     Fifo.N/filters/transformers/Merger/Replicator/Router/drains with
//     hidden internal vertices, rendered through the real
//     parser→sema→compile→instantiate pipeline and regenerated if any
//     stage rejects them.
//
//   - A deterministic schedule explorer (schedule.go, dpor.go): port
//     operations are launched one at a time, each confirmed through the
//     monotonic OpsRegistered counter, with the engine driven to a
//     fixpoint between launches — so a run is a deterministic function
//     of (connector, schedule, seed) exactly as under gendrv's
//     discipline, but over randomized chunked interleavings instead of
//     one fixed order. For small schedules, DPOR-style enumeration
//     walks the distinct launch orders (canonicalized by commuting
//     independent ports) instead of sampling one.
//
//   - A lane matrix (lanes.go): the region-partitioned interpreted
//     engine is the reference; the in-process generated backend
//     (internal/gen.InProcBinder → engine.BindGen: the same fire loop
//     over tables lowered from closures instead of compiled plans) shares
//     its region plan, choice streams, and cooperative scheduling, and
//     is compared strictly (per-port sequences, Steps, GuardEvals) on
//     every connector. All other lanes — WithWorkers, WithRuntime,
//     batch re-chunking, PartitionOff, AOT — differ in
//     structure or scheduling, so the grammar marks each connector
//     deterministic (no choice primitives, single-writer vertices) or
//     choice-bearing, and runOrder compares accordingly: deterministic
//     connectors must reproduce the reference's sequences on every
//     lane; choice-bearing ones give cross-structure lanes a
//     replay-determinism check (same lane and seed, twice, exact
//     match), with timing-dependent async lanes run as crash smoke.
//
// On divergence the shrinker (shrink.go) minimizes the failing
// connector and schedule, and Run reports a one-line repro command.
// The mutation self-check (Options.Mutate, `reoc explore -selfcheck`)
// injects a candidate-ordering off-by-one into the generated lane's
// templates and demands the explorer catch it — proof the harness can
// see the bugs it exists for.
package explore
