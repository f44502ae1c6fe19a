// Package engine executes composed connectors at run time.
//
// An Engine is the reactive state machine of §III-B: tasks register
// pending send/receive operations on boundary ports; whenever an operation
// arrives, the engine checks whether some global transition of the
// composite automaton is enabled (all ports in its synchronization set
// have matching pending operations and all data guards hold), fires it,
// distributes data, and completes the involved operations.
//
// The composite automaton is never materialized as a whole unless asked:
// the engine keeps the constituent ("medium") automata and a cache of
// expanded composite states. Ahead-of-time composition (§IV-D) expands the
// full reachable space at construction; just-in-time composition expands a
// composite state the first time it is visited. The cache keeps a state
// only from its second visit on: a first visit is expanded into one table
// the engine reuses for every first visit, since where the composite space
// is exponential most states are never entered again. The cache may be
// bounded (the future-work extension of §V-B): once it holds its bound it
// admits no more states and evicts none, and every other state is served
// from the reused table.
//
// Expansion assembles a composite state's joint transitions from clusters
// of local transitions memoised by a ca.Expander, compiles each cluster
// into a ca.Plan (pre-resolved guard/action steps with preallocated
// scratch) the first time any state offers it, and builds a port index
// over the expanded state, so the steady-state firing path is
// allocation-free and proportional to the transitions a newly pended port
// can actually enable — not to the state's out-degree. Kept states link
// to the kept successors already visited from them, so re-entering a
// known state costs a pointer load.
//
// A region whose code was generated ahead of time (BindGen, gen.go) gets
// its whole table of expanded states at bind time instead, with plans
// that call Go closures; it is fired by the same loop.
package engine
