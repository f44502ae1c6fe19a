package engine

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/ca"
)

// TraceEvent describes one fired global execution step.
type TraceEvent struct {
	// Step is the 1-based global step number within the engine.
	Step int64
	// Ports are the boundary vertices that fired, with the values
	// observed there (nil for pure synchronization ports).
	Ports []TracePort
	// Internal reports whether the step was a τ step (no boundary
	// operation completed).
	Internal bool
}

// TracePort is one boundary port's part in a step.
type TracePort struct {
	Name string
	Dir  ca.Dir
	Val  any
}

func (e TraceEvent) String() string {
	if e.Internal {
		return fmt.Sprintf("step %d: τ", e.Step)
	}
	parts := make([]string, 0, len(e.Ports))
	for _, p := range e.Ports {
		arrow := "->"
		if p.Dir == ca.DirSink {
			arrow = "<-"
		}
		parts = append(parts, fmt.Sprintf("%s%s%v", p.Name, arrow, p.Val))
	}
	return fmt.Sprintf("step %d: {%s}", e.Step, strings.Join(parts, ", "))
}

// Tracer receives engine events. Callbacks run while the engine lock is
// held: keep them fast and do not call back into the engine.
type Tracer func(TraceEvent)

// SetTracer installs (or clears, with nil) the trace hook.
func (e *Engine) SetTracer(t Tracer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tracer = t
}

// SetTracer installs the hook on every partition hosted in this process.
// A spliced relay chain's hops are traced by its consuming region.
func (m *Multi) SetTracer(t Tracer) {
	for _, e := range m.live() {
		e.SetTracer(t)
	}
}

// Recorder is a convenience Tracer accumulating events.
type Recorder struct {
	mu     sync.Mutex
	events []TraceEvent
}

// Trace is the Tracer to install.
func (r *Recorder) Trace(e TraceEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

// Events returns a snapshot of the recorded events.
func (r *Recorder) Events() []TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]TraceEvent(nil), r.events...)
}
