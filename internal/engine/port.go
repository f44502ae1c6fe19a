package engine

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/ca"
)

// Coordinator is the operational interface of a connector instance: what
// ports talk to. Both Engine and Multi implement it.
type Coordinator interface {
	Send(p ca.PortID, v any) error
	Recv(p ca.PortID) (any, error)
	// SendBatch registers one operation carrying all of vs and blocks
	// until every item was accepted; RecvBatch fills buf and blocks until
	// every slot was delivered. Both return the number of items moved
	// (short only on error) and amortize one registration — one engine
	// lock acquisition and one completion handshake — over the batch.
	SendBatch(p ca.PortID, vs []any) (int, error)
	RecvBatch(p ca.PortID, buf []any) (int, error)
	Close() error
	Steps() int64
	// Expansions reports how many times a composite state has been
	// expanded at run time. Every run of the expander counts: a state
	// visited once costs 1 and a state kept on its second visit 2; a state
	// a full bounded cache could not admit costs 1 on every visit. An
	// endpoint region (a task's port and one link, region.go) moves items
	// without expanding anything and adds 0.
	Expansions() int64
	// PlansCompiled reports how many transition plans have been compiled
	// since construction; unlike the other counters it is not zeroed by
	// Reset, since the plans it counts survive Reset too. An endpoint
	// region compiles none.
	PlansCompiled() int64
	// GuardEvals reports how many candidate transitions had their guards
	// evaluated while dispatching — the engine's per-step matching work.
	// An endpoint region counts one per run of items it moves, as for one
	// fire and its fused burst, and a spliced hop counts one, as the fire
	// loop of its relay would have.
	GuardEvals() int64
	// Parked gauges the operations waiting for a peer, and Busy reports
	// whether a fire pass may run or be due while none is in flight; with
	// a count of the operations a driver started and saw return, the two
	// make its exact idle barrier: every operation returned or parked,
	// and no pass running or due (see Multi.Busy).
	Parked() int64
	Busy() bool
}

var (
	_ Coordinator = (*Engine)(nil)
	_ Coordinator = (*Multi)(nil)
)

// AwaitIdle yields until the idle barrier holds on c: every operation a
// driver has outstanding — started and not yet seen to return, as
// outstanding counts them — is parked, and no pass is running or due. The
// outstanding count is read before Parked, so an operation completed
// between the two reads counts as neither, and again after Busy, which
// catches one that a pass running through the first reads completed. A
// barrier not reached within guard is an error, never taken for idleness.
func AwaitIdle(c interface {
	Parked() int64
	Busy() bool
}, outstanding func() int64, guard time.Duration) error {
	deadline := time.Now().Add(guard)
	for outstanding() != c.Parked() || c.Busy() || outstanding() != c.Parked() {
		if time.Now().After(deadline) {
			return fmt.Errorf("engine: not idle within %v (%d operations outstanding, %d parked, busy %v)",
				guard, outstanding(), c.Parked(), c.Busy())
		}
		runtime.Gosched()
	}
	return nil
}

// Outport is a task's sending end of a connector boundary vertex
// (the generalized Foster-Chandy model, Fig. 3 of the paper). Send blocks
// until the connector fires a transition accepting the value.
type Outport struct {
	c    Coordinator
	p    ca.PortID
	name string
}

// NewOutport binds a source port to a coordinator.
func NewOutport(c Coordinator, p ca.PortID, name string) *Outport {
	return &Outport{c: c, p: p, name: name}
}

// Send offers v to the connector and blocks until accepted.
func (o *Outport) Send(v any) error { return o.c.Send(o.p, v) }

// SendBatch offers every item of vs in order, as one registered
// operation, and blocks until the last is accepted. Equivalent to
// len(vs) consecutive Send calls, minus len(vs)-1 lock acquisitions and
// handshakes. The batch is an ordered sequence of independent items, not
// an atomic group. The connector reads vs in place: do not mutate it
// until SendBatch returns.
func (o *Outport) SendBatch(vs []any) error {
	_, err := o.c.SendBatch(o.p, vs)
	return err
}

// Name returns the vertex name this outport is linked to.
func (o *Outport) Name() string { return o.name }

// ID returns the underlying port ID.
func (o *Outport) ID() ca.PortID { return o.p }

// Inport is a task's receiving end of a connector boundary vertex.
// Recv blocks until the connector fires a transition delivering a value.
type Inport struct {
	c    Coordinator
	p    ca.PortID
	name string
}

// NewInport binds a sink port to a coordinator.
func NewInport(c Coordinator, p ca.PortID, name string) *Inport {
	return &Inport{c: c, p: p, name: name}
}

// Recv blocks until the connector delivers a value.
func (i *Inport) Recv() (any, error) { return i.c.Recv(i.p) }

// RecvBatch blocks until the connector has delivered one value into
// every slot of buf, in order, as one registered operation. Returns how
// many leading slots hold delivered values: len(buf) on nil error,
// possibly fewer when the connector closed or broke mid-batch.
// Equivalent to len(buf) consecutive Recv calls, minus len(buf)-1 lock
// acquisitions and handshakes.
func (i *Inport) RecvBatch(buf []any) (int, error) { return i.c.RecvBatch(i.p, buf) }

// Name returns the vertex name this inport is linked to.
func (i *Inport) Name() string { return i.name }

// ID returns the underlying port ID.
func (i *Inport) ID() ca.PortID { return i.p }
