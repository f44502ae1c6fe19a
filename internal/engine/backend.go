package engine

import (
	"fmt"

	"repro/internal/ca"
)

// Backend is the minimal runtime contract shared by the interpreted
// engine and the packages emitted by `reoc gen`: a connector instance
// addressed by boundary vertex *names* rather than ca.PortID, so that
// drivers need nothing but stdlib types to talk to either.
//
// Code written against Backend (the differential harness, the
// generated-vs-interpreted benchmarks, examples) runs unchanged on
// either backend: obtain one from reo.Instance.Backend() for the
// interpreted engine, or from a generated package's New().
type Backend interface {
	// Send offers v on the named boundary source vertex and blocks until
	// a transition accepts it (Outport.Send semantics).
	Send(port string, v any) error
	// Recv blocks until a transition delivers a value on the named
	// boundary sink vertex (Inport.Recv semantics).
	Recv(port string) (any, error)
	// SendBatch and RecvBatch are the batched counterparts: one
	// registered operation per call, items moved one transition firing
	// at a time, the count of moved items returned (short only on
	// error). See Coordinator.
	SendBatch(port string, vs []any) (int, error)
	RecvBatch(port string, buf []any) (int, error)
	// Ports returns the boundary vertex names bound to a connector
	// parameter, in array order (one name for scalar parameters, nil for
	// unknown parameters).
	Ports(param string) []string
	Close() error
	// Steps, GuardEvals, Parked and Busy mirror the Coordinator
	// methods of the same names.
	Steps() int64
	GuardEvals() int64
	Parked() int64
	Busy() bool
}

// Named adapts a Coordinator to the Backend interface: it routes
// name-addressed operations to ca.PortID-addressed ones through a fixed
// name table. The reo package constructs one per Instance.
type Named struct {
	c Coordinator
	// ports maps vertex name -> port ID via the closed-over resolver;
	// params maps parameter name -> vertex names in array order.
	ports  map[string]portRef
	params map[string][]string
}

type portRef struct {
	id     int32
	source bool
}

// NewNamed builds the adapter. sources and sinks map parameter names to
// (vertex name, port ID) pairs in array order; a vertex name must be
// unique across both.
func NewNamed(c Coordinator, sources, sinks map[string][]NamedPort) *Named {
	n := &Named{
		c:      c,
		ports:  make(map[string]portRef),
		params: make(map[string][]string),
	}
	for param, ps := range sources {
		for _, p := range ps {
			n.ports[p.Name] = portRef{id: int32(p.ID), source: true}
			n.params[param] = append(n.params[param], p.Name)
		}
	}
	for param, ps := range sinks {
		for _, p := range ps {
			n.ports[p.Name] = portRef{id: int32(p.ID)}
			n.params[param] = append(n.params[param], p.Name)
		}
	}
	return n
}

// NamedPort is one boundary vertex entry of a NewNamed table.
type NamedPort struct {
	Name string
	ID   int32
}

// NamedPorts builds one side of a NewNamed table from an assembly's
// parameter → ports map (compile.Assembly's Tails or Heads).
func NamedPorts(u *ca.Universe, side map[string][]ca.PortID) map[string][]NamedPort {
	out := make(map[string][]NamedPort, len(side))
	for param, ports := range side {
		for _, p := range ports {
			out[param] = append(out[param], NamedPort{Name: u.Name(p), ID: int32(p)})
		}
	}
	return out
}

func (n *Named) resolve(port string, source bool) (ca.PortID, error) {
	r, ok := n.ports[port]
	if !ok {
		return 0, fmt.Errorf("engine: unknown boundary vertex %q", port)
	}
	if r.source != source {
		if source {
			return 0, fmt.Errorf("engine: send on non-source vertex %q", port)
		}
		return 0, fmt.Errorf("engine: recv on non-sink vertex %q", port)
	}
	return ca.PortID(r.id), nil
}

// Send implements Backend.
func (n *Named) Send(port string, v any) error {
	p, err := n.resolve(port, true)
	if err != nil {
		return err
	}
	return n.c.Send(p, v)
}

// Recv implements Backend.
func (n *Named) Recv(port string) (any, error) {
	p, err := n.resolve(port, false)
	if err != nil {
		return nil, err
	}
	return n.c.Recv(p)
}

// SendBatch implements Backend.
func (n *Named) SendBatch(port string, vs []any) (int, error) {
	p, err := n.resolve(port, true)
	if err != nil {
		return 0, err
	}
	return n.c.SendBatch(p, vs)
}

// RecvBatch implements Backend.
func (n *Named) RecvBatch(port string, buf []any) (int, error) {
	p, err := n.resolve(port, false)
	if err != nil {
		return 0, err
	}
	return n.c.RecvBatch(p, buf)
}

// Ports implements Backend. The slice is a copy, as with the generated
// runtime's Ports: callers may reorder or truncate it freely.
func (n *Named) Ports(param string) []string {
	return append([]string(nil), n.params[param]...)
}

// Close implements Backend.
func (n *Named) Close() error { return n.c.Close() }

// Steps implements Backend.
func (n *Named) Steps() int64 { return n.c.Steps() }

// GuardEvals implements Backend.
func (n *Named) GuardEvals() int64 { return n.c.GuardEvals() }

// Parked implements Backend.
func (n *Named) Parked() int64 { return n.c.Parked() }

// Busy implements Backend.
func (n *Named) Busy() bool { return n.c.Busy() }

var _ Backend = (*Named)(nil)
