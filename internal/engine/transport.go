package engine

import (
	"errors"

	"repro/internal/ca"
)

// This file abstracts the region-link boundary behind a Transport: the
// construction-time hook that decides what backs each planned link. The
// in-process SPSC queue (memTransport) is the default and costs nothing
// on the hot path — the interface is consulted only while the Multi is
// built. A network transport (tcp.go) instead backs each cut link with
// a *pair* of half links, one per process, and moves committed bursts
// between them as framed batch messages.
//
// A half link is an ordinary *link whose far-side engine pointer is nil:
// the engine keeps pushing/popping it under its own lock exactly as
// in-process, and where it would nudge the missing neighbor it raises
// the link's signal instead (fireLinks), waking the peer's outbound path
// that services the queue. The transport side of a half link obeys the
// same SPSC discipline the two engines would: on a producer-local half
// the engine is the only pusher and the transport the only popper; on a
// consumer-local half the transport is the only pusher and the engine
// the only popper.

// ErrLinkBroken reports that a distributed region link failed — the peer
// connection dropped, a frame arrived out of sequence, or the remote
// node reported a protocol violation. It breaks every local region, so
// pending and future operations fail wrapping this sentinel.
var ErrLinkBroken = errors.New("engine: remote region link broken")

// Transport backs the links of one region-partitioned coordinator.
// Bind is called once per planned link during construction; Start once
// after every local region engine is built (network transports connect
// their peers and launch their goroutines there); Close once from
// Multi.Close, after the local engines are closed.
type Transport interface {
	// Bind allocates the queue(s) behind planned link li. prodLocal and
	// consLocal report which sides run in this process; at least one is
	// true. The returned prod link is the producer-side endpoint to
	// register at the source region's accept port (nil when the producer
	// is remote), and cons the consumer-side endpoint for the target
	// region's emit port (nil when the consumer is remote). An
	// in-process transport returns the same queue twice. Bind also
	// applies the spec's Fifo1Full seeding.
	Bind(li int, spec ca.RegionLink, prodLocal, consLocal bool) (prod, cons *link, err error)
	// Start is called once, after the local engines are built and every
	// endpoint is registered, with the owning coordinator. It must not
	// block on traffic, but may block while connecting peers.
	Start(m *Multi) error
	// Close tears the transport down: peers are notified, connections
	// closed, goroutines joined. Called after the local engines are
	// closed; idempotent.
	Close() error
}

// Placement assigns the regions of a plan across processes: Hosted[ri]
// reports whether region ri runs in this process, and Transport backs
// the links Hosted splits. A nil Hosted hosts everything locally.
type Placement struct {
	Hosted    []bool
	Transport Transport
}

// memTransport is the in-process default: every link is one shared SPSC
// queue, both endpoints in this process — byte-for-byte the pre-Transport
// behavior.
type memTransport struct{}

func (memTransport) Bind(_ int, spec ca.RegionLink, prodLocal, consLocal bool) (*link, *link, error) {
	if !prodLocal || !consLocal {
		return nil, nil, errors.New("engine: in-process transport cannot back a remote link")
	}
	l := newLink(spec.Capacity)
	seedLink(l, spec)
	return l, l, nil
}

func (memTransport) Start(*Multi) error { return nil }
func (memTransport) Close() error       { return nil }

// seedLink applies the plan's Fifo1Full seeding. Pre-publication: the
// link is not shared yet, so the plain slot write followed by the tail
// store is safe.
func seedLink(l *link, spec ca.RegionLink) {
	if spec.Full {
		l.buf[0] = spec.Initial
		l.tail.Store(1)
	}
}

// noteSignal records that a fire changed the queue state of half link l,
// whose far side is serviced by a peer's outbound path rather than a
// sibling engine; the path must be signaled once this engine's commits
// are published. Called with mu held; deduplicated per peer.
func (e *Engine) noteSignal(l *link) {
	if l.signal == nil {
		return
	}
	for _, x := range e.outSignals {
		if x.signal == l.signal {
			return
		}
	}
	e.outSignals = append(e.outSignals, l)
}

// flushSignals raises the signal of every peer whose half links this
// engine's fires touched. Called with mu held, after fireLoop returned —
// every deferred commit is published by then, so the outbound scan a
// raise leads to always observes the queue state that prompted it. A
// raise never blocks the engine, and a scan that missed intermediate
// raises re-checks the counters anyway.
func (e *Engine) flushSignals() {
	for i, l := range e.outSignals {
		l.signal.raise()
		e.outSignals[i] = nil
	}
	e.outSignals = e.outSignals[:0]
}

// pumpNudge wakes the engine on behalf of a connection reader: a network
// read pushed items into one of its half links, or an ack freed slots in
// one. The runtime path posts a scheduler wake; the synchronous path
// runs the fire pass inline on the reader's goroutine and drains the
// nudges it produces, exactly as a neighboring region would.
func (e *Engine) pumpNudge() {
	e.mu.Lock()
	if e.closed || e.broken != nil {
		e.mu.Unlock()
		return
	}
	if rt := e.sched; rt != nil {
		e.mu.Unlock()
		rt.wake(e)
		return
	}
	e.pass()
	e.flushSignals()
	e.walk()
}
