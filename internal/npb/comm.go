package npb

import (
	"fmt"

	reo "repro"
	"repro/internal/genlib/msfabric"
)

// Comm is the coordination fabric between a master and N slaves: the only
// synchronization and communication the parallel variants use. The Orig
// implementation is hand-written on Go channels; the Reo implementation is
// generated from a connector definition — the tasks are identical
// (§V-C: "we stripped the tasks from all synchronization and
// communication, and replaced it with (operations on) outports and
// inports").
type Comm interface {
	// SendToSlave transfers a value master -> slave i (0-based).
	SendToSlave(i int, v any) error
	// RecvFromSlave transfers a value slave i -> master.
	RecvFromSlave(i int) (any, error)
	// SlaveSend transfers a value from slave i to the master.
	SlaveSend(i int, v any) error
	// SlaveRecv receives the next master value at slave i.
	SlaveRecv(i int) (any, error)
	// SendToSlaveBatch transfers every item of vs master -> slave i as
	// one lane operation: an ordered stream of independent items, paying
	// one coordination handshake for the whole batch on the Reo fabric
	// (the Orig fabric loops over its channel). The fabric reads vs in
	// place; do not mutate it until the call returns.
	SendToSlaveBatch(i int, vs []any) error
	// RecvFromSlaveBatch fills buf with the next len(buf) values from
	// slave i, returning how many leading slots were filled (len(buf) on
	// nil error).
	RecvFromSlaveBatch(i int, buf []any) (int, error)
	// SlaveSendBatch transfers every item of vs slave i -> master as one
	// lane operation.
	SlaveSendBatch(i int, vs []any) error
	// SlaveRecvBatch fills buf with the next len(buf) master values at
	// slave i.
	SlaveRecvBatch(i int, buf []any) (int, error)
	// Close tears the fabric down.
	Close() error
	// Steps reports connector global steps (0 for Orig).
	Steps() int64
}

// DefaultBatch is the scatter/gather batching degree the NPB programs
// use: work units per slave per round, moved through the fabric with the
// batched lane operations. 1 (the default) reproduces the paper's
// one-message-per-round structure on the scalar path. Benchmark drivers
// (cmd/fig13 -batch) override it before running; it must not be mutated
// concurrently with runs.
var DefaultBatch = 1

// batchDegree clamps the configured batch against a round's work-unit
// count: a batch cannot be wider than the units available to fill it,
// but never drops below one job per slave (a slave with an empty work
// range still gets its message, as the scalar structure always did).
func batchDegree(units int) int {
	b := DefaultBatch
	if b > units {
		b = units
	}
	if b < 1 {
		b = 1
	}
	return b
}

// PipeComm extends Comm with a slave-to-slave pipeline (LU's wavefront:
// "in one of the programs, additionally, the slaves are organized in a
// pipeline structure"). The pipeline is bidirectional: SSOR's forward
// sweep flows tokens downstream, the backward sweep upstream.
type PipeComm interface {
	Comm
	// PipeSend transfers a value slave i -> slave i+1.
	PipeSend(i int, v any) error
	// PipeRecv receives at slave i the value sent by slave i-1.
	PipeRecv(i int) (any, error)
	// PipeSendUp transfers a value slave i -> slave i-1.
	PipeSendUp(i int, v any) error
	// PipeRecvUp receives at slave i the value sent by slave i+1.
	PipeRecvUp(i int) (any, error)
}

// --- hand-written channel implementation ---------------------------------

type chanComm struct {
	toSlave   []chan any
	toMaster  []chan any
	pipe      []chan any // pipe[i]: slave i -> slave i+1
	pipeUp    []chan any // pipeUp[i]: slave i+1 -> slave i
	closed    chan struct{}
	closeOnce func()
}

// NewChanComm builds the Orig fabric: one buffered channel per direction
// per slave (the Foster-Chandy channels of the original programs).
func NewChanComm(n int, withPipe bool) PipeComm {
	c := &chanComm{
		toSlave:  make([]chan any, n),
		toMaster: make([]chan any, n),
		closed:   make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		c.toSlave[i] = make(chan any, 1)
		c.toMaster[i] = make(chan any, 1)
	}
	if withPipe {
		c.pipe = make([]chan any, n)
		c.pipeUp = make([]chan any, n)
		for i := range c.pipe {
			c.pipe[i] = make(chan any, 1)
			c.pipeUp[i] = make(chan any, 1)
		}
	}
	var once bool
	c.closeOnce = func() {
		if !once {
			once = true
			close(c.closed)
		}
	}
	return c
}

func (c *chanComm) send(ch chan any, v any) error {
	select {
	case ch <- v:
		return nil
	case <-c.closed:
		return fmt.Errorf("npb: comm closed")
	}
}

func (c *chanComm) recv(ch chan any) (any, error) {
	select {
	case v := <-ch:
		return v, nil
	case <-c.closed:
		return nil, fmt.Errorf("npb: comm closed")
	}
}

// sendBatch loops the hand-written channel send: the Orig fabric has no
// cheaper bulk primitive, which is exactly the asymmetry the batched
// benchmarks measure.
func (c *chanComm) sendBatch(ch chan any, vs []any) error {
	for _, v := range vs {
		if err := c.send(ch, v); err != nil {
			return err
		}
	}
	return nil
}

func (c *chanComm) recvBatch(ch chan any, buf []any) (int, error) {
	for i := range buf {
		v, err := c.recv(ch)
		if err != nil {
			return i, err
		}
		buf[i] = v
	}
	return len(buf), nil
}

func (c *chanComm) SendToSlave(i int, v any) error   { return c.send(c.toSlave[i], v) }
func (c *chanComm) RecvFromSlave(i int) (any, error) { return c.recv(c.toMaster[i]) }
func (c *chanComm) SlaveSend(i int, v any) error     { return c.send(c.toMaster[i], v) }
func (c *chanComm) SlaveRecv(i int) (any, error)     { return c.recv(c.toSlave[i]) }

func (c *chanComm) SendToSlaveBatch(i int, vs []any) error { return c.sendBatch(c.toSlave[i], vs) }
func (c *chanComm) RecvFromSlaveBatch(i int, buf []any) (int, error) {
	return c.recvBatch(c.toMaster[i], buf)
}
func (c *chanComm) SlaveSendBatch(i int, vs []any) error { return c.sendBatch(c.toMaster[i], vs) }
func (c *chanComm) SlaveRecvBatch(i int, buf []any) (int, error) {
	return c.recvBatch(c.toSlave[i], buf)
}
func (c *chanComm) PipeSend(i int, v any) error   { return c.send(c.pipe[i], v) }
func (c *chanComm) PipeRecv(i int) (any, error)   { return c.recv(c.pipe[i-1]) }
func (c *chanComm) PipeSendUp(i int, v any) error { return c.send(c.pipeUp[i-1], v) }
func (c *chanComm) PipeRecvUp(i int) (any, error) { return c.recv(c.pipeUp[i]) }
func (c *chanComm) Steps() int64                  { return 0 }
func (c *chanComm) Close() error                  { c.closeOnce(); return nil }

// --- Reo connector implementation -----------------------------------------

// masterSlavesSrc is the scatter/gather connector: a Fifo1 lane per
// direction per slave, exactly the communication structure of the
// channel fabric, but generated from a protocol definition.
const masterSlavesSrc = `
MasterSlaves(mo[],so[];si[],mi[]) =
    prod (i:1..#mo) Fifo1(mo[i];si[i])
    mult prod (i:1..#so) Fifo1(so[i];mi[i])
`

// masterSlavesPipeSrc adds the bidirectional slave pipeline for LU:
// po/pi are the downstream lanes (slave i to i+1), qo/qi the upstream
// lanes (slave i+1 to i).
const masterSlavesPipeSrc = `
MasterSlavesPipe(mo[],so[],po[],qo[];si[],mi[],pi[],qi[]) =
    prod (i:1..#mo) Fifo1(mo[i];si[i])
    mult prod (i:1..#so) Fifo1(so[i];mi[i])
    mult prod (i:1..#po) Fifo1(po[i];pi[i])
    mult prod (i:1..#qo) Fifo1(qo[i];qi[i])
`

var (
	msProg   = reo.MustCompile(masterSlavesSrc)
	msPPProg = reo.MustCompile(masterSlavesPipeSrc)
)

// ConnectorSources exposes the NPB connector definitions as corpus
// seeds for the compiler fuzz targets.
func ConnectorSources() []string {
	return []string{masterSlavesSrc, masterSlavesPipeSrc}
}

type reoComm struct {
	inst *reo.Instance
	mo   []reo.Outport
	mi   []reo.Inport
	so   []reo.Outport
	si   []reo.Inport
	po   []reo.Outport
	pi   []reo.Inport
	qo   []reo.Outport
	qi   []reo.Inport
}

// ReoCommOptions configure the generated connector's engine (mode,
// partitioning, expansion rule) — the knobs of experiments E4/E5.
type ReoCommOptions struct {
	Opts []reo.ConnectOption
	// GenOpts configure the Gen variant's runtime (seed, worker pool);
	// the interpreted knobs in Opts do not apply there because the
	// generated fabric always runs region-partitioned.
	GenOpts []msfabric.Option
}

// DefaultReoOptions is the engine configuration the programs' Reo
// variants use. Benchmark drivers (cmd/fig13 -partition, E5) override it
// before running; it must not be mutated concurrently with runs.
var DefaultReoOptions ReoCommOptions

// NewReoComm builds the Reo fabric for n slaves.
func NewReoComm(n int, withPipe bool, rc ReoCommOptions) (PipeComm, error) {
	var conn *reo.Connector
	var lengths map[string]int
	var err error
	if withPipe {
		conn, err = msPPProg.Connector("MasterSlavesPipe")
		np := n - 1
		if np < 1 {
			np = 1 // a single-slave pipeline still needs a (unused) lane
		}
		lengths = map[string]int{"mo": n, "so": n, "si": n, "mi": n,
			"po": np, "pi": np, "qo": np, "qi": np}
	} else {
		conn, err = msProg.Connector("MasterSlaves")
		lengths = map[string]int{"mo": n, "so": n, "si": n, "mi": n}
	}
	if err != nil {
		return nil, err
	}
	inst, err := conn.Connect(lengths, rc.Opts...)
	if err != nil {
		return nil, err
	}
	c := &reoComm{
		inst: inst,
		mo:   inst.Outports("mo"),
		mi:   inst.Inports("mi"),
		so:   inst.Outports("so"),
		si:   inst.Inports("si"),
	}
	if withPipe {
		c.po = inst.Outports("po")
		c.pi = inst.Inports("pi")
		c.qo = inst.Outports("qo")
		c.qi = inst.Inports("qi")
	}
	return c, nil
}

func (c *reoComm) SendToSlave(i int, v any) error   { return c.mo[i].Send(v) }
func (c *reoComm) RecvFromSlave(i int) (any, error) { return c.mi[i].Recv() }
func (c *reoComm) SlaveSend(i int, v any) error     { return c.so[i].Send(v) }
func (c *reoComm) SlaveRecv(i int) (any, error)     { return c.si[i].Recv() }

func (c *reoComm) SendToSlaveBatch(i int, vs []any) error { return c.mo[i].SendBatch(vs) }
func (c *reoComm) RecvFromSlaveBatch(i int, buf []any) (int, error) {
	return c.mi[i].RecvBatch(buf)
}
func (c *reoComm) SlaveSendBatch(i int, vs []any) error { return c.so[i].SendBatch(vs) }
func (c *reoComm) SlaveRecvBatch(i int, buf []any) (int, error) {
	return c.si[i].RecvBatch(buf)
}
func (c *reoComm) PipeSend(i int, v any) error   { return c.po[i].Send(v) }
func (c *reoComm) PipeRecv(i int) (any, error)   { return c.pi[i-1].Recv() }
func (c *reoComm) PipeSendUp(i int, v any) error { return c.qo[i-1].Send(v) }
func (c *reoComm) PipeRecvUp(i int) (any, error) { return c.qi[i].Recv() }
func (c *reoComm) Steps() int64                  { return c.inst.Steps() }
func (c *reoComm) Close() error                  { return c.inst.Close() }

// --- generated (static per-region code) implementation --------------------

// genComm runs the MasterSlaves scatter/gather structure on the
// generated backend: internal/genlib/msfabric holds the statically
// emitted per-region code (`reoc gen` output over the same
// connector text as masterSlavesSrc), and New(n) instantiates it at the
// requested slave count — no per-N expansion, no interpretation of the
// hot dispatch.
type genComm struct {
	inst           *msfabric.Instance
	mo, mi, so, si []string
}

// NewGenComm builds the generated fabric for n slaves. The msfabric
// package has no slave pipeline, so withPipe (LU's wavefront) requires
// the interpreted Reo variant.
func NewGenComm(n int, withPipe bool, rc ReoCommOptions) (PipeComm, error) {
	if withPipe {
		return nil, fmt.Errorf("npb: the generated fabric has no slave pipeline; run LU on the reo variant")
	}
	inst, err := msfabric.New(n, rc.GenOpts...)
	if err != nil {
		return nil, err
	}
	return &genComm{
		inst: inst,
		mo:   inst.Ports("mo"),
		mi:   inst.Ports("mi"),
		so:   inst.Ports("so"),
		si:   inst.Ports("si"),
	}, nil
}

func (c *genComm) SendToSlave(i int, v any) error   { return c.inst.Send(c.mo[i], v) }
func (c *genComm) RecvFromSlave(i int) (any, error) { return c.inst.Recv(c.mi[i]) }
func (c *genComm) SlaveSend(i int, v any) error     { return c.inst.Send(c.so[i], v) }
func (c *genComm) SlaveRecv(i int) (any, error)     { return c.inst.Recv(c.si[i]) }

func (c *genComm) SendToSlaveBatch(i int, vs []any) error {
	_, err := c.inst.SendBatch(c.mo[i], vs)
	return err
}
func (c *genComm) RecvFromSlaveBatch(i int, buf []any) (int, error) {
	return c.inst.RecvBatch(c.mi[i], buf)
}
func (c *genComm) SlaveSendBatch(i int, vs []any) error {
	_, err := c.inst.SendBatch(c.so[i], vs)
	return err
}
func (c *genComm) SlaveRecvBatch(i int, buf []any) (int, error) {
	return c.inst.RecvBatch(c.si[i], buf)
}
func (c *genComm) PipeSend(i int, v any) error {
	return fmt.Errorf("npb: generated fabric has no pipeline")
}
func (c *genComm) PipeRecv(i int) (any, error) {
	return nil, fmt.Errorf("npb: generated fabric has no pipeline")
}
func (c *genComm) PipeSendUp(i int, v any) error {
	return fmt.Errorf("npb: generated fabric has no pipeline")
}
func (c *genComm) PipeRecvUp(i int) (any, error) {
	return nil, fmt.Errorf("npb: generated fabric has no pipeline")
}
func (c *genComm) Steps() int64 { return c.inst.Steps() }
func (c *genComm) Close() error { return c.inst.Close() }

// NewComm builds the fabric for a variant.
func NewComm(variant Variant, n int, withPipe bool, rc ReoCommOptions) (PipeComm, error) {
	switch variant {
	case Orig:
		return NewChanComm(n, withPipe), nil
	case Reo:
		return NewReoComm(n, withPipe, rc)
	case Gen:
		return NewGenComm(n, withPipe, rc)
	}
	return nil, fmt.Errorf("npb: variant %v has no comm", variant)
}

// runMasterSlaves is the shared parallel skeleton: it spawns the master
// and n slaves as goroutines over the fabric and waits for completion.
func runMasterSlaves(variant Variant, n int, withPipe bool, rc ReoCommOptions,
	master func(c Comm) error, slave func(c PipeComm, i int) error) (int64, error) {

	comm, err := NewComm(variant, n, withPipe, rc)
	if err != nil {
		return 0, err
	}
	errc := make(chan error, n+1)
	go func() { errc <- master(comm) }()
	for i := 0; i < n; i++ {
		go func(i int) { errc <- slave(comm, i) }(i)
	}
	var firstErr error
	for i := 0; i < n+1; i++ {
		if err := <-errc; err != nil && firstErr == nil {
			firstErr = err
			comm.Close() // unblock the other tasks
		}
	}
	steps := comm.Steps()
	comm.Close()
	return steps, firstErr
}
