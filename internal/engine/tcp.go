package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ca"
	"repro/internal/wire"
)

// This file is the network Transport: region links cut across processes,
// carried over TCP as framed batch messages (internal/wire). The design
// maps the in-process link protocol 1:1 onto the wire:
//
//   - A producer-local half link is a *mirror* of the planned queue. The
//     region engine pushes into it exactly as in-process; the peer's
//     outbound path transmits every committed value as Data but does NOT
//     pop — slots are freed only when the peer's Ack arrives. The
//     mirror's occupancy is therefore the end-to-end in-flight count, so
//     the producer region observes precisely the planned capacity: no
//     hidden buffering, and the connector's choice behavior (which fires
//     are enabled when) matches the single-process run bit for bit.
//
//   - A consumer-local half link is the real queue. The connection
//     reader pushes arriving bursts (the credit invariant above
//     guarantees space); the region engine pops as in-process; the
//     outbound path reports cumulative pops as Acks, retiring the
//     producer's mirror slots.
//
// All sequence numbers are absolute value counts from the start of the
// run, Fifo1Full seeds included; the seed itself is pre-loaded on both
// sides and never transmitted.
//
// Each peer has one outbound path: a mutex-guarded scan of every half
// link shared with the peer that encodes what is ready into one byte
// queue. Two goroutines per peer drain it. The connection reader, once
// it has applied every whole frame it holds, sends what its own fires
// made ready with one non-blocking write — on the steady round trip no
// other goroutine wakes. The writer takes what the socket did not
// accept, every wake raised by a task goroutine or a runtime worker,
// and the control frames (Error, Close), and writes blocking, outside
// the mutex.

// TCPConfig wires one node of a distributed region plan.
type TCPConfig struct {
	// Node is this process's name in Nodes.
	Node string
	// Nodes maps node names to their listen addresses ("host:port").
	// Every node of the plan must appear.
	Nodes map[string]string
	// RegionNode assigns each plan region to a node name (plan-aligned,
	// consistent across all nodes).
	RegionNode []string
	// Listener, when non-nil, is used instead of listening on
	// Nodes[Node] — tests pass a 127.0.0.1:0 listener and read the
	// assigned port back.
	Listener net.Listener
	// Identity is the plan checksum (wire.IdentitySum over the connector
	// identity) exchanged and verified in the handshake.
	Identity uint64
	// DialTimeout bounds connection establishment per peer, retries
	// included (default 10s).
	DialTimeout time.Duration
}

// tcpPeer is one connected neighbor node: its conn and its outbound
// path. dataLinks, ackLinks, raw and rawWrite are assigned in Start
// before any goroutine launches and are read-only afterwards.
type tcpPeer struct {
	name string
	conn net.Conn
	// dataLinks are the producer-local halves whose committed values this
	// peer consumes; concurrent bursts of several of them multiplex into
	// DataBatch frames. ackLinks are the consumer-local halves whose pops
	// this peer's mirrors wait on; their head advances coalesce into
	// AckBatch frames.
	dataLinks []*tcpLink
	ackLinks  []*tcpLink
	// raw is the socket under conn, nil when conn is not a syscall.Conn:
	// the reader then sends nothing itself. rawWrite, bound once, is the
	// non-blocking write(2) of q it hands to raw.Write.
	raw      syscall.RawConn
	rawWrite func(fd uintptr) bool
	rawN     int
	rawErr   error
	// inline is set while the reader applies frames it will answer
	// itself; raise then leaves the writer asleep (see sendInline).
	inline atomic.Bool
	// wake is the writer's one-slot coalescing wake-up.
	wake chan struct{}

	// mu guards the outbound state below and the links' sent/ackSent.
	mu sync.Mutex
	// f is the scratch frame collect encodes from.
	f wire.Frame
	// q holds encoded bytes no write has taken yet, in wire order.
	q outQueue
	// busy is set while the writer writes bytes it took from q outside
	// mu; nothing else writes then, so bytes never reorder.
	busy bool
	// closing asks the writer for its last flush and the Close frame.
	// dead means no byte will be written any more: the Close frame is
	// out, or the outbound path failed.
	closing, dead bool
}

// outQueue is an io.Writer appending to a byte slice, so wire.WriteFrame
// encodes straight into a peer's queue.
type outQueue []byte

func (q *outQueue) Write(b []byte) (int, error) {
	*q = append(*q, b...)
	return len(b), nil
}

// tcpLink is one half link: the local queue endpoint plus the counters
// of what the peer has been told about it.
type tcpLink struct {
	li   int
	spec ca.RegionLink
	l    *link
	peer string
	// prodLocal: the local engine produces; the link is the sender mirror
	// and the outbound path transmits Data (sent = absolute count
	// transmitted). Otherwise the local engine consumes; the link is the
	// real queue and the outbound path transmits Acks (ackSent = last
	// cumulative pop count reported). Both are guarded by the peer's mu.
	prodLocal bool
	sent      int64
	ackSent   int64
}

// TCPTransport implements Transport over per-node-pair TCP connections.
type TCPTransport struct {
	cfg    TCPConfig
	half   []*tcpLink
	byLink map[int]*tcpLink
	// peerMu guards peers during Start only (the dial loop and the
	// accept goroutine register concurrently); the map is read-only
	// once Start returns.
	peerMu sync.Mutex
	peers  map[string]*tcpPeer
	m      *Multi
	ln     net.Listener

	closed    chan struct{}
	closeOnce sync.Once
	failOnce  sync.Once
	writerWG  sync.WaitGroup
	readerWG  sync.WaitGroup
}

// NewTCPTransport returns a transport for one node of the plan. Nothing
// connects until Start.
func NewTCPTransport(cfg TCPConfig) *TCPTransport {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	return &TCPTransport{
		cfg:    cfg,
		byLink: make(map[int]*tcpLink),
		peers:  make(map[string]*tcpPeer),
		closed: make(chan struct{}),
	}
}

// Bind implements Transport. Both-local links get a plain shared queue;
// cut links get a seeded half link that Start attaches to its peer.
func (t *TCPTransport) Bind(li int, spec ca.RegionLink, prodLocal, consLocal bool) (*link, *link, error) {
	if prodLocal && consLocal {
		l := newLink(spec.Capacity)
		seedLink(l, spec)
		return l, l, nil
	}
	if spec.From >= len(t.cfg.RegionNode) || spec.To >= len(t.cfg.RegionNode) {
		return nil, nil, fmt.Errorf("engine: link %d joins region beyond the node assignment", li)
	}
	l := newLink(spec.Capacity)
	seedLink(l, spec)
	// The signal stays nil until Start knows the peers; no engine fires
	// before Start returns.
	tl := &tcpLink{li: li, spec: spec, l: l, prodLocal: prodLocal}
	// The absolute counters start past the seed: it is pre-loaded on
	// both sides and never crosses the wire.
	tl.sent = l.tail.Load()
	if prodLocal {
		tl.peer = t.cfg.RegionNode[spec.To]
	} else {
		tl.peer = t.cfg.RegionNode[spec.From]
	}
	if tl.peer == t.cfg.Node {
		return nil, nil, fmt.Errorf("engine: link %d cut but both regions assigned to node %q", li, tl.peer)
	}
	if _, ok := t.cfg.Nodes[tl.peer]; !ok {
		return nil, nil, fmt.Errorf("engine: link %d peers with unknown node %q", li, tl.peer)
	}
	t.half = append(t.half, tl)
	t.byLink[li] = tl
	if prodLocal {
		return l, nil, nil
	}
	return nil, l, nil
}

// Start implements Transport: listen, connect every peer (smaller node
// name dials, with capped-backoff retry; both directions handshake),
// then launch each peer's reader and writer goroutines.
func (t *TCPTransport) Start(m *Multi) error {
	t.m = m
	if len(t.half) == 0 {
		return nil
	}
	var dialNames, acceptNames []string
	seen := map[string]bool{}
	for _, tl := range t.half {
		if seen[tl.peer] {
			continue
		}
		seen[tl.peer] = true
		if t.cfg.Node < tl.peer {
			dialNames = append(dialNames, tl.peer)
		} else {
			acceptNames = append(acceptNames, tl.peer)
		}
	}
	sort.Strings(dialNames)

	if len(acceptNames) > 0 {
		t.ln = t.cfg.Listener
		if t.ln == nil {
			addr, ok := t.cfg.Nodes[t.cfg.Node]
			if !ok {
				return fmt.Errorf("engine: node %q has no listen address", t.cfg.Node)
			}
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				return fmt.Errorf("engine: listen %s: %w", addr, err)
			}
			t.ln = ln
		}
	}

	// Accept concurrently with dialing: with three or more nodes a peer
	// may be mid-dial to its own peers while we dial it, so serializing
	// accepts after dials could deadlock the fleet.
	accepted := make(chan error, 1)
	go func() { accepted <- t.acceptPeers(acceptNames) }()
	dialErr := t.dialPeers(dialNames)
	acceptErr := <-accepted
	if dialErr != nil || acceptErr != nil {
		t.teardownConns()
		if dialErr != nil {
			return dialErr
		}
		return acceptErr
	}

	// onBreak: a local region failure must break the peers' regions
	// too, not just the local siblings.
	m.group.onBreak = func(err error) {
		for _, p := range t.peers {
			p.mu.Lock()
			if !p.dead {
				wire.WriteFrame(&p.q, &wire.Frame{Type: wire.FrameError, Err: err.Error()})
			}
			p.mu.Unlock()
			p.wakeWriter()
		}
	}

	// Attach every half link to its peer's outbound path, and the peer
	// to its socket. Must happen before any reader launches: a reader's
	// pumpNudge can fire an engine, whose flushSignals raises link.signal.
	for _, tl := range t.half {
		p := t.peers[tl.peer]
		tl.l.signal = p
		if tl.prodLocal {
			p.dataLinks = append(p.dataLinks, tl)
		} else {
			p.ackLinks = append(p.ackLinks, tl)
		}
	}
	for _, p := range t.peers {
		// Windows sockets are not non-blocking descriptors: there the
		// writer sends everything.
		if sc, ok := p.conn.(syscall.Conn); ok && runtime.GOOS != "windows" {
			if raw, err := sc.SyscallConn(); err == nil {
				p.raw, p.rawWrite = raw, p.writeRaw
			}
		}
		t.writerWG.Add(1)
		go t.writer(p)
		t.readerWG.Add(1)
		go t.reader(p)
	}
	return nil
}

func (t *TCPTransport) dialPeers(names []string) error {
	for _, name := range names {
		addr := t.cfg.Nodes[name]
		deadline := time.Now().Add(t.cfg.DialTimeout)
		backoff := 50 * time.Millisecond
		var conn net.Conn
		var lastErr error
		for attempts := 0; ; {
			// The deadline may have elapsed mid-backoff; a zero or
			// negative remaining timeout would make DialTimeout dial
			// WITHOUT a deadline, hanging the whole Start on a black-holed
			// peer. Fail fast instead.
			remaining := time.Until(deadline)
			if remaining <= 0 {
				if lastErr == nil {
					lastErr = errors.New("deadline elapsed before the first attempt")
				}
				return fmt.Errorf("engine: dial %s (%s): deadline exceeded after %d attempts: %w", name, addr, attempts, lastErr)
			}
			c, err := net.DialTimeout("tcp", addr, remaining)
			attempts++
			if err == nil {
				conn = c
				break
			}
			lastErr = err
			if time.Now().Add(backoff).After(deadline) {
				return fmt.Errorf("engine: dial %s (%s): deadline exceeded after %d attempts: %w", name, addr, attempts, err)
			}
			// The peer may simply not be up yet: retry with capped
			// exponential backoff until the deadline.
			time.Sleep(backoff)
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
		if err := t.handshake(conn, name, true); err != nil {
			conn.Close()
			return err
		}
	}
	return nil
}

func (t *TCPTransport) acceptPeers(names []string) error {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	for len(want) > 0 {
		conn, err := t.ln.Accept()
		if err != nil {
			return fmt.Errorf("engine: accept: %w", err)
		}
		if err := t.handshake(conn, "", false); err != nil {
			conn.Close()
			return err
		}
		// handshake registered the peer under its announced name.
		t.peerMu.Lock()
		for n := range want {
			if _, ok := t.peers[n]; ok {
				delete(want, n)
			}
		}
		t.peerMu.Unlock()
	}
	return nil
}

// handshake exchanges Hello frames: the dialer speaks first, the
// acceptor answers. Both verify the identity checksum; the dialer also
// pins the peer name it dialed, the acceptor just requires a name it
// knows.
func (t *TCPTransport) handshake(conn net.Conn, expect string, dialer bool) error {
	conn.SetDeadline(time.Now().Add(t.cfg.DialTimeout))
	defer conn.SetDeadline(time.Time{})
	hello := &wire.Frame{Type: wire.FrameHello, Node: t.cfg.Node, Sum: t.cfg.Identity}
	recv := func() (*wire.Frame, error) {
		f, err := wire.ReadFrame(conn)
		if err != nil {
			return nil, fmt.Errorf("engine: handshake read: %w", err)
		}
		if f.Type == wire.FrameError {
			// The peer refused us and said why; report its reason, not EOF.
			return nil, fmt.Errorf("engine: peer refused connection: %s", f.Err)
		}
		if f.Type != wire.FrameHello {
			return nil, fmt.Errorf("engine: handshake got frame type %d, want hello", f.Type)
		}
		if f.Sum != t.cfg.Identity {
			err := fmt.Errorf("engine: identity mismatch with %q: theirs %#x, ours %#x (different program, seed, or partitioning?)", f.Node, f.Sum, t.cfg.Identity)
			// Tell the peer before hanging up, so both sides report the
			// mismatch instead of one seeing a bare EOF.
			wire.WriteFrame(conn, &wire.Frame{Type: wire.FrameError, Err: err.Error()})
			return nil, err
		}
		return f, nil
	}
	var peerName string
	if dialer {
		if err := wire.WriteFrame(conn, hello); err != nil {
			return fmt.Errorf("engine: handshake write: %w", err)
		}
		f, err := recv()
		if err != nil {
			return err
		}
		if f.Node != expect {
			return fmt.Errorf("engine: dialed %q but %q answered", expect, f.Node)
		}
		peerName = f.Node
	} else {
		f, err := recv()
		if err != nil {
			return err
		}
		if _, ok := t.cfg.Nodes[f.Node]; !ok {
			return fmt.Errorf("engine: hello from unknown node %q", f.Node)
		}
		if err := wire.WriteFrame(conn, hello); err != nil {
			return fmt.Errorf("engine: handshake write: %w", err)
		}
		peerName = f.Node
	}
	t.peerMu.Lock()
	defer t.peerMu.Unlock()
	if _, dup := t.peers[peerName]; dup {
		return fmt.Errorf("engine: duplicate connection from %q", peerName)
	}
	t.peers[peerName] = &tcpPeer{name: peerName, conn: conn, wake: make(chan struct{}, 1)}
	return nil
}

func (t *TCPTransport) teardownConns() {
	for _, p := range t.peers {
		p.conn.Close()
	}
	if t.ln != nil && t.ln != t.cfg.Listener {
		t.ln.Close()
	}
}

// raise is link.signal: an engine published commits on a half link this
// peer services. While the reader is in an inline window it will scan
// before it reads again, so the writer stays asleep; otherwise the writer
// wakes. Lock-free, so engines may raise it with their lock held.
func (p *tcpPeer) raise() {
	if !p.inline.Load() {
		p.wakeWriter()
	}
}

func (p *tcpPeer) wakeWriter() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// collect encodes into q what the serviced links made ready since the
// last scan: the fresh values of every mirror as one Data or DataBatch
// frame, then the fresh pops of every queue as one Ack or AckBatch
// frame. Called with mu held. Frames reuse the scratch frame, so the
// steady-state scan is allocation-free.
func (p *tcpPeer) collect() error {
	if p.dead {
		return nil
	}
	f := &p.f
	for _, tl := range p.dataLinks {
		l := tl.l
		tail := l.tail.Load()
		if tail == tl.sent {
			continue
		}
		b := f.NextBurst(uint32(tl.li), uint64(tl.sent))
		size := int64(len(l.buf))
		for i := tl.sent; i < tail; i++ {
			b.Vals = append(b.Vals, l.buf[i%size])
		}
		tl.sent = tail
	}
	err := p.encodeData()
	f.Reset()
	if err != nil {
		return err
	}
	for _, tl := range p.ackLinks {
		head := tl.l.head.Load()
		if head == tl.ackSent {
			continue
		}
		f.Acks = append(f.Acks, wire.Ack{Link: uint32(tl.li), Seq: uint64(head)})
		tl.ackSent = head
	}
	switch len(f.Acks) {
	case 0:
		return nil
	case 1:
		f.Type, f.Link, f.Seq = wire.FrameAck, f.Acks[0].Link, f.Acks[0].Seq
		f.Acks = f.Acks[:0]
	default:
		f.Type = wire.FrameAckBatch
	}
	err = wire.WriteFrame(&p.q, f)
	f.Reset()
	return err
}

// encodeData encodes the bursts collect staged in f. One burst keeps the
// Data shape: the header carries link and seq, saving the batch framing
// bytes on the RTT-bound single-link path. Several multiplex into one
// DataBatch frame — unless their sum passes the frame limit, which legal
// bursts can; each then goes out as its own Data frame.
func (p *tcpPeer) encodeData() error {
	f := &p.f
	switch len(f.Bursts) {
	case 0:
		return nil
	case 1:
		b := &f.Bursts[0]
		f.Type, f.Link, f.Seq = wire.FrameData, b.Link, b.Seq
		f.Vals, b.Vals = b.Vals, f.Vals
		f.Bursts = f.Bursts[:0]
		return wire.WriteFrame(&p.q, f)
	}
	f.Type = wire.FrameDataBatch
	if wire.WriteFrame(&p.q, f) == nil {
		return nil
	}
	for i := range f.Bursts {
		b := &f.Bursts[i]
		one := wire.Frame{Type: wire.FrameData, Link: b.Link, Seq: b.Seq, Vals: b.Vals}
		if err := wire.WriteFrame(&p.q, &one); err != nil {
			return err
		}
	}
	return nil
}

// writeRaw is rawWrite: one write(2) of q on the non-blocking socket. It
// never waits for the socket to drain — what it does not take is the
// writer's.
func (p *tcpPeer) writeRaw(fd uintptr) bool {
	p.rawN, p.rawErr = writeFD(syscall.Write, fd, p.q)
	return true
}

// writeFD adapts the descriptor type of the platform's syscall.Write.
func writeFD[FD ~int | ~uintptr](write func(FD, []byte) (int, error), fd uintptr, b []byte) (int, error) {
	return write(FD(fd), b)
}

// sendNow collects, then writes what q holds with one non-blocking write
// unless the writer is mid-write. Called with mu held.
func (p *tcpPeer) sendNow() error {
	if err := p.collect(); err != nil {
		return err
	}
	if p.busy || p.dead || len(p.q) == 0 {
		return nil
	}
	if err := p.raw.Write(p.rawWrite); err != nil {
		return err
	}
	n, err := p.rawN, p.rawErr
	if err == syscall.EAGAIN || err == syscall.EINTR {
		n, err = 0, nil
	}
	if err != nil {
		return err
	}
	p.q = p.q[:copy(p.q, p.q[n:])]
	return nil
}

// sendInline closes the reader's inline window: it sends what the frames
// just applied made ready, clears inline, then rescans once — more may
// have been published during the write, and a raise that found inline
// set left it to this scan. Bytes the socket did not take go to the
// writer.
func (t *TCPTransport) sendInline(p *tcpPeer) {
	p.mu.Lock()
	err := p.sendNow()
	p.inline.Store(false)
	if err == nil {
		err = p.sendNow()
	}
	left := len(p.q) > 0 && !p.busy
	p.mu.Unlock()
	if err != nil {
		t.failOut(p, fmt.Errorf("write to %q: %w", p.name, err))
		return
	}
	if left {
		p.wakeWriter()
	}
}

// writer sends what nobody else did: on every wake it collects, takes
// the whole queue and writes it blocking, outside mu. On closing it
// sends what is left and the Close frame, and exits.
func (t *TCPTransport) writer(p *tcpPeer) {
	defer t.writerWG.Done()
	var out outQueue // the writer's half of a double buffer with q
	for {
		p.mu.Lock()
		err := p.collect()
		last := p.closing
		if err == nil && last && !p.dead {
			err = wire.WriteFrame(&p.q, &wire.Frame{Type: wire.FrameClose})
		}
		if err != nil || p.dead || len(p.q) == 0 {
			p.mu.Unlock()
			if err != nil {
				t.failOut(p, fmt.Errorf("write to %q: %w", p.name, err))
			}
			if last {
				return
			}
			<-p.wake
			continue
		}
		out, p.q = p.q, out[:0]
		p.busy = true
		p.dead = last
		p.mu.Unlock()
		_, err = p.conn.Write(out)
		p.mu.Lock()
		p.busy = false
		p.mu.Unlock()
		if err != nil {
			t.failOut(p, fmt.Errorf("write to %q: %w", p.name, err))
		}
		if last {
			return
		}
	}
}

// failOut handles every outbound failure: no further byte goes out, and
// the conn closes so the peer's reader breaks its regions too (an Error
// frame could not get through). The local regions break with
// ErrLinkBroken. Called without mu held.
func (t *TCPTransport) failOut(p *tcpPeer, err error) {
	p.mu.Lock()
	p.dead = true
	p.q = p.q[:0]
	p.mu.Unlock()
	p.conn.Close()
	t.fail(err)
}

// frameBuffered reports whether br holds a whole frame, so that reading
// it cannot block.
func frameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < 4 {
		return false
	}
	prefix, _ := br.Peek(4)
	return n-4 >= int(binary.BigEndian.Uint32(prefix))
}

// reader dispatches inbound frames. Data and Ack (single or batched)
// drive the half links directly — pushing/retiring slots under the SPSC
// discipline the far engine would — and wake the local engine via
// pumpNudge. Before a read that may block, it answers what the applied
// frames made ready (sendInline). The loop decodes into one reused frame
// and scratch buffer, so at steady state it allocates only what the
// payload values require.
func (t *TCPTransport) reader(p *tcpPeer) {
	defer t.readerWG.Done()
	defer p.inline.Store(false)
	br := bufio.NewReaderSize(p.conn, 64<<10)
	f := wire.GetFrame()
	defer wire.PutFrame(f)
	var scratch []byte
	inline := false
	for {
		if inline && !frameBuffered(br) {
			t.sendInline(p)
			inline = false
		}
		if err := wire.ReadFrameInto(br, f, &scratch); err != nil {
			select {
			case <-t.closed:
				// Local teardown closed the conn under us: not a failure.
			default:
				t.fail(fmt.Errorf("read from %q: %w", p.name, err))
			}
			return
		}
		if p.raw != nil && !inline {
			p.inline.Store(true)
			inline = true
		}
		switch f.Type {
		case wire.FrameData:
			if !t.applyData(p, f.Link, f.Seq, f.Vals) {
				return
			}
		case wire.FrameDataBatch:
			for i := range f.Bursts {
				b := &f.Bursts[i]
				if !t.applyData(p, b.Link, b.Seq, b.Vals) {
					return
				}
			}
		case wire.FrameAck:
			if !t.applyAck(p, f.Link, f.Seq) {
				return
			}
		case wire.FrameAckBatch:
			for _, a := range f.Acks {
				if !t.applyAck(p, a.Link, a.Seq) {
					return
				}
			}
		case wire.FrameClose:
			// Orderly peer shutdown: close the local regions, failing
			// their operations with ErrClosed. The owner's Close tears
			// the transport down.
			for _, e := range t.m.live() {
				e.Close()
			}
			return
		case wire.FrameError:
			t.breakLocal(fmt.Errorf("node %q: %s: %w", p.name, f.Err, ErrLinkBroken))
			return
		default:
			t.fail(fmt.Errorf("frame type %d from %q", f.Type, p.name))
			return
		}
	}
}

// applyData delivers one inbound burst into its consumer-local queue
// and wakes the consuming region. Returns false (after failing the
// transport) on any protocol violation.
func (t *TCPTransport) applyData(p *tcpPeer, link uint32, seq uint64, vals []any) bool {
	tl, ok := t.byLink[int(link)]
	if !ok || tl.prodLocal {
		t.fail(fmt.Errorf("data from %q for link %d, which this node does not consume", p.name, link))
		return false
	}
	l := tl.l
	tail := l.tail.Load()
	if seq != uint64(tail) {
		t.fail(fmt.Errorf("link %d: burst at seq %d, expected %d", link, seq, tail))
		return false
	}
	n := int64(len(vals))
	if free := int64(len(l.buf)) - (tail - l.head.Load()); n > free {
		// The credit invariant bounds in-flight data to the queue
		// capacity; an overflow can only be a protocol violation.
		t.fail(fmt.Errorf("link %d: burst of %d overflows %d free slots", link, n, free))
		return false
	}
	for i := int64(0); i < n; i++ {
		l.buf[(tail+i)%int64(len(l.buf))] = vals[i]
	}
	l.tail.Store(tail + n)
	l.dst.pumpNudge()
	return true
}

// applyAck retires acknowledged values of a producer-local mirror and
// wakes the producing region. Returns false (after failing the
// transport) on any protocol violation.
func (t *TCPTransport) applyAck(p *tcpPeer, link uint32, seq uint64) bool {
	tl, ok := t.byLink[int(link)]
	if !ok || !tl.prodLocal {
		t.fail(fmt.Errorf("ack from %q for link %d, which this node does not produce", p.name, link))
		return false
	}
	l := tl.l
	head := l.head.Load()
	if seq < uint64(head) || seq > uint64(l.tail.Load()) {
		t.fail(fmt.Errorf("link %d: ack %d outside [%d,%d]", link, seq, head, l.tail.Load()))
		return false
	}
	for i := head; i < int64(seq); i++ {
		l.buf[i%int64(len(l.buf))] = nil
	}
	l.head.Store(int64(seq))
	l.src.pumpNudge()
	return true
}

// fail reports a transport failure exactly once: the local regions
// break with ErrLinkBroken (pending operations fail), and break
// propagation notifies the peers via onBreak.
func (t *TCPTransport) fail(err error) {
	t.failOnce.Do(func() {
		t.breakLocal(fmt.Errorf("%w: %s", ErrLinkBroken, err))
	})
}

func (t *TCPTransport) breakLocal(err error) {
	for _, e := range t.m.live() {
		e.breakExternal(err)
	}
}

// Close implements Transport: announce an orderly shutdown to every
// peer and join all goroutines. Called by Multi.Close after the local
// engines are closed, so the writers' last scans find little to move.
func (t *TCPTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		for _, p := range t.peers {
			p.mu.Lock()
			p.closing = true
			p.mu.Unlock()
			p.wakeWriter()
		}
		t.writerWG.Wait()
		for _, p := range t.peers {
			p.conn.Close()
		}
		t.readerWG.Wait()
		if t.ln != nil {
			t.ln.Close()
		}
		if t.m != nil {
			// A break may still be propagating to the peers; the engines
			// are closed, so no new one starts.
			t.m.group.breakWG.Wait()
		}
	})
	return nil
}
