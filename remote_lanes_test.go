// Tests of the TCP transport's outbound path on the RemoteLanes
// connector placed both ways: large values in both directions, a value
// past the frame limit, a socket the transport cannot write itself, and
// the transport's goroutines.
package reo_test

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	reo "repro"
	"repro/internal/ca"
	"repro/internal/compile"
	"repro/internal/wire"
)

// lanesProto is the benchmark's lane connector: each lane a Sync region
// feeding a cut Fifo1 into an out-node region, one link per lane.
const lanesProto = `
RemoteLanes(in[];out[]) =
    prod (i:1..#in) Sync(in[i];t[i])
    mult prod (i:1..#in) Fifo1(t[i];out[i])
`

const twoWayLanes = 4

// laneFrom is the node lane i's values leave from: lanes 0–1 flow a→b,
// lanes 2–3 b→a.
func laneFrom(i int) string {
	if i < twoWayLanes/2 {
		return "a"
	}
	return "b"
}

// connectTwoWayLanes connects RemoteLanes placed both ways, so each node
// sends data and acks on its one connection and its reader receives
// both. wrapB, when non-nil, wraps node b's listener.
func connectTwoWayLanes(t *testing.T, wrapB func(net.Listener) net.Listener) *remotePair {
	t.Helper()
	place := func(asm *compile.Assembly, plan *ca.RegionPlan) []string {
		owner := plan.PortRegions(asm.U, asm.Auts)
		regionNode := make([]string, len(plan.Regions))
		for i := 0; i < twoWayLanes; i++ {
			from, to := laneFrom(i), "b"
			if from == "b" {
				to = "a"
			}
			regionNode[owner[asm.Tails["in"][i]]] = from
			regionNode[owner[asm.Heads["out"][i]]] = to
		}
		return regionNode
	}
	lengths := map[string]int{"in": twoWayLanes, "out": twoWayLanes}
	pair := connectPlaced(t, reo.MustCompile(lanesProto), "RemoteLanes", lengths, place, wrapB)
	if pair.wireLinks != twoWayLanes {
		t.Fatalf("placement cut %d links, want %d", pair.wireLinks, twoWayLanes)
	}
	return pair
}

// streamTwoWay sends items values down every lane at once — one sending
// and one receiving task per lane — each value []any{k, payload[lane]},
// and checks that every lane delivers them in order with the payload
// intact. It returns the first operation error.
func streamTwoWay(t *testing.T, pair *remotePair, items int, payload [][]byte) error {
	t.Helper()
	errs := make(chan error, 2*twoWayLanes)
	var wg sync.WaitGroup
	for i := 0; i < twoWayLanes; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			in := pair.inst("in", i).Outports("in")[i]
			for k := 0; k < items; k++ {
				if err := in.Send([]any{k, payload[i]}); err != nil {
					errs <- err
					return
				}
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			out := pair.inst("out", i).Inports("out")[i]
			for k := 0; k < items; k++ {
				v, err := out.Recv()
				if err != nil {
					errs <- err
					return
				}
				got, _ := v.([]any)
				if len(got) != 2 || got[0] != k {
					t.Errorf("lane %d item %d: got %T %.40v", i, k, v, v)
					continue
				}
				if b, _ := got[1].([]byte); !bytes.Equal(b, payload[i]) {
					t.Errorf("lane %d item %d: payload of %d bytes differs from the %d sent", i, k, len(b), len(payload[i]))
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// lanePayloads returns one payload of size bytes per lane, each with its
// own content.
func lanePayloads(size int) [][]byte {
	payload := make([][]byte, twoWayLanes)
	for i := range payload {
		payload[i] = bytes.Repeat([]byte{byte(i + 1)}, size)
	}
	return payload
}

// runBulkBothWays streams size-byte values both ways and fails the test
// if the run does not complete within the guard.
func runBulkBothWays(t *testing.T, size, items int) {
	accepted := make(chan net.Conn, 1)
	pair := connectTwoWayLanes(t, func(ln net.Listener) net.Listener { return trackListener{ln, accepted} })
	conn := <-accepted
	done := make(chan error, 1)
	go func() { done <- streamTwoWay(t, pair, items, lanePayloads(size)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		// Two nodes stuck writing to each other would also hang Close:
		// cutting the connection fails every blocked operation and write.
		conn.Close()
		<-done
		t.Fatalf("%d-byte values both ways did not complete in 20s", size)
	}
}

// TestRemoteBulkBothWays: readers never block on the socket. With 6 MiB
// values flowing both ways each socket fills; a reader that wrote its
// answers blocking would wait on the other node's reader, which waits on
// it.
func TestRemoteBulkBothWays(t *testing.T) {
	runBulkBothWays(t, 6<<20, 6)
}

// TestRemoteFrameLimitBothWays: two 8 MiB bursts are legal on their own
// but pass wire.DefaultMaxFrame together, so they must not share one
// DataBatch frame.
func TestRemoteFrameLimitBothWays(t *testing.T) {
	runBulkBothWays(t, 8<<20, 3)
}

// TestRemoteOversizeValueBreaksBothNodes: a value no frame can carry
// fails the sending node's outbound path. The blocked operations on both
// nodes must fail with ErrLinkBroken — the receiving node learns of it
// from the closed connection.
func TestRemoteOversizeValueBreaksBothNodes(t *testing.T) {
	pair := connectTwoWayLanes(t, nil)
	recv := make(chan error, 1)
	go func() {
		_, err := pair.inst("out", 0).Inports("out")[0].Recv()
		recv <- err
	}()
	in := pair.inst("in", 0).Outports("in")[0]
	// The lane's capacity-1 link takes the value; the next Send blocks
	// until the peer acknowledges it, which it never can.
	if err := in.Send(make([]byte, wire.DefaultMaxFrame+1)); err != nil {
		t.Fatalf("oversize send: %v", err)
	}
	send := make(chan error, 1)
	go func() { send <- in.Send(1) }()
	guard := time.After(5 * time.Second)
	for _, op := range []struct {
		name string
		err  chan error
	}{{"send on node a", send}, {"recv on node b", recv}} {
		select {
		case err := <-op.err:
			if !errors.Is(err, reo.ErrLinkBroken) {
				t.Errorf("%s: err %v, want ErrLinkBroken", op.name, err)
			}
		case <-guard:
			t.Fatalf("%s still blocked after 5s", op.name)
		}
	}
}

// plainConn hides the socket under a net.Conn (it is no syscall.Conn).
type plainConn struct{ net.Conn }

type plainListener struct{ net.Listener }

func (l plainListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return plainConn{c}, nil
}

// TestRemotePlainConnWriterOnly: on a conn that is not a syscall.Conn
// the reader cannot write, so node b sends everything through its
// writer; both directions still deliver in order.
func TestRemotePlainConnWriterOnly(t *testing.T) {
	pair := connectTwoWayLanes(t, func(ln net.Listener) net.Listener { return plainListener{ln} })
	if err := streamTwoWay(t, pair, 300, lanePayloads(16)); err != nil {
		t.Fatal(err)
	}
}

// trackListener hands every conn it accepts to conns as well.
type trackListener struct {
	net.Listener
	conns chan<- net.Conn
}

func (l trackListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.conns <- c
	}
	return c, err
}

// transportGoroutines counts the goroutines running TCP transport code
// or started by it. One whose last frames are its deferred
// WaitGroup.Done is left out: Close has joined it, and only its return
// is left (runtime.NumGoroutine still counts it for that moment).
func transportGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "engine.(*TCPTransport).") && !strings.Contains(g, "sync.(*WaitGroup).Done(") {
			n++
		}
	}
	return n
}

// TestRemoteTransportGoroutines pins the transport's machinery: while a
// pair is connected each node runs one reader and one writer for its
// one peer and nothing else, and Close joins every goroutine the pair
// started.
func TestRemoteTransportGoroutines(t *testing.T) {
	pair := connectTwoWayLanes(t, nil)
	// Counted after traffic: Start's accept helper has long exited then.
	if err := streamTwoWay(t, pair, 200, lanePayloads(16)); err != nil {
		t.Fatal(err)
	}
	if n := transportGoroutines(); n != 2*2 {
		t.Errorf("%d transport goroutines on the pair, want 2 per node", n)
	}
	pair.close()
	if n := transportGoroutines(); n != 0 {
		t.Errorf("%d transport goroutines left after Close", n)
	}
}
