// Differential tests for distributed region links: a connector split
// across two coordinator instances joined by the TCP transport over
// loopback must deliver exactly the per-port value sequences — and fire
// exactly the global steps — of the in-process PartitionRegions run.
package reo_test

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	reo "repro"
	"repro/internal/ca"
	"repro/internal/compile"
)

// remotePair is a connector instance split across two in-process nodes
// ("a" and "b") joined over 127.0.0.1, plus the port-ownership map the
// driver needs to pick the hosting instance for each boundary port.
type remotePair struct {
	a, b *reo.Instance
	// node maps "param/index" to "a" or "b"; region maps it to the
	// plan region index executing the port (for per-region counters).
	node   map[string]string
	region map[string]int
	// wireLinks counts plan links whose endpoints landed on different
	// nodes — the number of region links actually carried over TCP.
	wireLinks int
}

func (rp *remotePair) inst(param string, idx int) *reo.Instance {
	if rp.node[fmt.Sprintf("%s/%d", param, idx)] == "b" {
		return rp.b
	}
	return rp.a
}

func (rp *remotePair) close() {
	rp.a.Close()
	rp.b.Close()
}

func (rp *remotePair) steps() int64      { return rp.a.Steps() + rp.b.Steps() }
func (rp *remotePair) guardEvals() int64 { return rp.a.GuardEvals() + rp.b.GuardEvals() }

// connectRemotePair splits the connector's region plan across two
// loopback nodes — alternating regions by index, so every other link is
// cut — and connects both halves concurrently (the handshake needs both
// sides up).
func connectRemotePair(t *testing.T, prog *reo.Program, name string, lengths map[string]int, opts ...reo.ConnectOption) *remotePair {
	t.Helper()
	alternate := func(asm *compile.Assembly, plan *ca.RegionPlan) []string {
		regionNode := make([]string, len(plan.Regions))
		for ri := range regionNode {
			regionNode[ri] = "a"
			if ri%2 == 1 {
				regionNode[ri] = "b"
			}
		}
		return regionNode
	}
	return connectPlaced(t, prog, name, lengths, alternate, nil, opts...)
}

// connectPlaced connects the connector across nodes "a" and "b", each
// plan region on the node place names for it. wrapB, when non-nil,
// wraps node b's listener.
func connectPlaced(t *testing.T, prog *reo.Program, name string, lengths map[string]int,
	place func(*compile.Assembly, *ca.RegionPlan) []string, wrapB func(net.Listener) net.Listener,
	opts ...reo.ConnectOption) *remotePair {
	t.Helper()
	conn := prog.MustConnector(name)
	asm, err := conn.Template().Instantiate(lengths)
	if err != nil {
		t.Fatal(err)
	}
	plan := ca.PlanRegions(asm.U, asm.Auts)
	nr := len(plan.Regions)
	if nr < 2 {
		t.Fatalf("connector %s plans %d regions; need at least 2 to distribute", name, nr)
	}
	regionNode := place(asm, plan)
	regions := map[string][]int{}
	for ri, n := range regionNode {
		regions[n] = append(regions[n], ri)
	}

	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]string{"a": lnA.Addr().String(), "b": lnB.Addr().String()}
	if wrapB != nil {
		lnB = wrapB(lnB)
	}

	connect := func(node string, ln net.Listener) (*reo.Instance, error) {
		topo := &reo.RemoteTopology{
			Node: node, Nodes: nodes, Regions: regions,
			Listener: ln, DialTimeout: 5 * time.Second,
		}
		all := append([]reo.ConnectOption{
			reo.WithPartitioning(reo.PartitionRegions),
			reo.WithRemoteRegions(topo),
		}, opts...)
		return conn.Connect(lengths, all...)
	}
	var instA, instB *reo.Instance
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); instA, errA = connect("a", lnA) }()
	go func() { defer wg.Done(); instB, errB = connect("b", lnB) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("connect a: %v, b: %v", errA, errB)
	}
	t.Cleanup(func() { instA.Close(); instB.Close() })

	owner := plan.PortRegions(asm.U, asm.Auts)
	pair := &remotePair{a: instA, b: instB, node: map[string]string{}, region: map[string]int{}}
	for _, lk := range plan.Links {
		if regionNode[lk.From] != regionNode[lk.To] {
			pair.wireLinks++
		}
	}
	for param, ports := range asm.Tails {
		for i, p := range ports {
			key := fmt.Sprintf("%s/%d", param, i)
			pair.node[key] = regionNode[owner[p]]
			pair.region[key] = owner[p]
		}
	}
	for param, ports := range asm.Heads {
		for i, p := range ports {
			key := fmt.Sprintf("%s/%d", param, i)
			pair.node[key] = regionNode[owner[p]]
			pair.region[key] = owner[p]
		}
	}
	return pair
}

// drivePipelineRemote runs the pipelineProto workload against a split
// pair, each port driven on its hosting instance; batch <= 1 uses the
// scalar entry points, larger batches the batched ones (ragged tail
// included).
func drivePipelineRemote(t *testing.T, pair *remotePair, n, items, batch int) (sink []any, stages [][]any) {
	t.Helper()
	stages = make([][]any, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := pair.inst("in", i).Inports("in")[i]
			out := pair.inst("out", i).Outports("out")[i]
			if batch <= 1 {
				for k := 0; k < items; k++ {
					v, err := in.Recv()
					if err != nil {
						t.Errorf("stage %d recv: %v", i, err)
						return
					}
					stages[i] = append(stages[i], v)
					if err := out.Send(v.(int)*10 + i); err != nil {
						t.Errorf("stage %d send: %v", i, err)
						return
					}
				}
				return
			}
			buf := make([]any, batch)
			for done := 0; done < items; {
				k := batch
				if items-done < k {
					k = items - done
				}
				got, err := in.RecvBatch(buf[:k])
				if err != nil {
					t.Errorf("stage %d recv: %v", i, err)
					return
				}
				stages[i] = append(stages[i], buf[:got]...)
				for j := 0; j < got; j++ {
					buf[j] = buf[j].(int)*10 + i
				}
				if err := out.SendBatch(buf[:got]); err != nil {
					t.Errorf("stage %d send: %v", i, err)
					return
				}
				done += got
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := pair.inst("src", 0).Outport("src")
		if batch <= 1 {
			for k := 1; k <= items; k++ {
				if err := src.Send(k); err != nil {
					t.Errorf("src send: %v", err)
					return
				}
			}
			return
		}
		buf := make([]any, batch)
		for k := 1; k <= items; {
			m := 0
			for ; m < batch && k+m <= items; m++ {
				buf[m] = k + m
			}
			if err := src.SendBatch(buf[:m]); err != nil {
				t.Errorf("src send: %v", err)
				return
			}
			k += m
		}
	}()
	snk := pair.inst("snk", 0).Inport("snk")
	if batch <= 1 {
		for k := 0; k < items; k++ {
			v, err := snk.Recv()
			if err != nil {
				t.Fatal(err)
			}
			sink = append(sink, v)
		}
	} else {
		buf := make([]any, batch)
		for len(sink) < items {
			k := batch
			if items-len(sink) < k {
				k = items - len(sink)
			}
			got, err := snk.RecvBatch(buf[:k])
			if err != nil {
				t.Fatal(err)
			}
			sink = append(sink, buf[:got]...)
		}
	}
	wg.Wait()
	return sink, stages
}

// runPipelineStats is runPipeline capturing the instance counters
// before Close (the reference side of the differential).
func runPipelineStats(t *testing.T, n, items, batch int, opts ...reo.ConnectOption) (sink []any, stages [][]any, steps, guardEvals int64) {
	t.Helper()
	prog := reo.MustCompile(pipelineProto)
	conn := prog.MustConnector("Pipeline")
	inst, err := conn.Connect(map[string]int{"out": n, "in": n}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	stages = make([][]any, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := inst.Inports("in")[i]
			out := inst.Outports("out")[i]
			for k := 0; k < items; k++ {
				v, err := in.Recv()
				if err != nil {
					t.Errorf("stage %d recv: %v", i, err)
					return
				}
				stages[i] = append(stages[i], v)
				if err := out.Send(v.(int)*10 + i); err != nil {
					t.Errorf("stage %d send: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := inst.Outport("src")
		for k := 1; k <= items; k++ {
			if err := src.Send(k); err != nil {
				t.Errorf("src send: %v", err)
				return
			}
		}
	}()
	snk := inst.Inport("snk")
	for k := 0; k < items; k++ {
		v, err := snk.Recv()
		if err != nil {
			t.Fatal(err)
		}
		sink = append(sink, v)
	}
	wg.Wait()
	_ = batch
	return sink, stages, inst.Steps(), inst.GuardEvals()
}

// altProto is the alternator shape: the drain chain fires every in-lane
// atomically, and the Seq-gated merger then emits the lane values in
// index order. The output sequence is fully deterministic — independent
// of arrival timing — and every lane's Fifo1 is a cut buffer, so each
// value crosses a region link on its way to the merge side.
const altProto = `
Alternator(in[];out) =
    prod (i:1..#in) Fifo1(in[i];f[i])
    mult prod (i:1..#in-1) SyncDrain(in[i],in[i+1];)
    mult Merger(f[1..#in];out)
    mult Seq(f[1..#in];)
`

// mergeProto is the late async merger: one Fifo1 between the merger
// region and the out node region — exactly one cut link.
const mergeProto = `
AsyncMerger(in[];out) = Merger(in[1..#in];m) mult Fifo1(m;out)
`

// seqProto is the token-ring sequencer: one drain region per client,
// joined in a ring of cut Fifo1 links — one of them a Fifo1Full whose
// seeded token must materialize on exactly one side of the wire.
const seqProto = `
Sequencer(c[];) =
    prod (i:1..#c-1) Fifo1(r[i];r[i+1])
    mult Fifo1Full(r[#c];r[1])
    mult prod (i:1..#c) SyncDrain(c[i],r[i];)
`

// laneValue is the value lane i (0-based) sends in round k.
func laneValue(i, k int) int { return (i+1)*100 + k }

// driveAlternator pushes items rounds through an n-lane alternator,
// each port driven via get (which picks the hosting instance), and
// returns the out sequence. batch <= 1 drives the scalar entry points;
// larger batches use SendBatch/RecvBatch with a ragged tail.
func driveAlternator(t *testing.T, get func(param string, idx int) *reo.Instance, n, items, batch int) []any {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lane := get("in", i).Outports("in")[i]
			if batch <= 1 {
				for k := 1; k <= items; k++ {
					if err := lane.Send(laneValue(i, k)); err != nil {
						t.Errorf("lane %d send: %v", i, err)
						return
					}
				}
				return
			}
			buf := make([]any, batch)
			for k := 1; k <= items; {
				m := 0
				for ; m < batch && k+m <= items; m++ {
					buf[m] = laneValue(i, k+m)
				}
				if err := lane.SendBatch(buf[:m]); err != nil {
					t.Errorf("lane %d send: %v", i, err)
					return
				}
				k += m
			}
		}(i)
	}
	out := get("out", 0).Inport("out")
	var got []any
	total := n * items
	if batch <= 1 {
		for len(got) < total {
			v, err := out.Recv()
			if err != nil {
				t.Fatalf("out recv: %v", err)
			}
			got = append(got, v)
		}
	} else {
		buf := make([]any, batch)
		for len(got) < total {
			k := batch
			if total-len(got) < k {
				k = total - len(got)
			}
			m, err := out.RecvBatch(buf[:k])
			if err != nil {
				t.Fatalf("out recv: %v", err)
			}
			got = append(got, buf[:m]...)
		}
	}
	wg.Wait()
	return got
}

// alternatorExpect is the analytically known output: rounds in order,
// lanes in index order within each round.
func alternatorExpect(n, items int) []any {
	var want []any
	for k := 1; k <= items; k++ {
		for i := 0; i < n; i++ {
			want = append(want, laneValue(i, k))
		}
	}
	return want
}

// runAlternatorLocal is the single-process reference run, capturing the
// counters before Close.
func runAlternatorLocal(t *testing.T, n, items int, opts ...reo.ConnectOption) (out []any, steps int64) {
	t.Helper()
	prog := reo.MustCompile(altProto)
	inst, err := prog.MustConnector("Alternator").Connect(map[string]int{"in": n}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	out = driveAlternator(t, func(string, int) *reo.Instance { return inst }, n, items, 0)
	return out, settleSteps(inst.Steps)
}

// settleSteps polls a step counter until it stops moving: post-delivery
// link housekeeping (trailing pops, acks) may still fire after the last
// boundary op returns, on either side of the differential.
func settleSteps(steps func() int64) int64 {
	prev := steps()
	for quiet, spins := 0, 0; quiet < 10 && spins < 2000; spins++ {
		time.Sleep(time.Millisecond)
		if s := steps(); s != prev {
			prev, quiet = s, 0
		} else {
			quiet++
		}
	}
	return prev
}

// waitSteps polls the pair until its step total reaches want, then
// confirms it does not overshoot.
func waitSteps(t *testing.T, pair *remotePair, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && pair.steps() < want {
		time.Sleep(time.Millisecond)
	}
	if got := settleSteps(pair.steps); got != want {
		t.Errorf("steps = %d (a=%d b=%d), want %d", got, pair.a.Steps(), pair.b.Steps(), want)
	}
}

// TestRemoteLoopbackDifferential is the tentpole differential: an
// alternator split so that every lane's buffer is a TCP region link
// must deliver exactly the deterministic round-robin output sequence
// and fire exactly the Steps of the in-process PartitionRegions run.
func TestRemoteLoopbackDifferential(t *testing.T) {
	const n, items = 4, 24
	wantOut, wantSteps := runAlternatorLocal(t, n, items,
		reo.WithPartitioning(reo.PartitionRegions), reo.WithSeed(7))

	prog := reo.MustCompile(altProto)
	pair := connectRemotePair(t, prog, "Alternator", map[string]int{"in": n}, reo.WithSeed(7))
	if pair.wireLinks != n {
		t.Fatalf("split cut %d cross-node links, want %d — differential would be vacuous", pair.wireLinks, n)
	}
	out := driveAlternator(t, pair.inst, n, items, 0)

	if want := alternatorExpect(n, items); !reflect.DeepEqual(out, want) {
		t.Errorf("out sequence diverged from round-robin:\n remote %v\n want   %v\n%s", out, want, reproCmd(t, 7))
	}
	if !reflect.DeepEqual(out, wantOut) {
		t.Errorf("out sequence diverged from local run:\n remote %v\n local  %v\n%s", out, wantOut, reproCmd(t, 7))
	}
	waitSteps(t, pair, wantSteps)
}

// TestRemoteLoopbackBatched pins the batched entry points across the
// wire, ragged tails included: burst framing must not reorder, drop, or
// duplicate, and the step total must still match the in-process run.
func TestRemoteLoopbackBatched(t *testing.T) {
	const n, items = 2, 30
	for _, batch := range []int{3, 8} {
		batch := batch
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			wantOut, wantSteps := runAlternatorLocal(t, n, items,
				reo.WithPartitioning(reo.PartitionRegions), reo.WithSeed(3))

			prog := reo.MustCompile(altProto)
			pair := connectRemotePair(t, prog, "Alternator", map[string]int{"in": n}, reo.WithSeed(3))
			out := driveAlternator(t, pair.inst, n, items, batch)

			if !reflect.DeepEqual(out, wantOut) {
				t.Errorf("out sequence diverged:\n remote %v\n local  %v\n%s", out, wantOut, reproCmd(t, 7))
			}
			waitSteps(t, pair, wantSteps)
		})
	}
}

// driveSequencer runs rounds grant cycles against a sequencer: n client
// goroutines each complete rounds sends, self-ordered by the ring.
func driveSequencer(t *testing.T, get func(param string, idx int) *reo.Instance, n, rounds int) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := get("c", i).Outports("c")[i]
			for k := 0; k < rounds; k++ {
				if err := c.Send(k); err != nil {
					t.Errorf("client %d send %d: %v", i, k, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestRemoteLoopbackRuntime splits a token-ring sequencer — every ring
// hop a TCP link, one of them a seeded Fifo1Full — across two nodes
// sharing a scheduler runtime: network reads must wake the scheduler,
// not fire inline, the token must materialize on exactly one side, and
// the step total must match the in-process run.
func TestRemoteLoopbackRuntime(t *testing.T) {
	const n, rounds = 4, 12
	prog := reo.MustCompile(seqProto)
	ref, err := prog.MustConnector("Sequencer").Connect(map[string]int{"c": n},
		reo.WithPartitioning(reo.PartitionRegions), reo.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	driveSequencer(t, func(string, int) *reo.Instance { return ref }, n, rounds)
	wantSteps := settleSteps(ref.Steps)
	ref.Close()

	pair := connectRemotePair(t, prog, "Sequencer", map[string]int{"c": n},
		reo.WithSeed(5), reo.WithRuntime(nil))
	if pair.wireLinks != n {
		t.Fatalf("ring cut %d cross-node links, want %d", pair.wireLinks, n)
	}
	driveSequencer(t, pair.inst, n, rounds)
	waitSteps(t, pair, wantSteps)
}

// relayChainProto is a chain of four cut buffers: the three vertices
// between them are relay regions (a synthesized node and nothing else).
const relayChainProto = `Chain(a;b) =
    prod (i:1..1) Fifo1(a;m1)
    mult prod (i:1..1) Fifo1(m1;m2)
    mult prod (i:1..1) Fifo1(m2;m3)
    mult prod (i:1..1) Fifo1(m3;b)
`

// driveRelayChain sends items ints into a and returns what b delivers;
// batch <= 1 drives the scalar entry points, larger batches the batched
// ones (ragged tail included).
func driveRelayChain(t *testing.T, get func(param string, idx int) *reo.Instance, items, batch int) []any {
	t.Helper()
	sent := make(chan error, 1)
	go func() {
		out := get("a", 0).Outport("a")
		for k := 0; k < items; {
			m := min(max(batch, 1), items-k)
			vals := make([]any, m)
			for j := range vals {
				vals[j] = k + j
			}
			var err error
			if batch <= 1 {
				err = out.Send(vals[0])
			} else {
				err = out.SendBatch(vals)
			}
			if err != nil {
				sent <- err
				return
			}
			k += m
		}
		sent <- nil
	}()
	in := get("b", 0).Inport("b")
	var got []any
	for len(got) < items {
		buf := make([]any, min(max(batch, 1), items-len(got)))
		n, err := 1, error(nil)
		if batch <= 1 {
			buf[0], err = in.Recv()
		} else {
			n, err = in.RecvBatch(buf)
		}
		if err != nil {
			t.Fatalf("b recv: %v", err)
		}
		got = append(got, buf[:n]...)
	}
	if err := <-sent; err != nil {
		t.Fatalf("a send: %v", err)
	}
	return got
}

// TestRemoteRelayChain splits a chain so that every relay region has a
// half link on each side: a relay forwards from and to the wire as it
// does between in-process neighbors, so the delivered sequence and the
// step total equal the in-process run's, and each relay counts one step
// and one guard evaluation per item. A relay runs the fire loop, so it
// expands its one state twice: on its first visit, and when kept on its
// second.
func TestRemoteRelayChain(t *testing.T) {
	const items = 120
	for _, batch := range []int{1, 8} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			prog := reo.MustCompile(relayChainProto)
			ref, err := prog.MustConnector("Chain").Connect(nil,
				reo.WithPartitioning(reo.PartitionRegions), reo.WithSeed(7))
			if err != nil {
				t.Fatal(err)
			}
			wantOut := driveRelayChain(t, func(string, int) *reo.Instance { return ref }, items, batch)
			wantSteps := settleSteps(ref.Steps)
			ref.Close()

			pair := connectRemotePair(t, prog, "Chain", nil, reo.WithSeed(7))
			if pair.wireLinks != 4 {
				t.Fatalf("split cut %d cross-node links, want 4", pair.wireLinks)
			}
			out := driveRelayChain(t, pair.inst, items, batch)
			if !reflect.DeepEqual(out, wantOut) {
				t.Errorf("b sequence diverged:\n remote %v\n local  %v\n%s", out, wantOut, reproCmd(t, 7))
			}
			waitSteps(t, pair, wantSteps)
			relays := 0
			for _, inst := range []*reo.Instance{pair.a, pair.b} {
				for ri, r := range inst.Regions() {
					if r.Links != 2 {
						continue
					}
					relays++
					if r.Steps != items || r.GuardEvals != items || r.Expansions != 2 {
						t.Errorf("relay region %d: steps %d, guard evaluations %d, expansions %d; want %d, %d, 2",
							ri, r.Steps, r.GuardEvals, r.Expansions, items, items)
					}
				}
			}
			if relays != 3 {
				t.Errorf("%d relay regions across the nodes, want 3", relays)
			}
		})
	}
}

// TestRemoteDisconnectedComponents covers the degenerate split: the
// pipeline's regions are disconnected components (no cut links at all),
// so the two nodes never open a connection, yet placement, port routing
// and the per-port contract must be exactly the in-process run's —
// including GuardEvals, which is deterministic here because each region
// sees a single sequential op stream.
func TestRemoteDisconnectedComponents(t *testing.T) {
	const n, items = 3, 60
	wantSink, wantStages, wantSteps, wantGuards := runPipelineStats(t, n, items, 0,
		reo.WithPartitioning(reo.PartitionRegions), reo.WithSeed(7))

	prog := reo.MustCompile(pipelineProto)
	pair := connectRemotePair(t, prog, "Pipeline", map[string]int{"out": n, "in": n}, reo.WithSeed(7))
	if pair.wireLinks != 0 {
		t.Fatalf("pipeline split cut %d links, want 0 (disconnected components)", pair.wireLinks)
	}
	sink, stages := drivePipelineRemote(t, pair, n, items, 0)

	if !reflect.DeepEqual(sink, wantSink) {
		t.Errorf("sink sequence diverged:\n remote %v\n local  %v", sink, wantSink)
	}
	for i := range stages {
		if !reflect.DeepEqual(stages[i], wantStages[i]) {
			t.Errorf("stage %d input sequence diverged:\n remote %v\n local  %v", i, stages[i], wantStages[i])
		}
	}
	if steps := pair.steps(); steps != wantSteps {
		t.Errorf("steps = %d (a=%d b=%d), want %d", steps, pair.a.Steps(), pair.b.Steps(), wantSteps)
	}
	if guards := pair.guardEvals(); guards != wantGuards {
		t.Errorf("guardEvals = %d, want %d", guards, wantGuards)
	}
}

// TestRemoteRecvBatchPartialOnClose pins the batched mid-close
// contract across the wire: a RecvBatch outstanding when the peer node
// closes must return the values already delivered (count < len(buf))
// with the close error, exactly like an in-process close.
func TestRemoteRecvBatchPartialOnClose(t *testing.T) {
	const sent = 3
	prog := reo.MustCompile(mergeProto)
	pair := connectRemotePair(t, prog, "AsyncMerger", map[string]int{"in": 2}, reo.WithSeed(1))
	if pair.wireLinks != 1 {
		t.Fatalf("merger split cut %d links, want 1", pair.wireLinks)
	}

	outInst := pair.inst("out", 0)
	otherInst := pair.a
	if otherInst == outInst {
		otherInst = pair.b
	}
	got := make(chan struct {
		n   int
		err error
	}, 1)
	buf := make([]any, sent+2)
	go func() {
		n, err := outInst.Inport("out").RecvBatch(buf)
		got <- struct {
			n   int
			err error
		}{n, err}
	}()

	// The cut Fifo1 has capacity 1, so each Send completes only after
	// the previous value left the link into the outstanding batch.
	in := pair.inst("in", 0).Outports("in")[0]
	for k := 1; k <= sent; k++ {
		if err := in.Send(k); err != nil {
			t.Fatalf("send %d: %v", k, err)
		}
	}

	// Wait until all values have crossed the wire into the batch — the
	// out node region fires once per delivered value — then close the
	// peer: the close must propagate and release the partial batch.
	outRegion := pair.region["out/0"]
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if outInst.Regions()[outRegion].Steps >= int64(sent) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	otherInst.Close()

	select {
	case r := <-got:
		if r.n != sent {
			t.Errorf("RecvBatch returned %d values, want %d", r.n, sent)
		}
		if r.err == nil {
			t.Error("RecvBatch returned nil error on close")
		}
		for i := 0; i < r.n; i++ {
			if buf[i] != i+1 {
				t.Errorf("buf[%d] = %v, want %d", i, buf[i], i+1)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RecvBatch did not return after peer close")
	}
	pair.close()
}

// TestRemotePortOnWrongNode pins the routing error: driving a port
// whose region lives on the other node fails loudly instead of
// hanging.
func TestRemotePortOnWrongNode(t *testing.T) {
	prog := reo.MustCompile(mergeProto)
	pair := connectRemotePair(t, prog, "AsyncMerger", map[string]int{"in": 2}, reo.WithSeed(1))
	outInst := pair.inst("out", 0)
	wrong := pair.a
	if wrong == outInst {
		wrong = pair.b
	}
	_, err := wrong.Inport("out").Recv()
	if err == nil || !strings.Contains(err.Error(), "remote region") {
		t.Errorf("recv on remote-hosted port: err %v, want remote-region routing error", err)
	}
	pair.close()
}

// TestRemoteIdentityMismatch pins the handshake guard: two nodes built
// from different seeds are different runs, and the connection must be
// refused before any data moves.
func TestRemoteIdentityMismatch(t *testing.T) {
	prog := reo.MustCompile(mergeProto)
	conn := prog.MustConnector("AsyncMerger")
	lengths := map[string]int{"in": 2}
	asm, err := conn.Template().Instantiate(lengths)
	if err != nil {
		t.Fatal(err)
	}
	plan := ca.PlanRegions(asm.U, asm.Auts)
	regions := map[string][]int{}
	for ri := 0; ri < len(plan.Regions); ri++ {
		node := "a"
		if ri%2 == 1 {
			node = "b"
		}
		regions[node] = append(regions[node], ri)
	}
	lnA, _ := net.Listen("tcp", "127.0.0.1:0")
	lnB, _ := net.Listen("tcp", "127.0.0.1:0")
	nodes := map[string]string{"a": lnA.Addr().String(), "b": lnB.Addr().String()}
	mk := func(node string, ln net.Listener, seed int64) error {
		topo := &reo.RemoteTopology{Node: node, Nodes: nodes, Regions: regions, Listener: ln, DialTimeout: 3 * time.Second}
		inst, err := conn.Connect(lengths,
			reo.WithPartitioning(reo.PartitionRegions), reo.WithRemoteRegions(topo), reo.WithSeed(seed))
		if err == nil {
			inst.Close()
		}
		return err
	}
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); errA = mk("a", lnA, 1) }()
	go func() { defer wg.Done(); errB = mk("b", lnB, 2) }()
	wg.Wait()
	if errA == nil && errB == nil {
		t.Fatal("mismatched seeds connected cleanly; want identity refusal")
	}
	for _, err := range []error{errA, errB} {
		if err != nil && !strings.Contains(err.Error(), "identity mismatch") {
			t.Errorf("err %v, want identity mismatch", err)
		}
	}
}

// TestRemoteTopologyValidation pins the eager assignment checks: every
// mistake surfaces as *OptionError at Connect, before anything listens.
func TestRemoteTopologyValidation(t *testing.T) {
	prog := reo.MustCompile(pipelineProto)
	conn := prog.MustConnector("Pipeline")
	lengths := map[string]int{"out": 2, "in": 2}
	nodes := map[string]string{"a": "127.0.0.1:1", "b": "127.0.0.1:2"}
	cases := []struct {
		name string
		topo *reo.RemoteTopology
		want string
	}{
		{"empty node", &reo.RemoteTopology{Nodes: nodes, Regions: map[string][]int{"a": {0, 1}}}, "empty node"},
		{"unknown self", &reo.RemoteTopology{Node: "c", Nodes: nodes, Regions: map[string][]int{"a": {0, 1}}}, "no address"},
		{"unknown assignee", &reo.RemoteTopology{Node: "a", Nodes: nodes, Regions: map[string][]int{"a": {0}, "c": {1}}}, "no address"},
		{"region out of range", &reo.RemoteTopology{Node: "a", Nodes: nodes, Regions: map[string][]int{"a": {0, 99}}}, "out of range"},
		{"region unassigned", &reo.RemoteTopology{Node: "a", Nodes: nodes, Regions: map[string][]int{"a": {0}}}, "not assigned"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := conn.Connect(lengths,
				reo.WithPartitioning(reo.PartitionRegions), reo.WithRemoteRegions(tc.topo))
			var oe *reo.OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("err %v, want *OptionError", err)
			}
			if oe.Option != "WithRemoteRegions" {
				t.Errorf("Option = %q", oe.Option)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err %q, want substring %q", err, tc.want)
			}
		})
	}
}
