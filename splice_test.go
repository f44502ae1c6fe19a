package reo_test

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	reo "repro"
	"repro/internal/ca"
	"repro/internal/compile"
)

// seededChainProto is an 8-stage Fifo1 chain a → m1 … m7 → b whose third
// and sixth buffers start full. Region partitioning cuts every buffer; the
// seven relay vertices between them splice into one 8-place link, which
// starts with the two seeds, the one nearest b first.
const seededChainProto = `Chain(a;b) =
    prod (i:1..1) Fifo1(a;m1)
    mult prod (i:1..1) Fifo1(m1;m2)
    mult prod (i:1..1) Fifo1Full(m2;m3)
    mult prod (i:1..1) Fifo1(m3;m4)
    mult prod (i:1..1) Fifo1(m4;m5)
    mult prod (i:1..1) Fifo1Full(m5;m6)
    mult prod (i:1..1) Fifo1(m6;m7)
    mult prod (i:1..1) Fifo1(m7;b)
`

// seededChainSteps is what the unspliced chain counts once items sent
// values and both seeds have come out of b: a sent value fires a, hops
// over the seven relays and fires b (9 steps); the seed of the third
// buffer (chain link 2) hops over the five relays after it and fires b,
// the seed of the sixth (link 5) hops over two. In the scalar lanes every
// one of these steps also costs one guard evaluation.
func seededChainSteps(items int) int64 {
	return int64(9*items + (5 + 1) + (2 + 1))
}

// driveSeededChain sends items ints into a and returns the items+2 values
// b delivers (the two seeds first): by scalar Send and Recv when k is 1,
// in batches of k otherwise, the last of each side's batches ragged.
func driveSeededChain(t *testing.T, inst *reo.Instance, items, k int) []any {
	t.Helper()
	sent := make(chan error, 1)
	go func() {
		out := inst.Outport("a")
		vals := make([]any, k)
		for i := 0; i < items; i += k {
			n := min(k, items-i)
			for j := range n {
				vals[j] = i + j
			}
			var err error
			if k == 1 {
				err = out.Send(vals[0])
			} else {
				err = out.SendBatch(vals[:n])
			}
			if err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	in := inst.Inport("b")
	got := make([]any, items+2)
	for i := 0; i < len(got); {
		var err error
		if k == 1 {
			got[i], err = in.Recv()
			i++
		} else {
			var n int
			n, err = in.RecvBatch(got[i:min(i+k, len(got))])
			i += n
		}
		if err != nil {
			t.Fatalf("b recv %d: %v", i, err)
		}
	}
	if err := <-sent; err != nil {
		t.Fatalf("a send: %v", err)
	}
	return got
}

// TestRegionsSplicedChain: the seeded 8-stage chain, its relays spliced
// into one link, delivers exactly the single-engine (PartitionOff)
// sequence — synchronously, on a 2-worker runtime, and again after
// WithReuse recycling re-seeds the link. The counters read as the
// unspliced chain's, the seven relay regions report empty, and each
// region's traced step numbers run 1, 2, 3, ... with no gap, the spliced
// hops traced as internal steps of b's region.
func TestRegionsSplicedChain(t *testing.T) {
	const items = 300
	conn := reo.MustCompile(seededChainProto).MustConnector("Chain")
	ref, err := conn.Connect(nil, reo.WithPartitioning(reo.PartitionOff))
	if err != nil {
		t.Fatal(err)
	}
	want := driveSeededChain(t, ref, items, 1)
	ref.Close()
	if want[0] != want[1] || want[2] != 0 || want[items+1] != items-1 {
		t.Fatalf("reference sequence starts %v … ends %v: want two seeds, then 0..%d", want[:3], want[items+1], items-1)
	}

	rt := reo.NewRuntime(2)
	defer rt.Close()
	for _, lane := range []struct {
		name string
		opts []reo.ConnectOption
	}{
		{"sync", []reo.ConnectOption{reo.WithSeed(7)}},
		{"runtime", []reo.ConnectOption{reo.WithSeed(7), reo.WithRuntime(rt)}},
	} {
		t.Run(lane.name, func(t *testing.T) {
			inst, err := conn.Connect(nil, append(lane.opts, reo.WithPartitioning(reo.PartitionRegions))...)
			if err != nil {
				t.Fatal(err)
			}
			spliced := 0
			for _, r := range inst.Regions() {
				if r == (reo.RegionInfo{Worker: -1}) {
					spliced++
				}
			}
			if n := len(inst.Regions()); n != 9 || spliced != 7 {
				t.Fatalf("%d regions, %d of them spliced relays; want 9 and 7", n, spliced)
			}
			var mu sync.Mutex
			var trace []string
			inst.SetTracer(func(s string) {
				mu.Lock()
				trace = append(trace, s)
				mu.Unlock()
			})
			got := driveSeededChain(t, inst, items, 1)
			inst.Close() // takes every region's lock: the counters are final
			if !reflect.DeepEqual(got, want) {
				t.Errorf("b sequence diverged from PartitionOff:\n got  %v\n want %v", got, want)
			}
			wantSteps := seededChainSteps(items)
			if s, g := inst.Steps(), inst.GuardEvals(); s != wantSteps || g != wantSteps {
				t.Errorf("Steps() = %d, GuardEvals() = %d; want %d each", s, g, wantSteps)
			}
			checkChainTrace(t, trace, items)
		})
	}

	t.Run("reuse", func(t *testing.T) {
		opts := []reo.ConnectOption{reo.WithSeed(7), reo.WithPartitioning(reo.PartitionRegions), reo.WithReuse(true)}
		for life := 0; life < 3; life++ {
			inst, err := conn.Connect(nil, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if s := inst.Steps(); s != 0 {
				t.Errorf("life %d: Steps() = %d before any operation, want 0", life, s)
			}
			got := driveSeededChain(t, inst, items, 1)
			inst.Close()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("life %d: b sequence diverged from PartitionOff:\n got  %v\n want %v", life, got, want)
			}
		}
	})
}

// checkChainTrace checks the rendered trace of one seeded-chain run: a's
// region numbers its items steps 1..items, and b's region its own
// items+2 steps together with the spliced hops (internal, "τ") 1..n with
// no gap, each step a hop or one port's event.
func checkChainTrace(t *testing.T, trace []string, items int) {
	t.Helper()
	steps := map[string][]int64{}
	for _, ev := range trace {
		num, rest, ok := strings.Cut(strings.TrimPrefix(ev, "step "), ": ")
		n, err := strconv.ParseInt(num, 10, 64)
		if !ok || err != nil {
			t.Fatalf("unparsable trace event %q", ev)
		}
		who := "b" // a spliced hop, counted by b's region
		switch {
		case rest == "τ":
		case strings.HasPrefix(rest, "{a") && !strings.Contains(rest, ", "):
			who = "a"
		case !strings.HasPrefix(rest, "{b") || strings.Contains(rest, ", "):
			t.Fatalf("trace event %q: want a hop or one boundary port", ev)
		}
		steps[who] = append(steps[who], n)
	}
	for who, n := range map[string]int64{"a": int64(items), "b": seededChainSteps(items) - int64(items)} {
		got := steps[who]
		slices.Sort(got)
		gapFree := int64(len(got)) == n
		for i := 0; gapFree && i < len(got); i++ {
			gapFree = got[i] == int64(i+1)
		}
		if !gapFree {
			t.Errorf("%s's region traced %d steps %s, want 1..%d once each", who, len(got), fmt.Sprint(got[:min(len(got), 12)]), n)
		}
	}
}

// TestRemoteTracerSplicedChain places relayChainProto's chain a → m1 → m2
// → m3 → b with a, m1 and m2 on node a and m3 and b on node b. On node a
// the relay m1 splices into a link a → m2, and m2, whose outbound link is
// a half link, pops that link in its fire loop, counting m1's hop with
// its own. The delivered sequence and the step total equal the in-process
// run's. A tracer installed on both nodes — whose coordinators hold no
// engine for the remote and the spliced regions — sees every step once,
// and once cleared sees none.
func TestRemoteTracerSplicedChain(t *testing.T) {
	const items = 60
	prog := reo.MustCompile(relayChainProto)
	ref, err := prog.MustConnector("Chain").Connect(nil, reo.WithPartitioning(reo.PartitionRegions), reo.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	wantOut := driveRelayChain(t, func(string, int) *reo.Instance { return ref }, items, 1)
	wantSteps := settleSteps(ref.Steps)
	ref.Close()

	// Order the chain's regions from a's, which no link enters.
	prefix := func(_ *compile.Assembly, plan *ca.RegionPlan) []string {
		next := make([]int, len(plan.Regions))
		entered := make([]bool, len(plan.Regions))
		for _, lk := range plan.Links {
			next[lk.From] = lk.To
			entered[lk.To] = true
		}
		r := slices.Index(entered, false)
		node := make([]string, len(plan.Regions))
		for i := range node {
			node[r] = "a"
			if i >= 3 {
				node[r] = "b"
			}
			r = next[r]
		}
		return node
	}
	pair := connectPlaced(t, prog, "Chain", nil, prefix, nil, reo.WithSeed(7))
	if pair.wireLinks != 1 {
		t.Fatalf("split cut %d cross-node links, want 1", pair.wireLinks)
	}
	var mu sync.Mutex
	events := map[*reo.Instance]int64{}
	for _, inst := range []*reo.Instance{pair.a, pair.b} {
		inst.SetTracer(func(string) {
			mu.Lock()
			events[inst]++
			mu.Unlock()
		})
	}
	out := driveRelayChain(t, pair.inst, items, 1)
	if !reflect.DeepEqual(out, wantOut) {
		t.Errorf("b sequence diverged:\n remote %v\n local  %v", out, wantOut)
	}
	waitSteps(t, pair, wantSteps)
	relays, absent := 0, 0
	for _, r := range pair.a.Regions() {
		switch {
		case r.Links == 2:
			relays++
			if r.Steps != 2*items || r.GuardEvals != 2*items {
				t.Errorf("relay m2: %d steps, %d guard evaluations; want %d each (its own hop and the spliced m1's)",
					r.Steps, r.GuardEvals, 2*items)
			}
		case r == reo.RegionInfo{Worker: -1}:
			absent++ // m1, spliced, and m3 and b, which node b hosts
		}
	}
	if relays != 1 || absent != 3 {
		t.Errorf("node a runs %d relays and holds no engine for %d regions, want 1 and 3", relays, absent)
	}
	mu.Lock()
	for _, inst := range []*reo.Instance{pair.a, pair.b} {
		if events[inst] != inst.Steps() {
			t.Errorf("%d trace events for %d steps on one node", events[inst], inst.Steps())
		}
	}
	mu.Unlock()

	for _, inst := range []*reo.Instance{pair.a, pair.b} {
		inst.SetTracer(nil)
	}
	before := pair.steps()
	go pair.a.Outport("a").Send(-1)
	if v, err := pair.b.Inport("b").Recv(); err != nil || v != -1 {
		t.Fatalf("recv after clearing the tracers = %v, %v", v, err)
	}
	waitSteps(t, pair, before+5)
	mu.Lock()
	defer mu.Unlock()
	if n := events[pair.a] + events[pair.b]; n != before {
		t.Errorf("%d trace events after clearing the tracers, want none", n-before)
	}
}
