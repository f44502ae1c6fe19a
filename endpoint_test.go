package reo_test

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	reo "repro"
	"repro/internal/ca"
	"repro/internal/compile"
)

// endpointPorts returns, sorted, the boundary ports of conn whose regions
// in inst, a PartitionRegions instance of conn, are endpoints.
func endpointPorts(t *testing.T, conn *reo.Connector, inst *reo.Instance) []string {
	t.Helper()
	asm, err := conn.Template().Instantiate(nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := ca.PlanRegions(asm.U, asm.Auts)
	owner := plan.PortRegions(asm.U, asm.Auts)
	regions := inst.Regions()
	var got []string
	for _, ends := range []map[string][]ca.PortID{asm.Tails, asm.Heads} {
		for _, ports := range ends {
			for _, p := range ports {
				if regions[owner[p]].Endpoint {
					got = append(got, asm.U.Name(p))
				}
			}
		}
	}
	slices.Sort(got)
	return got
}

// TestRegionsEndpointClassification: a region holding only the node of a
// task's port and exactly one link to a region of this process is an
// endpoint — both ends of the spliced chain, the sinks behind a fan-out
// node or a fan-out relay, the source in front of a region holding a
// constituent. The fan-out node and relay themselves, the constituent's
// region and an end whose one link is a half link to another process are
// not. An endpoint reports its node and its one link.
func TestRegionsEndpointClassification(t *testing.T) {
	for _, c := range []struct {
		name, src string
		want      []string
	}{
		{"chain", seededChainProto, []string{"a", "b"}},
		{"fan-out node", `Chain(a;x,y) =
    prod (i:1..1) Fifo1(a;x)
    mult prod (i:1..1) Fifo1(a;y)
`, []string{"x", "y"}},
		{"fan-out relay", `Chain(a;x,y) =
    prod (i:1..1) Fifo1(a;m)
    mult prod (i:1..1) Fifo1(m;x)
    mult prod (i:1..1) Fifo1(m;y)
`, []string{"a", "x", "y"}},
		{"constituent", `Chain(a;b) =
    prod (i:1..1) Fifo1(a;m)
    mult prod (i:1..1) Sync(m;b)
`, []string{"a"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			conn := reo.MustCompile(c.src).MustConnector("Chain")
			inst, err := conn.Connect(nil, reo.WithPartitioning(reo.PartitionRegions))
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			if got := endpointPorts(t, conn, inst); !slices.Equal(got, c.want) {
				t.Errorf("endpoint ports %v, want %v", got, c.want)
			}
			for ri, r := range inst.Regions() {
				if r.Endpoint && (r.Constituents != 1 || r.Links != 1) {
					t.Errorf("endpoint region %d: %d constituents, %d links; want its node and one link", ri, r.Constituents, r.Links)
				}
			}
		})
	}

	// relayChainProto with a's region alone on node a, then b's alone on
	// node b: the lone end's one link is a half link, while the other end
	// is still an endpoint behind the links its node splices.
	prog := reo.MustCompile(relayChainProto)
	for lone, other := range map[string]string{"a": "b", "b": "a"} {
		t.Run("half link "+lone, func(t *testing.T) {
			place := func(asm *compile.Assembly, plan *ca.RegionPlan) []string {
				p := asm.Tails["a"][0]
				if lone == "b" {
					p = asm.Heads["b"][0]
				}
				node := make([]string, len(plan.Regions))
				for ri := range node {
					node[ri] = other
				}
				node[plan.PortRegions(asm.U, asm.Auts)[p]] = lone
				return node
			}
			pair := connectPlaced(t, prog, "Chain", nil, place, nil, reo.WithSeed(7))
			a := pair.a.Regions()[pair.region["a/0"]]
			b := pair.b.Regions()[pair.region["b/0"]]
			if a.Endpoint != (lone == "b") || b.Endpoint != (lone == "a") {
				t.Errorf("a's region endpoint %v, b's %v; want only the end with an in-process link", a.Endpoint, b.Endpoint)
			}
			want := make([]any, 20)
			for i := range want {
				want[i] = i
			}
			if got := driveRelayChain(t, pair.inst, len(want), 1); !slices.Equal(got, want) {
				t.Errorf("b delivered %v, want %v", got, want)
			}
		})
	}
}

// TestRegionsEndpointChain streams the seeded 8-stage chain — its relays
// spliced into one link, its two ends endpoints — scalar and in batches
// of 64, synchronously and on a 2-worker runtime. b delivers the
// PartitionOff sequence; Steps are exactly the unspliced chain's, and
// scalar GuardEvals equal them (a batched run counts one guard evaluation
// per run of items, not per item); the instance expands no state and
// compiles no plan; the trace numbers each region's steps without a gap,
// one port's event per item. Three WithReuse lives replay the first, and
// an AOT instance expands nothing ahead of time either.
func TestRegionsEndpointChain(t *testing.T) {
	const items = 320
	conn := reo.MustCompile(seededChainProto).MustConnector("Chain")
	ref, err := conn.Connect(nil, reo.WithPartitioning(reo.PartitionOff))
	if err != nil {
		t.Fatal(err)
	}
	want := driveSeededChain(t, ref, items, 1)
	ref.Close()

	rt := reo.NewRuntime(2)
	defer rt.Close()
	type result struct {
		seq               []any
		steps, guardEvals int64
	}
	run := func(t *testing.T, k int, opts ...reo.ConnectOption) result {
		t.Helper()
		inst, err := conn.Connect(nil, append(opts, reo.WithSeed(7), reo.WithPartitioning(reo.PartitionRegions))...)
		if err != nil {
			t.Fatal(err)
		}
		if got := endpointPorts(t, conn, inst); !slices.Equal(got, []string{"a", "b"}) {
			t.Fatalf("endpoint ports %v, want [a b]", got)
		}
		var mu sync.Mutex
		var trace []string
		inst.SetTracer(func(s string) {
			mu.Lock()
			trace = append(trace, s)
			mu.Unlock()
		})
		r := result{seq: driveSeededChain(t, inst, items, k)}
		// Clearing the tracer takes every region's lock, so the counters
		// are final; Close would recycle a WithReuse instance, zeroing them.
		inst.SetTracer(nil)
		r.steps, r.guardEvals = inst.Steps(), inst.GuardEvals()
		expansions, plans := inst.Expansions(), inst.PlansCompiled()
		inst.Close()
		if !reflect.DeepEqual(r.seq, want) {
			t.Errorf("b sequence diverged from PartitionOff:\n got  %v\n want %v", r.seq, want)
		}
		if wantSteps := seededChainSteps(items); r.steps != wantSteps {
			t.Errorf("Steps() = %d, want %d", r.steps, wantSteps)
		}
		hops := int64(7*items + 5 + 2) // seven per item, five and two for the seeds
		if k == 1 && r.guardEvals != r.steps {
			t.Errorf("GuardEvals() = %d, want Steps() = %d", r.guardEvals, r.steps)
		} else if r.guardEvals <= hops || r.guardEvals > r.steps {
			t.Errorf("GuardEvals() = %d, want the %d hops, at least one run per end, at most Steps() = %d", r.guardEvals, hops, r.steps)
		}
		if expansions != 0 || plans != 0 {
			t.Errorf("%d expansions, %d plans compiled; want none", expansions, plans)
		}
		checkChainTrace(t, trace, items)
		return r
	}
	for _, k := range []int{1, 64} {
		t.Run(fmt.Sprintf("sync/k%d", k), func(t *testing.T) { run(t, k) })
		t.Run(fmt.Sprintf("runtime/k%d", k), func(t *testing.T) { run(t, k, reo.WithRuntime(rt)) })
		t.Run(fmt.Sprintf("reuse/k%d", k), func(t *testing.T) {
			first := run(t, k, reo.WithRuntime(rt), reo.WithReuse(true))
			for life := 1; life < 3; life++ {
				r := run(t, k, reo.WithRuntime(rt), reo.WithReuse(true))
				if k > 1 {
					// How the batches split into runs depends on timing.
					r.guardEvals = first.guardEvals
				}
				if !reflect.DeepEqual(r, first) {
					t.Errorf("life %d: %d steps, %d guard evaluations; want the first life's %d and %d",
						life, r.steps, r.guardEvals, first.steps, first.guardEvals)
				}
			}
		})
		t.Run(fmt.Sprintf("aot/k%d", k), func(t *testing.T) { run(t, k, reo.WithMode(reo.AOT)) })
	}
}
