package reo_test

import (
	"reflect"
	"sync"
	"testing"

	reo "repro"
	"repro/internal/engine"
)

// mixProto keeps three constituents (a buffer alone in a prod body is not
// folded into a medium product) and a merge choice, so a seeded run has
// a choice stream to replay.
const mixProto = `Mix(a,c;b) =
    prod (i:1..1) Fifo1(a;m)
    mult prod (i:1..1) Fifo1(c;n)
    mult prod (i:1..1) Merger(m,n;b)
`

// TestOneRegionSurface: an instance whose plan is one region — under
// PartitionOff, under WithMode(Static), and a PartitionRegions Fifo1(a;b)
// on a 2-worker runtime — reports one partition whose counters are the
// instance's, the pool it runs on, a trace event per step, and, recycled
// WithReuse, zeroed counters and the first run's sequence again. Under
// PartitionOff the region is the plain engine with the same seed: it
// delivers engine.New's sequence with its counters. Under Static its one
// region executes the one product automaton, while Constituents still
// counts the instantiated automata.
func TestOneRegionSurface(t *testing.T) {
	const rounds = 40
	rt := reo.NewRuntime(2)
	defer rt.Close()
	for _, c := range []struct {
		name, src, conn   string
		tails             []string
		opts              []reo.ConnectOption
		workers, regionCs int
	}{
		{"off", mixProto, "Mix", []string{"a", "c"}, []reo.ConnectOption{reo.WithPartitioning(reo.PartitionOff)}, 0, 3},
		{"static", mixProto, "Mix", []string{"a", "c"}, []reo.ConnectOption{reo.WithMode(reo.Static)}, 0, 1},
		{"regions-runtime", "Buf(a;b) = Fifo1(a;b)\n", "Buf", []string{"a"},
			[]reo.ConnectOption{reo.WithPartitioning(reo.PartitionRegions), reo.WithRuntime(rt)}, 2, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			conn := reo.MustCompile(c.src).MustConnector(c.conn)
			opts := append([]reo.ConnectOption{reo.WithSeed(7), reo.WithReuse(true)}, c.opts...)
			type run struct {
				seq                           []any
				steps, expansions, guardEvals int64
			}
			var first run
			var firstInst *reo.Instance
			drive := func(send func(p string, v any) error, recv func() (any, error)) (seq []any) {
				for i := 0; i < rounds; i++ {
					for k, p := range c.tails {
						if err := send(p, i*10+k); err != nil {
							t.Fatalf("send %s: %v", p, err)
						}
					}
					for range c.tails {
						v, err := recv()
						if err != nil {
							t.Fatalf("recv b: %v", err)
						}
						seq = append(seq, v)
					}
				}
				return seq
			}
			for life := 0; life < 2; life++ {
				inst, err := conn.Connect(nil, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if life == 0 {
					firstInst = inst
				} else if inst != firstInst {
					t.Fatal("second Connect built a fresh instance instead of recycling the first")
				}
				if s, e, g := inst.Steps(), inst.Expansions(), inst.GuardEvals(); life > 0 && s+e+g != 0 {
					t.Errorf("life %d starts at %d steps, %d expansions, %d guard evaluations; want 0", life, s, e, g)
				}
				if got := inst.Partitions(); got != 1 {
					t.Errorf("Partitions() = %d, want 1", got)
				}
				if got := inst.Workers(); got != c.workers {
					t.Errorf("Workers() = %d, want %d", got, c.workers)
				}
				if got, want := inst.Constituents(), len(inst.Automata()); got != want {
					t.Errorf("Constituents() = %d, want len(Automata()) = %d", got, want)
				}
				var mu sync.Mutex
				events := 0
				inst.SetTracer(func(string) {
					mu.Lock()
					events++
					mu.Unlock()
				})
				r := run{seq: drive(func(p string, v any) error { return inst.Outport(p).Send(v) }, inst.Inport("b").Recv)}
				// Clearing the tracer takes the region's lock, so the
				// counters are final; Close recycles the instance.
				inst.SetTracer(nil)
				r.steps, r.expansions, r.guardEvals = inst.Steps(), inst.Expansions(), inst.GuardEvals()
				regions := inst.Regions()
				if len(regions) != 1 {
					t.Fatalf("Regions() has %d entries, want 1", len(regions))
				}
				reg := regions[0]
				if reg.Steps != r.steps || reg.Expansions != r.expansions || reg.GuardEvals != r.guardEvals {
					t.Errorf("region counters %d/%d/%d, instance %d/%d/%d (steps/expansions/guard evaluations)",
						reg.Steps, reg.Expansions, reg.GuardEvals, r.steps, r.expansions, r.guardEvals)
				}
				if reg.Constituents != c.regionCs || reg.Links != 0 || reg.Endpoint {
					t.Errorf("region: %d constituents, %d links, endpoint %v; want %d, 0, false",
						reg.Constituents, reg.Links, reg.Endpoint, c.regionCs)
				}
				if wantHome := c.workers > 0; (reg.Worker >= 0) != wantHome {
					t.Errorf("region worker %d with a %d-worker pool", reg.Worker, c.workers)
				}
				if int64(events) != r.steps {
					t.Errorf("%d trace events, want Steps() = %d", events, r.steps)
				}
				if err := inst.Close(); err != nil {
					t.Fatal(err)
				}
				if life == 0 {
					first = r
					continue
				}
				// A recycled instance keeps its composite-state cache, so
				// only Expansions may differ from the first life's.
				r.expansions = first.expansions
				if !reflect.DeepEqual(r, first) {
					t.Errorf("recycled life: %+v, want the first life's %+v", r, first)
				}
			}
			if c.name != "off" {
				return
			}
			asm, err := conn.Template().Instantiate(nil)
			if err != nil {
				t.Fatal(err)
			}
			e, err := engine.New(asm.U, asm.Auts, engine.Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			plain := run{seq: drive(func(p string, v any) error { return e.Send(asm.Tails[p][0], v) },
				func() (any, error) { return e.Recv(asm.Heads["b"][0]) })}
			plain.steps, plain.expansions, plain.guardEvals = e.Steps(), e.Expansions(), e.GuardEvals()
			if !reflect.DeepEqual(first, plain) {
				t.Errorf("PartitionOff run %+v, want engine.New's %+v", first, plain)
			}
		})
	}
}
