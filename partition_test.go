// Differential tests for asynchronous-region partitioning: for
// deterministic protocols, PartitionRegions must deliver exactly the
// per-port value sequences of the single-engine run — the observational
// equivalence the region cut promises (cross-region interleaving may
// differ, per-port sequences may not).
package reo_test

import (
	"fmt"
	"sync"
	"testing"

	reo "repro"
	"repro/internal/connlib"
)

// pipelineProto is a stage-coupled pipeline: one buffered lane per hop,
// tasks attached between hops (the examples/pipeline "Lanes" shape).
const pipelineProto = `
Pipeline(src,out[];in[],snk) =
    Fifo1(src;in[1])
    mult prod (i:1..#out-1) Fifo1(out[i];in[i+1])
    mult Fifo1(out[#out];snk)
`

// runPipeline pushes items through an n-stage pipeline (each stage
// applies a tagged transformation) and returns the sink sequence plus
// each stage's observed input sequence.
func runPipeline(t *testing.T, n, items int, opts ...reo.ConnectOption) (sink []any, stages [][]any) {
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
	return sink, stages
}

// runPipelineBatched is runPipeline with every task moving values
// through its ports in batches of the given size (ragged tail batches
// included), reusing one slice per task. batch=1 still exercises the
// batched entry points, pinning them to the scalar path's behavior.
func runPipelineBatched(t *testing.T, n, items, batch int, opts ...reo.ConnectOption) (sink []any, stages [][]any) {
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
		src := inst.Outport("src")
		vs := make([]any, batch)
		for sent := 0; sent < items; {
			k := batch
			if items-sent < k {
				k = items - sent
			}
			for j := 0; j < k; j++ {
				vs[j] = sent + j + 1
			}
			if err := src.SendBatch(vs[:k]); err != nil {
				t.Errorf("src send: %v", err)
				return
			}
			sent += k
		}
	}()
	snk := inst.Inport("snk")
	buf := make([]any, batch)
	for got := 0; got < items; {
		k := batch
		if items-got < k {
			k = items - got
		}
		m, err := snk.RecvBatch(buf[:k])
		if err != nil {
			t.Fatal(err)
		}
		sink = append(sink, buf[:m]...)
		got += m
	}
	wg.Wait()
	return sink, stages
}

// TestBatchedDifferential pins the tentpole's observational equivalence:
// for the deterministic pipeline protocol, batched port operations must
// deliver exactly the per-port value sequences of the scalar run, across
// every partition mode, with and without the worker scheduler, and for
// batch sizes that divide the stream raggedly.
func TestBatchedDifferential(t *testing.T) {
	const n, items = 4, 40
	wantSink, wantStages := runPipeline(t, n, items, reo.WithSeed(1))
	modes := []struct {
		name string
		opts []reo.ConnectOption
	}{
		{"off", []reo.ConnectOption{reo.WithSeed(1), reo.WithPartitioning(reo.PartitionOff)}},
		{"components", []reo.ConnectOption{reo.WithSeed(1), reo.WithPartitioning(reo.PartitionComponents)}},
		{"regions", []reo.ConnectOption{reo.WithSeed(1), reo.WithPartitioning(reo.PartitionRegions)}},
		// WithWorkers outside PartitionRegions is an eager OptionError now
		// (api_test.go); only the regions runtimes are exercised here.
		{"regions+workers", []reo.ConnectOption{reo.WithSeed(1), reo.WithPartitioning(reo.PartitionRegions), reo.WithWorkers(-1)}},
		{"regions+runtime", []reo.ConnectOption{reo.WithSeed(1), reo.WithPartitioning(reo.PartitionRegions), reo.WithRuntime(nil)}},
		{"regions+runtime+reuse", []reo.ConnectOption{reo.WithSeed(1), reo.WithPartitioning(reo.PartitionRegions), reo.WithRuntime(nil), reo.WithReuse(true)}},
	}
	for _, m := range modes {
		for _, batch := range []int{1, 3, 8, 64} {
			gotSink, gotStages := runPipelineBatched(t, n, items, batch, m.opts...)
			if fmt.Sprint(gotSink) != fmt.Sprint(wantSink) {
				t.Errorf("%s/batch=%d: sink sequence differs:\nbatched: %v\nscalar:  %v\n%s",
					m.name, batch, gotSink, wantSink, reproCmd(t, 1))
			}
			for i := range wantStages {
				if fmt.Sprint(gotStages[i]) != fmt.Sprint(wantStages[i]) {
					t.Errorf("%s/batch=%d: stage %d input sequence differs:\nbatched: %v\nscalar:  %v\n%s",
						m.name, batch, i, gotStages[i], wantStages[i], reproCmd(t, 1))
				}
			}
		}
	}
}

// TestBatchedDifferentialAlternator checks a connector whose merge order
// is protocol-forced: the strict cyclic output sequence must survive
// batched senders of unequal batch sizes.
func TestBatchedDifferentialAlternator(t *testing.T) {
	const n, rounds = 4, 24
	want := runAlternator(t, n, rounds, reo.WithSeed(7))
	d, err := connlib.ByName("Alternator")
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{2, 5} {
		inst, err := d.Connect(n, reo.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i, out := range inst.Outports("in") {
			wg.Add(1)
			go func(i int, out reo.Outport) {
				defer wg.Done()
				vs := make([]any, batch)
				for r := 0; r < rounds; {
					k := batch
					if rounds-r < k {
						k = rounds - r
					}
					for j := 0; j < k; j++ {
						vs[j] = (i+1)*1000 + r + j
					}
					if err := out.SendBatch(vs[:k]); err != nil {
						t.Errorf("sender %d: %v", i, err)
						return
					}
					r += k
				}
			}(i, out)
		}
		var got []any
		in := inst.Inport("out")
		buf := make([]any, 3)
		for len(got) < n*rounds {
			k := n*rounds - len(got)
			if k > len(buf) {
				k = len(buf)
			}
			m, err := in.RecvBatch(buf[:k])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, buf[:m]...)
		}
		wg.Wait()
		inst.Close()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("batch=%d: output sequence differs:\nbatched: %v\nscalar:  %v\n%s", batch, got, want, reproCmd(t, 7))
		}
	}
}

func TestRegionsDifferentialPipeline(t *testing.T) {
	const n, items = 4, 40
	wantSink, wantStages := runPipeline(t, n, items, reo.WithSeed(1))
	modes := []struct {
		name string
		opts []reo.ConnectOption
	}{
		{"synchronous", []reo.ConnectOption{reo.WithSeed(1), reo.WithPartitioning(reo.PartitionRegions)}},
		{"workers", []reo.ConnectOption{reo.WithSeed(1), reo.WithPartitioning(reo.PartitionRegions), reo.WithWorkers(-1)}},
	}
	for _, m := range modes {
		gotSink, gotStages := runPipeline(t, n, items, m.opts...)
		if fmt.Sprint(gotSink) != fmt.Sprint(wantSink) {
			t.Errorf("%s: sink sequence differs:\nregions: %v\nsingle:  %v\n%s", m.name, gotSink, wantSink, reproCmd(t, 1))
		}
		for i := range wantStages {
			if fmt.Sprint(gotStages[i]) != fmt.Sprint(wantStages[i]) {
				t.Errorf("%s: stage %d input sequence differs:\nregions: %v\nsingle:  %v\n%s",
					m.name, i, gotStages[i], wantStages[i], reproCmd(t, 1))
			}
		}
	}
}

// runAlternator drives connlib's Alternator (senders tag their values)
// and returns the merged output sequence, which the connector forces
// into strict cyclic sender order.
func runAlternator(t *testing.T, n, rounds int, opts ...reo.ConnectOption) []any {
	t.Helper()
	d, err := connlib.ByName("Alternator")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := d.Connect(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	var wg sync.WaitGroup
	for i, out := range inst.Outports("in") {
		wg.Add(1)
		go func(i int, out reo.Outport) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := out.Send((i+1)*1000 + r); err != nil {
					t.Errorf("sender %d: %v", i, err)
					return
				}
			}
		}(i, out)
	}
	var got []any
	in := inst.Inport("out")
	for k := 0; k < n*rounds; k++ {
		v, err := in.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	wg.Wait()
	return got
}

func TestRegionsDifferentialAlternator(t *testing.T) {
	const n, rounds = 4, 20
	want := runAlternator(t, n, rounds, reo.WithSeed(7))
	got := runAlternator(t, n, rounds, reo.WithSeed(7),
		reo.WithPartitioning(reo.PartitionRegions))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("output sequence differs:\nregions: %v\nsingle:  %v\n%s", got, want, reproCmd(t, 7))
	}
	gotW := runAlternator(t, n, rounds, reo.WithSeed(7),
		reo.WithPartitioning(reo.PartitionRegions), reo.WithWorkers(2))
	if fmt.Sprint(gotW) != fmt.Sprint(want) {
		t.Errorf("output sequence differs:\nworkers: %v\nsingle:  %v\n%s", gotW, want, reproCmd(t, 7))
	}
}

// TestWorkersInstanceSurface pins the public worker-scheduler surface:
// Workers() reporting, per-region Worker assignment, and Close of a
// live worker instance.
func TestWorkersInstanceSurface(t *testing.T) {
	d, err := connlib.ByName("Sequencer")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := d.Connect(4, reo.WithPartitioning(reo.PartitionRegions), reo.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	sendEach(t, inst, 25)
	if inst.Workers() != 2 {
		t.Errorf("Workers() = %d, want 2", inst.Workers())
	}
	for ri, info := range inst.Regions() {
		if info.Worker < 0 || info.Worker >= 2 {
			t.Errorf("region %d: worker %d out of range [0,2)", ri, info.Worker)
		}
	}
	if inst.Steps() == 0 {
		t.Error("no steps fired on the worker pool")
	}
	inst.Close()

	// Without workers (and without region partitioning) the surface
	// reports no pool and no assignment.
	single, err := d.Connect(4)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if single.Workers() != 0 {
		t.Errorf("single-engine Workers() = %d, want 0", single.Workers())
	}
	if got := single.Regions()[0].Worker; got != -1 {
		t.Errorf("single-engine region worker = %d, want -1", got)
	}
}

// sendEach has every client of a Sequencer instance send ops times and
// returns when the last Send has returned: the sequencer serves its
// clients in turn, so equal counts all finish.
func sendEach(t *testing.T, inst *reo.Instance, ops int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(inst.Outports("c")))
	for _, c := range inst.Outports("c") {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if err := c.Send(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRegionCounts pins the region decomposition of the cut-friendly
// connlib connectors at N=8 (the acceptance shape: pipeline/ring-style
// connectors must split into ≥ 2 regions).
func TestRegionCounts(t *testing.T) {
	cases := []struct {
		connector string
		regions   int
	}{
		{"Sequencer", 8},        // one region per drain, ring of links
		{"TokenRing", 8},        // one region per replicator
		{"Alternator", 2},       // drain chain | merge side
		{"EarlyAsyncMerger", 9}, // 8 source nodes + merger
		{"LateAsyncMerger", 2},
		{"Discriminator", 9},
		// Single-region connectors: every buffer is either spanned by
		// synchronous couplings or folded into a compile-time medium
		// product (Lock's Fifo1Full shares a level with its SyncDrain).
		{"Lock", 1},
		{"Barrier", 1},
		{"OrderedMany2One", 1},
	}
	for _, c := range cases {
		d, err := connlib.ByName(c.connector)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := d.Connect(8, reo.WithPartitioning(reo.PartitionRegions))
		if err != nil {
			t.Fatalf("%s: %v", c.connector, err)
		}
		if got := inst.Partitions(); got != c.regions {
			t.Errorf("%s at N=8: %d regions, want %d", c.connector, got, c.regions)
		}
		inst.Close()
	}

	// The pipeline protocol splits at every lane.
	prog := reo.MustCompile(pipelineProto)
	inst, err := prog.MustConnector("Pipeline").Connect(
		map[string]int{"out": 8, "in": 8}, reo.WithPartitioning(reo.PartitionRegions))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if got := inst.Partitions(); got < 2 {
		t.Errorf("Pipeline at N=8: %d regions, want >= 2", got)
	}
}

// TestRegionsInstanceStats exercises the public Regions() surface under
// all three partition modes.
func TestRegionsInstanceStats(t *testing.T) {
	d, err := connlib.ByName("Sequencer")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []reo.PartitionMode{reo.PartitionOff, reo.PartitionComponents, reo.PartitionRegions} {
		inst, err := d.Connect(4, reo.WithPartitioning(mode))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		sendEach(t, inst, 25)
		inst.Close()
		// Snapshot after Close: the engines are quiescent, so the
		// per-region sums must match the aggregate exactly.
		infos := inst.Regions()
		if len(infos) != inst.Partitions() {
			t.Errorf("%v: Regions() has %d entries, Partitions() = %d", mode, len(infos), inst.Partitions())
		}
		var steps int64
		links := 0
		for _, in := range infos {
			steps += in.Steps
			links += in.Links
		}
		if steps != inst.Steps() {
			t.Errorf("%v: region steps sum %d != instance steps %d", mode, steps, inst.Steps())
		}
		if mode == reo.PartitionRegions {
			if links == 0 {
				t.Errorf("%v: no link endpoints reported", mode)
			}
			if inst.Partitions() != 4 {
				t.Errorf("%v: partitions = %d, want 4", mode, inst.Partitions())
			}
		} else if links != 0 {
			t.Errorf("%v: links = %d, want 0", mode, links)
		}
	}
}

// TestComponentPartitioning pins PartitionComponents splitting disjoint
// buffers into one engine each (the combination the removed boolean
// shim used to select).
func TestComponentPartitioning(t *testing.T) {
	prog := reo.MustCompile(`Buffers(in[];out[]) = prod (i:1..#in) Fifo1(in[i];out[i])`)
	inst, err := prog.MustConnector("Buffers").Connect(
		map[string]int{"in": 3, "out": 3}, reo.WithPartitioning(reo.PartitionComponents))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if inst.Partitions() != 3 {
		t.Errorf("partitions = %d, want 3 (one component per disjoint buffer)", inst.Partitions())
	}
}
