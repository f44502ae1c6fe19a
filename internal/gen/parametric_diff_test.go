package gen_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	reo "repro"
	"repro/internal/gen"
	"repro/internal/gen/gendrv"
	"repro/internal/genlib/fabric"
	"repro/internal/genlib/msfabric"
	"repro/internal/genlib/xfab"
)

// The parametric differential suite: each checked-in generated package
// (internal/genlib/{fabric,xfab,msfabric}) runs the same deterministic
// schedule as an interpreted twin built from the identical source with
// region partitioning, and must agree on every per-port value sequence,
// on Steps, and on GuardEvals. The suite deliberately includes an N
// outside the generator's probe lengths — the whole point of generating
// per region shape instead of per length.

// parametricSrc returns the checked-in .reo source next to genlib.
func parametricSrc(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "genlib", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestGoldenParametric pins the generator's output byte-for-byte
// against the checked-in genlib packages.
func TestGoldenParametric(t *testing.T) {
	cases := []struct {
		reoFile, connector, pkg string
		funcs                   reo.Funcs
		templates               int
	}{
		{"fabric.reo", "Fabric", "fabric", reo.Funcs{}, 1},
		{"xfab.reo", "XFab", "xfab", reo.Funcs{Filters: gendrv.TestFilters(), Transformers: gendrv.TestXforms()}, 2},
		{"msfabric.reo", "MSFabric", "msfabric", reo.Funcs{}, 1},
	}
	for _, c := range cases {
		t.Run(c.pkg, func(t *testing.T) {
			g, err := gen.GenerateParametric(parametricSrc(t, c.reoFile), gen.Config{
				Connector: c.connector,
				Package:   c.pkg,
				Funcs:     c.funcs,
			})
			if err != nil {
				t.Fatal(err)
			}
			goldenPath := filepath.Join("..", "genlib", c.pkg, c.pkg+"_gen.go")
			golden, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g.File, golden) {
				t.Errorf("generated output differs from %s; run `go generate ./internal/genlib` and commit the result", goldenPath)
			}
			if g.Templates != c.templates {
				t.Errorf("%s generated %d region templates, want %d", c.connector, g.Templates, c.templates)
			}
		})
	}
}

// interpretedFabric builds the interpreted twin of a genlib connector:
// same source, same funcs, same seed, region partitioning (the
// decomposition genrun always uses), so the two backends are
// structurally identical down to the per-region RNG streams.
func interpretedTwin(t *testing.T, reoFile, connector string, lengths map[string]int, funcs reo.Funcs, extra ...reo.ConnectOption) reo.Backend {
	t.Helper()
	prog, err := reo.Compile(parametricSrc(t, reoFile), reo.WithFuncs(funcs))
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]reo.ConnectOption{
		reo.WithSeed(diffSeed),
		reo.WithPartitioning(reo.PartitionRegions),
	}, extra...)
	inst, err := prog.MustConnector(connector).Connect(lengths, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return inst.Backend()
}

func compareResults(t *testing.T, want, got *gendrv.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Seqs, got.Seqs) {
		t.Errorf("per-port sequences differ\ninterpreted: %v\ngenerated:   %v\n%s", want.Seqs, got.Seqs, reproCmd(t, diffSeed))
	}
	if want.Steps != got.Steps {
		t.Errorf("steps differ: interpreted %d, generated %d\n%s", want.Steps, got.Steps, reproCmd(t, diffSeed))
	}
	if want.GuardEvals != got.GuardEvals {
		t.Errorf("guard evals differ: interpreted %d, generated %d\n%s", want.GuardEvals, got.GuardEvals, reproCmd(t, diffSeed))
	}
}

// TestParametricDifferentialFabric drives the parametric fabric at two
// array lengths through the shared gendrv schedule. N=5 lies outside the
// generator's probe lengths {2,3,4}: the templates must still bind,
// because region shapes are length-invariant.
func TestParametricDifferentialFabric(t *testing.T) {
	for _, n := range []int{4, 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			gi, err := fabric.New(n, fabric.WithSeed(diffSeed))
			if err != nil {
				t.Fatal(err)
			}
			if got := gi.GeneratedRegions(); got != n {
				t.Errorf("GeneratedRegions() = %d, want %d (every lane bound)", got, n)
			}
			if got := gi.Regions(); got != n {
				t.Errorf("Regions() = %d, want %d", got, n)
			}
			genRes, err := gendrv.Drive(gi, "many2many", n, diffRounds)
			if err != nil {
				t.Fatalf("generated drive: %v", err)
			}
			twin := interpretedTwin(t, "fabric.reo", "Fabric", map[string]int{"a": n, "b": n}, reo.Funcs{})
			want, err := gendrv.Drive(twin, "many2many", n, diffRounds)
			if err != nil {
				t.Fatalf("interpreted drive: %v", err)
			}
			compareResults(t, want, genRes)
		})
	}
}

// TestParametricDifferentialFabricWorkers runs the same schedule with
// both backends on a two-worker pool. Scan interleaving under workers is
// scheduler-dependent, so GuardEvals is not comparable; the delivered
// sequences and the step count (two firings per item per lane, however
// scheduled) must still agree exactly.
func TestParametricDifferentialFabricWorkers(t *testing.T) {
	const n = 4
	gi, err := fabric.New(n, fabric.WithSeed(diffSeed), fabric.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := gi.Workers(); got != 2 {
		t.Errorf("Workers() = %d, want 2", got)
	}
	if got := gi.GeneratedRegions(); got != n {
		t.Errorf("GeneratedRegions() = %d, want %d", got, n)
	}
	genRes, err := gendrv.Drive(gi, "many2many", n, diffRounds)
	if err != nil {
		t.Fatalf("generated drive: %v", err)
	}
	twin := interpretedTwin(t, "fabric.reo", "Fabric", map[string]int{"a": n, "b": n},
		reo.Funcs{}, reo.WithWorkers(2))
	want, err := gendrv.Drive(twin, "many2many", n, diffRounds)
	if err != nil {
		t.Fatalf("interpreted drive: %v", err)
	}
	if !reflect.DeepEqual(want.Seqs, genRes.Seqs) {
		t.Errorf("per-port sequences differ\ninterpreted: %v\ngenerated:   %v\n%s", want.Seqs, genRes.Seqs, reproCmd(t, diffSeed))
	}
	if want.Steps != genRes.Steps {
		t.Errorf("steps differ: interpreted %d, generated %d\n%s", want.Steps, genRes.Steps, reproCmd(t, diffSeed))
	}
}

// driveXFab is the xfab schedule: receivers first (the filter drops odd
// values, so each receiver's batch ends short and is released by the
// close), then senders, sequenced through OpsRegistered exactly like
// gendrv.Drive. Closing only after every sender completed makes the
// post-close partial counts part of the deterministic observable
// behavior.
func driveXFab(t *testing.T, b gendrv.Backend, n, rounds int) *gendrv.Result {
	t.Helper()
	res := &gendrv.Result{Seqs: make(map[string][]string)}
	var mu sync.Mutex
	record := func(port string, vals []any) {
		mu.Lock()
		defer mu.Unlock()
		seq := make([]string, len(vals))
		for i, v := range vals {
			seq[i] = fmt.Sprint(v)
		}
		res.Seqs[port] = seq
	}
	spinUntil := func(k int64) {
		for b.OpsRegistered() < k {
		}
	}
	var recvWG, sendWG sync.WaitGroup
	for _, port := range b.Ports("b") {
		buf := make([]any, rounds)
		base := b.OpsRegistered()
		recvWG.Add(1)
		go func(port string, buf []any) {
			defer recvWG.Done()
			got, _ := b.RecvBatch(port, buf) // short on close: expected
			record(port, buf[:got])
		}(port, buf)
		spinUntil(base + 1)
	}
	for i, port := range b.Ports("a") {
		vs := make([]any, rounds)
		for r := range vs {
			vs[r] = gendrv.Tag(i, r)
		}
		base := b.OpsRegistered()
		sendWG.Add(1)
		go func(port string, vs []any) {
			defer sendWG.Done()
			if _, err := b.SendBatch(port, vs); err != nil {
				t.Errorf("send %s: %v", port, err)
				return
			}
			record(port, vs)
		}(port, vs)
		spinUntil(base + 1)
	}
	sendWG.Wait()
	res.Steps = b.Steps()
	res.GuardEvals = b.GuardEvals()
	b.Close()
	recvWG.Wait()
	return res
}

// TestParametricDifferentialXFab exercises generated guards and
// transformations on both sides of real SPSC links: the region analysis
// cuts xfab's middle buffer, so every lane is a generated Transformer
// region linked to a generated Filter region.
func TestParametricDifferentialXFab(t *testing.T) {
	const n = 4
	funcs := reo.Funcs{Filters: gendrv.TestFilters(), Transformers: gendrv.TestXforms()}
	gi, err := xfab.New(n, xfab.WithSeed(diffSeed), xfab.WithFuncs(funcs))
	if err != nil {
		t.Fatal(err)
	}
	// Two generated regions per lane (transformer and filter side).
	if got := gi.GeneratedRegions(); got != 2*n {
		t.Errorf("GeneratedRegions() = %d, want %d", got, 2*n)
	}
	genRes := driveXFab(t, gi, n, diffRounds)
	twin := interpretedTwin(t, "xfab.reo", "XFab", map[string]int{"a": n, "b": n}, funcs)
	want := driveXFab(t, twin, n, diffRounds)
	compareResults(t, want, genRes)
}

// driveMSFabric scatters one batch per master outlet and gathers one per
// slave outlet — the NPB scatter/gather round structure, sequenced
// deterministically.
func driveMSFabric(t *testing.T, b gendrv.Backend, rounds int) *gendrv.Result {
	t.Helper()
	res := &gendrv.Result{Seqs: make(map[string][]string)}
	var mu sync.Mutex
	record := func(port string, vals []any) {
		mu.Lock()
		defer mu.Unlock()
		seq := make([]string, len(vals))
		for i, v := range vals {
			seq[i] = fmt.Sprint(v)
		}
		res.Seqs[port] = seq
	}
	spinUntil := func(k int64) {
		for b.OpsRegistered() < k {
		}
	}
	var wg sync.WaitGroup
	recv := func(param string) {
		for _, port := range b.Ports(param) {
			buf := make([]any, rounds)
			base := b.OpsRegistered()
			wg.Add(1)
			go func(port string, buf []any) {
				defer wg.Done()
				got, err := b.RecvBatch(port, buf)
				if err != nil {
					t.Errorf("recv %s: %v", port, err)
				}
				record(port, buf[:got])
			}(port, buf)
			spinUntil(base + 1)
		}
	}
	send := func(param string, tagBase int) {
		for i, port := range b.Ports(param) {
			vs := make([]any, rounds)
			for r := range vs {
				vs[r] = gendrv.Tag(tagBase+i, r)
			}
			base := b.OpsRegistered()
			wg.Add(1)
			go func(port string, vs []any) {
				defer wg.Done()
				if _, err := b.SendBatch(port, vs); err != nil {
					t.Errorf("send %s: %v", port, err)
					return
				}
				record(port, vs)
			}(port, vs)
			spinUntil(base + 1)
		}
	}
	recv("si")
	recv("mi")
	send("mo", 0)
	send("so", 100)
	wg.Wait()
	res.Steps = b.Steps()
	res.GuardEvals = b.GuardEvals()
	b.Close()
	return res
}

// TestParametricDifferentialMSFabric pins the NPB fabric shape the
// generated backend runs the benchmark programs on.
func TestParametricDifferentialMSFabric(t *testing.T) {
	const n = 4
	gi, err := msfabric.New(n, msfabric.WithSeed(diffSeed))
	if err != nil {
		t.Fatal(err)
	}
	if got := gi.GeneratedRegions(); got != 2*n {
		t.Errorf("GeneratedRegions() = %d, want %d (both lane directions bound)", got, 2*n)
	}
	genRes := driveMSFabric(t, gi, diffRounds)
	lengths := map[string]int{"mo": n, "so": n, "si": n, "mi": n}
	twin := interpretedTwin(t, "msfabric.reo", "MSFabric", lengths, reo.Funcs{})
	want := driveMSFabric(t, twin, diffRounds)
	compareResults(t, want, genRes)
}

// TestParametricBatchEdgeCases mirrors TestBatchedDifferential's edge
// cases on the generated backend: ragged batch tails must produce
// identical sequences and counters, and a receive batch wider than the
// delivered stream must return the partial count on close — identically
// on both backends.
func TestParametricBatchEdgeCases(t *testing.T) {
	type run struct {
		seq              []string
		steps, guardEval int64
	}
	// Ragged-tail parity, modeled on the lane in-process differential:
	// sender registration is confirmed before the receive registers, so
	// both backends see the same arrival order.
	ragged := func(b gendrv.Backend) run {
		t.Helper()
		var r run
		a, out := b.Ports("a")[0], b.Ports("b")[0]
		for _, k := range []int{1, 3, 8} {
			vs := make([]any, k)
			for j := range vs {
				vs[j] = fmt.Sprintf("b%d-%d", k, j)
			}
			base := b.OpsRegistered()
			done := make(chan error, 1)
			go func() {
				_, err := b.SendBatch(a, vs)
				done <- err
			}()
			for b.OpsRegistered() < base+1 {
			}
			buf := make([]any, k)
			got, err := b.RecvBatch(out, buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			for _, v := range buf[:got] {
				r.seq = append(r.seq, fmt.Sprint(v))
			}
		}
		r.steps, r.guardEval = b.Steps(), b.GuardEvals()
		b.Close()
		return r
	}
	t.Run("ragged", func(t *testing.T) {
		gi, err := fabric.New(2, fabric.WithSeed(diffSeed))
		if err != nil {
			t.Fatal(err)
		}
		got := ragged(gi)
		twin := interpretedTwin(t, "fabric.reo", "Fabric", map[string]int{"a": 2, "b": 2}, reo.Funcs{})
		want := ragged(twin)
		if !reflect.DeepEqual(want.seq, got.seq) {
			t.Errorf("sequences differ\ninterpreted: %v\ngenerated:   %v\n%s", want.seq, got.seq, reproCmd(t, diffSeed))
		}
		if want.steps != got.steps {
			t.Errorf("steps differ: interpreted %d, generated %d\n%s", want.steps, got.steps, reproCmd(t, diffSeed))
		}
		if want.guardEval != got.guardEval {
			t.Errorf("guard evals differ: interpreted %d, generated %d\n%s", want.guardEval, got.guardEval, reproCmd(t, diffSeed))
		}
	})

	// Partial count on close: a receive batch of 5 sees only 2 values
	// before the connector closes; both backends must return count 2 with
	// the same close error.
	partial := func(b gendrv.Backend) (int, []string, string) {
		t.Helper()
		a, out := b.Ports("a")[0], b.Ports("b")[0]
		type recvRes struct {
			got int
			err error
		}
		buf := make([]any, 5)
		base := b.OpsRegistered()
		done := make(chan recvRes, 1)
		go func() {
			got, err := b.RecvBatch(out, buf)
			done <- recvRes{got, err}
		}()
		for b.OpsRegistered() < base+1 {
		}
		if _, err := b.SendBatch(a, []any{"x0", "x1"}); err != nil {
			t.Fatal(err)
		}
		// Both sent values are delivered once SendBatch returned (the
		// second item cannot be consumed before the first reached the
		// receive batch); the close releases the short receive.
		b.Close()
		r := <-done
		var seq []string
		for _, v := range buf[:r.got] {
			seq = append(seq, fmt.Sprint(v))
		}
		errStr := ""
		if r.err != nil {
			errStr = r.err.Error()
		}
		return r.got, seq, errStr
	}
	t.Run("partial-on-close", func(t *testing.T) {
		gi, err := fabric.New(2, fabric.WithSeed(diffSeed))
		if err != nil {
			t.Fatal(err)
		}
		gotN, gotSeq, gotErr := partial(gi)
		twin := interpretedTwin(t, "fabric.reo", "Fabric", map[string]int{"a": 2, "b": 2}, reo.Funcs{})
		wantN, wantSeq, wantErr := partial(twin)
		if gotN != 2 || wantN != 2 {
			t.Errorf("partial counts: interpreted %d, generated %d, want 2 on both", wantN, gotN)
		}
		if !reflect.DeepEqual(wantSeq, gotSeq) {
			t.Errorf("partial sequences differ\ninterpreted: %v\ngenerated:   %v\n%s", wantSeq, gotSeq, reproCmd(t, diffSeed))
		}
		if gotErr == "" || gotErr != wantErr {
			t.Errorf("close errors differ: interpreted %q, generated %q", wantErr, gotErr)
		}
	})
}
