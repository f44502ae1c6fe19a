// Benchmarks regenerating the paper's tables and figures. One benchmark
// family per experiment of DESIGN.md:
//
//	BenchmarkFig12*            — E1: the eighteen-connector comparison
//	BenchmarkFig13*            — E2/E3: NPB CG and LU, orig vs reo
//	BenchmarkNPBAll            — E4: all seven programs, class S
//	BenchmarkExpansionBlowup   — E5: full expansion vs partitioning
//	BenchmarkStateCache        — E6: bounded state caches
//	BenchmarkLabelSimplify     — E7: transition-label simplification
//
// The drivers report steps/s (global execution steps per second), the
// paper's connector metric; NPB benchmarks report wall time per run.
package reo_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	reo "repro"
	"repro/internal/connlib"
	"repro/internal/npb"
)

// window is the per-iteration measurement budget for step-rate benches.
const window = 50 * time.Millisecond

// stepRate reports the steps/s of d at n under opts, one connlib.StepsIn
// window per iteration. An approach whose static product exceeds its
// size limit skips the benchmark (expected for large automata).
func stepRate(b *testing.B, d connlib.Def, n int, opts ...reo.ConnectOption) {
	b.Helper()
	var totalSteps int64
	for i := 0; i < b.N; i++ {
		steps, err := connlib.StepsIn(d, n, window, opts...)
		if errors.Is(err, reo.ErrTooLarge) {
			b.Skipf("%s N=%d: %v", d.Name, n, err)
		}
		if err != nil {
			b.Fatal(err)
		}
		totalSteps += steps
	}
	b.ReportMetric(float64(totalSteps)/(float64(b.N)*window.Seconds()), "steps/s")
}

// BenchmarkFig12 compares the existing (static per-N, simplified) and the
// new (parametrized + JIT) approach on the benchmark connectors. The full
// 18×{2..64} sweep is cmd/fig12; this bench covers a representative spread.
func BenchmarkFig12(b *testing.B) {
	approaches := []struct {
		name string
		opts []reo.ConnectOption
	}{
		{"new", []reo.ConnectOption{reo.WithMode(reo.JIT)}},
		{"existing", []reo.ConnectOption{reo.WithMode(reo.Static), reo.WithMaxStates(1 << 16)}},
	}
	for _, d := range connlib.All() {
		for _, n := range []int{2, 8, 32} {
			for _, ap := range approaches {
				b.Run(fmt.Sprintf("%s/N=%d/%s", d.Name, n, ap.name), func(b *testing.B) {
					stepRate(b, d, n, ap.opts...)
				})
			}
		}
	}
}

func benchNPB(b *testing.B, program string, class npb.Class, variant npb.Variant, slaves int) {
	b.Helper()
	prog, err := npb.ProgramByName(program)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := prog.Run(class, variant, slaves)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Verified {
			b.Fatalf("%s %s %v N=%d: not verified", program, class, variant, slaves)
		}
	}
}

// BenchmarkFig13CG regenerates the CG panels: orig vs reo run time over N.
func BenchmarkFig13CG(b *testing.B) {
	for _, class := range []npb.Class{npb.ClassS, npb.ClassW} {
		for _, n := range []int{2, 4, 8} {
			for _, v := range []npb.Variant{npb.Orig, npb.Reo} {
				b.Run(fmt.Sprintf("class=%s/N=%d/%s", class, n, v), func(b *testing.B) {
					benchNPB(b, "CG", class, v, n)
				})
			}
		}
	}
}

// BenchmarkFig13LU regenerates the LU panels (master–slaves + pipeline).
func BenchmarkFig13LU(b *testing.B) {
	for _, class := range []npb.Class{npb.ClassS, npb.ClassW} {
		for _, n := range []int{2, 4, 8} {
			for _, v := range []npb.Variant{npb.Orig, npb.Reo} {
				b.Run(fmt.Sprintf("class=%s/N=%d/%s", class, n, v), func(b *testing.B) {
					benchNPB(b, "LU", class, v, n)
				})
			}
		}
	}
}

// BenchmarkNPBAll covers the remaining five programs at class S, N=4
// (§V-C findings 1–2: small classes are overhead-dominated).
func BenchmarkNPBAll(b *testing.B) {
	for _, program := range []string{"EP", "IS", "MG", "FT", "BT", "SP"} {
		for _, v := range []npb.Variant{npb.Orig, npb.Reo} {
			b.Run(fmt.Sprintf("%s/%s", program, v), func(b *testing.B) {
				benchNPB(b, program, npb.ClassS, v, 4)
			})
		}
	}
}

// BenchmarkExpansionBlowup is E5: the master–slaves connector under the
// textbook full joint enumeration (exponentially many transitions per
// composite state as N grows — the paper's §V-C(3) non-termination cause)
// vs the partitioned engine (the [32]-style fix).
func BenchmarkExpansionBlowup(b *testing.B) {
	pingPong := func(b *testing.B, n int, opts npb.ReoCommOptions) {
		comm, err := npb.NewComm(npb.Reo, n, false, opts)
		if err != nil {
			b.Fatal(err)
		}
		defer comm.Close()
		for i := 0; i < b.N; i++ {
			done := make(chan error, n)
			for s := 0; s < n; s++ {
				go func(s int) {
					v, err := comm.SlaveRecv(s)
					if err == nil {
						err = comm.SlaveSend(s, v)
					}
					done <- err
				}(s)
			}
			for s := 0; s < n; s++ {
				if err := comm.SendToSlave(s, s); err != nil {
					b.Fatal(err)
				}
			}
			for s := 0; s < n; s++ {
				if _, err := comm.RecvFromSlave(s); err != nil {
					b.Fatal(err)
				}
			}
			for s := 0; s < n; s++ {
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	cases := []struct {
		name string
		opts []reo.ConnectOption
		maxN int
	}{
		{"connected", nil, 16},
		{"full-expansion", []reo.ConnectOption{reo.WithFullExpansion(true)}, 8},
		{"partitioned", []reo.ConnectOption{reo.WithPartitioning(reo.PartitionRegions)}, 16},
		{"full-expansion+partitioned", []reo.ConnectOption{reo.WithFullExpansion(true), reo.WithPartitioning(reo.PartitionRegions)}, 16},
	}
	for _, n := range []int{2, 4, 8, 16} {
		for _, c := range cases {
			if n > c.maxN {
				continue // full expansion without partitioning blows up
			}
			b.Run(fmt.Sprintf("N=%d/%s", n, c.name), func(b *testing.B) {
				pingPong(b, n, npb.ReoCommOptions{Opts: c.opts})
			})
		}
	}
}

// BenchmarkStateCache is E6: a connector whose composite state space is
// much larger than the working set, under the default cache and two cache
// bounds. Besides steps/s it reports the live heap in MB, read after a GC
// at the end of each window while the instance is still open.
func BenchmarkStateCache(b *testing.B) {
	d, err := connlib.ByName("EarlyAsyncMerger")
	if err != nil {
		b.Fatal(err)
	}
	const n = 10
	for _, size := range []int{0, 64, 8} {
		name := "unbounded"
		if size > 0 {
			name = fmt.Sprintf("cap=%d", size)
		}
		b.Run(name, func(b *testing.B) {
			var steps int64
			var heap uint64
			for i := 0; i < b.N; i++ {
				inst, err := d.Connect(n, reo.WithMode(reo.JIT), reo.WithStateCache(size))
				if err != nil {
					b.Fatal(err)
				}
				wait := connlib.Drive(d, inst, n)
				time.Sleep(window)
				steps += inst.Steps()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				heap += ms.HeapInuse
				inst.Close()
				wait()
			}
			b.ReportMetric(float64(steps)/(float64(b.N)*window.Seconds()), "steps/s")
			b.ReportMetric(float64(heap)/float64(b.N)/(1<<20), "heap-MB")
		})
	}
}

// BenchmarkLabelSimplify is E7: static-mode step rate with and without
// transition-label simplification on a connector with long data-flow
// chains through hidden vertices.
func BenchmarkLabelSimplify(b *testing.B) {
	d, err := connlib.ByName("OrderedMany2One")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{2, 4} {
		for _, simplify := range []bool{true, false} {
			b.Run(fmt.Sprintf("N=%d/simplify=%v", n, simplify), func(b *testing.B) {
				stepRate(b, d, n, reo.WithMode(reo.Static), reo.WithStaticSimplify(simplify))
			})
		}
	}
}

// BenchmarkFireSteady measures the steady-state firing path through the
// public API: a warmed JIT connector (every composite state expanded and
// every transition plan compiled) moving one value end to end. Both
// operations fire on arrival, so neither parks or touches the op pool; the
// payload is a small int (boxed without allocating), so this must report
// 0 B/op and 0 allocs/op and measures dispatch alone.
func BenchmarkFireSteady(b *testing.B) {
	prog := reo.MustCompile(`Lane(a;b) = Fifo1(a;b)`)
	conn := prog.MustConnector("Lane")
	inst, err := conn.Connect(nil, reo.WithMode(reo.JIT))
	if err != nil {
		b.Fatal(err)
	}
	defer inst.Close()
	out := inst.Outport("a")
	in := inst.Inport("b")
	// Warm: visit both composite states.
	if err := out.Send(0); err != nil {
		b.Fatal(err)
	}
	if _, err := in.Recv(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := out.Send(i & 0xff); err != nil {
			b.Fatal(err)
		}
		if _, err := in.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(inst.GuardEvals())/float64(inst.Steps()), "guardevals/step")
}

// BenchmarkCompileOnce quantifies the headline workflow difference: the
// existing approach compiles once per N, the new approach once in total
// (Table/§V-B setup: "with the existing compiler, we needed to compile
// the connector six times ... with the new compiler, only one").
func BenchmarkCompileOnce(b *testing.B) {
	d, err := connlib.ByName("OrderedMany2One")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("new/compile-template", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.Compile(); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("new/connect/N=%d", n), func(b *testing.B) {
			conn, err := d.Compile()
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				inst, err := conn.Connect(d.Lengths(n))
				if err != nil {
					b.Fatal(err)
				}
				inst.Close()
			}
		})
		b.Run(fmt.Sprintf("existing/compile+connect/N=%d", n), func(b *testing.B) {
			conn, err := d.Compile()
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				inst, err := conn.Connect(d.Lengths(n), reo.WithMode(reo.Static), reo.WithMaxStates(1<<18))
				if err != nil {
					b.Fatal(err)
				}
				inst.Close()
			}
		})
	}
}
