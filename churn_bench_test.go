// BenchmarkInstanceChurn and BenchmarkManyInstances measure the
// multi-instance serving path: alloc-cheap Connect/Close churn on the
// shared process runtime (reo.WithRuntime + reo.WithReuse) against the
// per-instance dedicated worker pool, and the steady-state fire rate
// with many connector instances live at once. The benchmark harness's
// serve-sessions workload and its reo.churn_cycles_per_s and
// reo.heap_kb_per_instance cells measure the same path end to end.
package reo_test

import (
	"fmt"
	"testing"

	reo "repro"
)

const churnProto = `Churn(a;b) = Fifo1(a;b)`

// BenchmarkInstanceChurn times one full Connect → Send → Recv → Close
// cycle per iteration. "dedicated" builds a fresh coordinator and
// worker pool each cycle; "shared" multiplexes onto the process-global
// runtime and recycles the instance through the template pool, so the
// cycle allocates (almost) nothing.
func BenchmarkInstanceChurn(b *testing.B) {
	prog := reo.MustCompile(churnProto)
	conn, err := prog.Connector("Churn")
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name string
		opts []reo.ConnectOption
	}{
		{"dedicated", []reo.ConnectOption{
			reo.WithPartitioning(reo.PartitionRegions), reo.WithWorkers(2)}},
		{"shared", []reo.ConnectOption{
			reo.WithPartitioning(reo.PartitionRegions), reo.WithRuntime(nil), reo.WithReuse(true)}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			cycle := func() error {
				inst, err := conn.Connect(nil, m.opts...)
				if err != nil {
					return err
				}
				defer inst.Close()
				if err := inst.Outport("a").Send(1); err != nil {
					return err
				}
				_, err = inst.Inport("b").Recv()
				return err
			}
			if err := cycle(); err != nil { // warm the pool
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cycle(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkManyInstances keeps `live` instances attached to the shared
// runtime and fires them round-robin; the reported allocs/op pin the
// steady-state fire path at zero.
func BenchmarkManyInstances(b *testing.B) {
	prog := reo.MustCompile(churnProto)
	conn, err := prog.Connector("Churn")
	if err != nil {
		b.Fatal(err)
	}
	for _, live := range []int{100, 10000} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			type lane struct {
				inst *reo.Instance
				out  reo.Outport
				in   reo.Inport
			}
			lanes := make([]lane, live)
			for i := range lanes {
				inst, err := conn.Connect(nil,
					reo.WithPartitioning(reo.PartitionRegions), reo.WithRuntime(nil))
				if err != nil {
					b.Fatal(err)
				}
				lanes[i] = lane{inst: inst, out: inst.Outport("a"), in: inst.Inport("b")}
			}
			defer func() {
				for _, l := range lanes {
					l.inst.Close()
				}
			}()
			for _, l := range lanes { // warm every instance
				if err := l.out.Send(0); err != nil {
					b.Fatal(err)
				}
				if _, err := l.in.Recv(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := lanes[i%live]
				if err := l.out.Send(i); err != nil {
					b.Fatal(err)
				}
				if _, err := l.in.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
