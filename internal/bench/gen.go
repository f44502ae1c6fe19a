package bench

import (
	"fmt"
	"time"

	reo "repro"
	"repro/internal/genlib/fabric"
	"repro/internal/npb"
)

// This file measures the generated backend (region templates bound over
// the genrun runtime) against the interpreted engine on identical
// workloads, next to the interpreted BenchmarkFireSteady shape (one Fifo1
// lane, one value moved end to end per iteration, scalar Send/Recv on a
// warmed instance). Rows land in the fig12 JSON schema under the
// approaches "interpreted" and "generated", so the perf-regression gate
// tracks both the interpreted baseline and the generated backend.

// laneSrc is the FireSteady connector.
const laneSrc = `Lane(a;b) = Fifo1(a;b)`

// GenResult is one backend's measurement.
type GenResult struct {
	Approach string
	// Connector and N identify the perf-gate cell the measurement lands
	// in (fig12 schema: approach/connector/n).
	Connector string
	N         int
	Items     int
	Steps     int64
	Elapsed   time.Duration
}

// StepsPerSec returns the measured firing rate.
func (r GenResult) StepsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Steps) / r.Elapsed.Seconds()
}

// RunGenSteady moves `items` values through the interpreted lane and
// returns its measurement: the steady-state dispatch floor of the gate.
func RunGenSteady(items int) (GenResult, error) {
	res := GenResult{Approach: "interpreted", Connector: "Lane", N: 1, Items: items}
	prog, err := reo.Compile(laneSrc)
	if err != nil {
		return res, err
	}
	conn, err := prog.Connector("Lane")
	if err != nil {
		return res, err
	}
	inst, err := conn.Connect(nil)
	if err != nil {
		return res, err
	}
	defer inst.Close()
	out, in := inst.Outport("a"), inst.Inport("b")
	// Warm both composite states so the measured loop is pure dispatch.
	if err := pingPong(out.Send, func() error { _, err := in.Recv(); return err }, 1); err != nil {
		return res, err
	}
	start := time.Now()
	if err := pingPong(out.Send, func() error { _, err := in.Recv(); return err }, items); err != nil {
		return res, err
	}
	res.Elapsed = time.Since(start)
	res.Steps = inst.Steps() - 2 // exclude the warm-up iteration
	return res, nil
}

// --- region-scaling cells: generated vs interpreted -----------------------

// fabricSrc is the pure region-scaling shape (n independent Fifo1
// lanes); internal/genlib/fabric is its generated twin.
const fabricSrc = `Fabric(a[];b[]) = prod (i:1..#a) Fifo1(a[i];b[i])`

// RunGenRegionScaling moves `items` values through every lane of an
// n-lane fabric on both backends — the interpreted engine under region
// partitioning (the decomposition the generated runtime always uses)
// and the generated package — and returns one measurement
// per approach (interpreted first). The whole per-lane stream moves as
// one batched port operation, so the timed window is almost pure region
// fire loop: exactly the dispatch the static code replaces.
func RunGenRegionScaling(n, items int) ([]GenResult, error) {
	interp, err := runFabric(n, items, func() (fabricBackend, error) {
		prog, err := reo.Compile(fabricSrc)
		if err != nil {
			return nil, err
		}
		conn, err := prog.Connector("Fabric")
		if err != nil {
			return nil, err
		}
		inst, err := conn.Connect(map[string]int{"a": n, "b": n},
			reo.WithPartitioning(reo.PartitionRegions))
		if err != nil {
			return nil, err
		}
		return inst.Backend(), nil
	})
	if err != nil {
		return nil, err
	}
	interp.Approach = "interpreted"
	generated, err := runFabric(n, items, func() (fabricBackend, error) {
		return fabric.New(n)
	})
	if err != nil {
		return nil, err
	}
	generated.Approach = "generated"
	return []GenResult{interp, generated}, nil
}

// fabricBackend is the string-keyed surface both fabric instances
// share (reo.Backend and the genrun instance alike).
type fabricBackend interface {
	Ports(param string) []string
	SendBatch(port string, vs []any) (int, error)
	RecvBatch(port string, buf []any) (int, error)
	Steps() int64
	Close() error
}

func runFabric(n, items int, connect func() (fabricBackend, error)) (GenResult, error) {
	res := GenResult{Connector: "Fabric", N: n, Items: items}
	b, err := connect()
	if err != nil {
		return res, err
	}
	defer b.Close()
	as, bs := b.Ports("a"), b.Ports("b")
	round := func(perLane int) error {
		vs := make([]any, perLane)
		for i := range vs {
			vs[i] = i
		}
		errc := make(chan error, 2*n)
		for i := 0; i < n; i++ {
			go func(p string) {
				_, err := b.SendBatch(p, vs)
				errc <- err
			}(as[i])
			go func(p string) {
				buf := make([]any, perLane)
				_, err := b.RecvBatch(p, buf)
				errc <- err
			}(bs[i])
		}
		for i := 0; i < 2*n; i++ {
			if err := <-errc; err != nil {
				return err
			}
		}
		return nil
	}
	// Warm every lane (first fire pays region wake-up and slot setup).
	if err := round(1); err != nil {
		return res, err
	}
	warm := b.Steps()
	start := time.Now()
	if err := round(items); err != nil {
		return res, err
	}
	res.Elapsed = time.Since(start)
	res.Steps = b.Steps() - warm
	return res, nil
}

// RunGenNPB times one NPB program on the generated fabric (the Gen
// variant over internal/genlib/msfabric) and returns its connector
// firing rate as a perf-gate cell: a slowdown of the generated runtime
// under a real program's access pattern is caught even if the
// microbenchmark cells stay healthy.
func RunGenNPB(program string, class npb.Class, slaves int) (GenResult, error) {
	res := GenResult{Approach: "generated", Connector: "NPB-" + program, N: slaves}
	prog, err := npb.ProgramByName(program)
	if err != nil {
		return res, err
	}
	start := time.Now()
	out, err := prog.Run(class, npb.Gen, slaves)
	res.Elapsed = time.Since(start)
	if err != nil {
		return res, err
	}
	if !out.Verified {
		return res, fmt.Errorf("bench: %s class %s on the generated fabric failed verification (checksum %g)",
			program, class, out.Checksum)
	}
	res.Steps = out.Steps
	return res, nil
}

// pingPong moves one value end to end per iteration from a single
// goroutine — the BenchmarkFireSteady access pattern (the Fifo1 accepts
// a send without a pending receive, so neither operation parks).
func pingPong(send func(any) error, recv func() error, items int) error {
	for i := 0; i < items; i++ {
		if err := send(i); err != nil {
			return err
		}
		if err := recv(); err != nil {
			return err
		}
	}
	return nil
}

// GenJSONRows flattens measurements into the fig12-schema rows the
// perf gate compares.
func GenJSONRows(results []GenResult) []Fig12JSON {
	rows := make([]Fig12JSON, 0, len(results))
	for _, r := range results {
		rows = append(rows, Fig12JSON{
			Approach:    r.Approach,
			Connector:   r.Connector,
			N:           r.N,
			StepsPerSec: r.StepsPerSec(),
		})
	}
	return rows
}

// WriteGenJSON writes the measurements to path in the fig12 JSON
// schema, for `reoc bench-compare` gating.
func WriteGenJSON(path string, results []GenResult) error {
	return WriteJSONRows(path, GenJSONRows(results))
}
