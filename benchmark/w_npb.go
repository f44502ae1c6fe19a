package main

import (
	"fmt"
	"time"

	"repro/internal/npb"
)

// npbSlaves is the paper's Fig. 13 mid-range worker count that still fits
// the reference box's 2 cores twice over.
const npbSlaves = 4

// kernel is one NPB program at the class that makes its run long enough
// (>= 10 ms) to time and short enough to repeat within the budget.
type kernel struct {
	name  string
	class npb.Class
	prog  npb.Program
}

func npbSet(quick bool) ([]kernel, error) {
	ks := []kernel{
		{name: "CG", class: npb.ClassA},
		{name: "MG", class: npb.ClassB},
		{name: "FT", class: npb.ClassB},
		{name: "LU", class: npb.ClassC},
		{name: "IS", class: npb.ClassC},
	}
	for i := range ks {
		if quick {
			ks[i].class = npb.ClassS
		}
		p, err := npb.ProgramByName(ks[i].name)
		if err != nil {
			return nil, err
		}
		ks[i].prog = p
	}
	return ks, nil
}

// runKernel runs one kernel variant and holds it against the oracle: npb
// verifies the parallel checksum against its independent serial
// reference, and the harness requires that verdict.
func runKernel(r *run, k kernel, v npb.Variant, parent int) (wall time.Duration, steps int64, err error) {
	id := r.tr.begin(parent, "npb.Run", k.name+"/"+v.String())
	t0 := time.Now()
	res, err := k.prog.Run(k.class, v, npbSlaves)
	wall = time.Since(t0)
	if err != nil {
		r.tr.end(id)
		r.count(1, 1, fmt.Sprintf("npb %s-%s %s: %v", k.name, k.class, v, err))
		return wall, 0, nil
	}
	r.tr.end(id, "steps", res.Steps)
	verified, _ := r.fault.tap(res.Verified).(bool)
	if !verified {
		r.count(1, 1, fmt.Sprintf("npb %s-%s %s: checksum %v fails verification against the serial reference", k.name, k.class, v, res.Checksum))
	} else {
		r.count(1, 0, "")
	}
	return wall, res.Steps, nil
}

// fabricRoundTrips times n master->slave->master round trips over the
// fabric the kernels coordinate through (npb's MasterSlaves connector),
// one in flight: the latency a kernel's scatter/gather step pays. µs.
func fabricRoundTrips(n int, vals []any) (lat []float64, bad int64, err error) {
	comm, err := npb.NewComm(npb.Reo, npbSlaves, false, npb.DefaultReoOptions)
	if err != nil {
		return nil, 0, err
	}
	defer comm.Close()
	slaveErr := make(chan error, npbSlaves)
	per := n / npbSlaves
	for s := 0; s < npbSlaves; s++ {
		go func(s int) {
			for i := 0; i < per; i++ {
				v, err := comm.SlaveRecv(s)
				if err == nil {
					err = comm.SlaveSend(s, v)
				}
				if err != nil {
					slaveErr <- err
					return
				}
			}
			slaveErr <- nil
		}(s)
	}
	lat = make([]float64, 0, per*npbSlaves)
	for i := 0; i < per && err == nil; i++ {
		for s := 0; s < npbSlaves && err == nil; s++ {
			want := vals[(i*npbSlaves+s)%payloadPeriod]
			t0 := time.Now()
			if err = comm.SendToSlave(s, want); err != nil {
				break
			}
			var v any
			v, err = comm.RecvFromSlave(s)
			lat = append(lat, float64(time.Since(t0))/1e3)
			if v != want {
				bad++
			}
		}
	}
	if err != nil {
		comm.Close()
	}
	for s := 0; s < npbSlaves; s++ {
		if e := <-slaveErr; e != nil && err == nil {
			err = e
		}
	}
	return lat, bad, err
}

func runNPB(r *run) error {
	ks, err := npbSet(r.quick)
	if err != nil {
		return err
	}
	// Set-up is the serial-reference warm-up. npb memoises each reference
	// for the life of the process, so this set-up cannot be repeated: one
	// sample.
	id := r.tr.begin(-1, "harness.setup", r.workload)
	t0 := time.Now()
	for _, k := range ks {
		if _, err := k.prog.Run(k.class, npb.Serial, 0); err != nil {
			return fmt.Errorf("npb: serial reference %s-%s: %w", k.name, k.class, err)
		}
	}
	r.report("setup_s", []float64{time.Since(t0).Seconds()})
	r.tr.end(id)

	// A rep runs the five kernels once; after each rep, a fixed number of
	// round trips over the fabric they coordinate through.
	const tripsPerSeg = 4000
	vals := payload(r.seed)
	var walls, perS []float64
	var segs [][]float64
	err = r.alternate(func(int) error {
		root := r.tr.begin(-1, "harness.rep", r.workload)
		defer r.tr.end(root)
		var ws []float64
		t0 := time.Now()
		for _, k := range ks {
			w, _, err := runKernel(r, k, npb.Reo, root)
			if err != nil {
				return err
			}
			ws = append(ws, w.Seconds())
		}
		perS = append(perS, float64(len(ks))/time.Since(t0).Seconds())
		walls = append(walls, geomean(ws))
		return nil
	}, func(int) error {
		root := r.tr.begin(-1, "harness.latency", r.workload)
		lat, bad, err := fabricRoundTrips(tripsPerSeg, vals)
		r.tr.end(root)
		r.count(tripsPerSeg, bad, "npb fabric: round trip returned a different value")
		segs = append(segs, lat)
		return err
	})
	if err != nil {
		return fmt.Errorf("npb: %w", err)
	}
	r.report("wall_s", walls)
	r.report("ops_per_s", perS)
	r.latencySummary(segs)
	return nil
}
