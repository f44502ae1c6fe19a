package npb_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/npb"
)

func TestLCGMatchesIteration(t *testing.T) {
	// Skip(n) must equal n sequential steps.
	a := npb.NewRand(271828183)
	for i := 0; i < 1000; i++ {
		a.Next()
	}
	b := npb.NewRand(271828183)
	b.Skip(1000)
	if a.Raw() != b.Raw() {
		t.Fatalf("skip mismatch: %d vs %d", a.Raw(), b.Raw())
	}
}

func TestLCGRange(t *testing.T) {
	r := npb.NewRand(314159265)
	for i := 0; i < 10000; i++ {
		v := r.Next()
		if v <= 0 || v >= 1 {
			t.Fatalf("LCG value %g out of (0,1)", v)
		}
	}
}

func TestLCGSkipZeroAndOne(t *testing.T) {
	a := npb.NewRand(99)
	b := npb.NewRand(99)
	b.Skip(0)
	if a.Raw() != b.Raw() {
		t.Fatal("skip(0) changed state")
	}
	a.Next()
	b.Skip(1)
	if a.Raw() != b.Raw() {
		t.Fatal("skip(1) != one step")
	}
}

// TestAllProgramsAllVariants verifies every NPB program at class S, for
// both coordination variants and several slave counts, against its serial
// reference — the correctness backbone of experiment E2-E4.
func TestAllProgramsAllVariants(t *testing.T) {
	for _, prog := range npb.Programs() {
		prog := prog
		t.Run(prog.Name(), func(t *testing.T) {
			t.Parallel()
			serial, err := prog.Run(npb.ClassS, npb.Serial, 1)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			if !serial.Verified {
				t.Fatal("serial not verified")
			}
			for _, variant := range []npb.Variant{npb.Orig, npb.Reo} {
				for _, n := range []int{1, 2, 4} {
					res, err := prog.Run(npb.ClassS, variant, n)
					if err != nil {
						t.Fatalf("%v N=%d: %v", variant, n, err)
					}
					if !res.Verified {
						t.Errorf("%v N=%d: not verified (checksum %g vs serial %g)",
							variant, n, res.Checksum, serial.Checksum)
					}
					if variant == npb.Reo && res.Steps == 0 {
						t.Errorf("%v N=%d: no connector steps recorded", variant, n)
					}
				}
			}
		})
	}
}

// TestClassWOneProgramEach spot-checks a larger class on the two Fig. 13
// programs.
// TestGeneratedVariant runs the master/slaves programs on the generated
// backend (npb.Gen: the parametric msfabric package) and requires the
// checksum to match the interpreted Reo variant bit for bit — the two
// backends run the same coordination structure, so the numerics cannot
// differ. EP and IS are the acceptance pair; the rest of the non-pipeline
// programs ride along at one slave count.
func TestGeneratedVariant(t *testing.T) {
	type cfg struct {
		name string
		ns   []int
	}
	cfgs := []cfg{
		{"EP", []int{1, 2, 4}},
		{"IS", []int{1, 2, 4}},
		{"CG", []int{2}},
		{"MG", []int{2}},
		{"FT", []int{2}},
		{"BT", []int{2}},
		{"SP", []int{2}},
	}
	for _, c := range cfgs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			prog, err := npb.ProgramByName(c.name)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range c.ns {
				reoRes, err := prog.Run(npb.ClassS, npb.Reo, n)
				if err != nil {
					t.Fatalf("reo N=%d: %v", n, err)
				}
				genRes, err := prog.Run(npb.ClassS, npb.Gen, n)
				if err != nil {
					t.Fatalf("gen N=%d: %v", n, err)
				}
				if !genRes.Verified {
					t.Errorf("gen N=%d: not verified (checksum %g)", n, genRes.Checksum)
				}
				if genRes.Checksum != reoRes.Checksum {
					t.Errorf("gen N=%d: checksum %g differs from interpreted %g",
						n, genRes.Checksum, reoRes.Checksum)
				}
				if genRes.Steps == 0 {
					t.Errorf("gen N=%d: no connector steps recorded", n)
				}
			}
		})
	}
}

// TestGeneratedVariantNoPipeline pins the LU restriction: the generated
// fabric has no slave pipeline, so the wavefront program must fail with a
// clear error instead of hanging or panicking.
func TestGeneratedVariantNoPipeline(t *testing.T) {
	prog, err := npb.ProgramByName("LU")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(npb.ClassS, npb.Gen, 2); err == nil {
		t.Fatal("LU on the generated fabric succeeded; want a no-pipeline error")
	}
}

func TestClassWFig13Programs(t *testing.T) {
	if testing.Short() {
		t.Skip("class W in -short mode")
	}
	for _, name := range []string{"CG", "LU"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog, err := npb.ProgramByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, variant := range []npb.Variant{npb.Orig, npb.Reo} {
				res, err := prog.Run(npb.ClassW, variant, 4)
				if err != nil {
					t.Fatalf("%v: %v", variant, err)
				}
				if !res.Verified {
					t.Errorf("%v: not verified", variant)
				}
			}
		})
	}
}

func TestProgramByName(t *testing.T) {
	names := []string{"EP", "IS", "CG", "MG", "FT", "LU", "BT", "SP"}
	for _, n := range names {
		if _, err := npb.ProgramByName(n); err != nil {
			t.Errorf("missing program %s", n)
		}
	}
	if _, err := npb.ProgramByName("XX"); err == nil {
		t.Error("unknown program accepted")
	}
	if len(npb.Programs()) != 8 {
		t.Errorf("programs = %d, want 8 (7 NPB + both BT and SP substitutes)", len(npb.Programs()))
	}
}

func TestParseClass(t *testing.T) {
	for _, s := range []string{"S", "W", "A", "B", "C"} {
		c, err := npb.ParseClass(s)
		if err != nil || c.String() != s {
			t.Errorf("ParseClass(%q) = %v, %v", s, c, err)
		}
	}
	for _, s := range []string{"", "X", "SS"} {
		if _, err := npb.ParseClass(s); err == nil {
			t.Errorf("ParseClass(%q) accepted", s)
		}
	}
}

// TestReoCommPipeline checks the bidirectional pipeline lanes directly.
func TestReoCommPipeline(t *testing.T) {
	const n = 3
	comm, err := npb.NewComm(npb.Reo, n, true, npb.ReoCommOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer comm.Close()
	done := make(chan error, 4)
	go func() { done <- comm.PipeSend(0, "fwd") }()
	go func() {
		v, err := comm.PipeRecv(1)
		if err == nil && v != "fwd" {
			err = fmt.Errorf("fwd got %v", v)
		}
		done <- err
	}()
	go func() { done <- comm.PipeSendUp(2, "bwd") }()
	go func() {
		v, err := comm.PipeRecvUp(1)
		if err == nil && v != "bwd" {
			err = fmt.Errorf("bwd got %v", v)
		}
		done <- err
	}()
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if comm.Steps() == 0 {
		t.Error("no steps counted on reo comm")
	}
}

// TestRegionsCarryExpansionFix: region partitioning is the §V-C(3) fix
// for the NPB blow-up. Under the textbook full expansion one engine over
// the 2N independent lanes enumerates exponentially many joint steps per
// composite state; cut into regions, every lane is its own two-state
// engine, so one scatter/gather round at N = 16 moves each value in two
// steps and expands three states per region.
func TestRegionsCarryExpansionFix(t *testing.T) {
	const n = 16
	comm, err := npb.NewReoComm(n, false, npb.ReoCommOptions{Opts: []reo.ConnectOption{
		reo.WithFullExpansion(true), reo.WithPartitioning(reo.PartitionRegions)}})
	if err != nil {
		t.Fatal(err)
	}
	defer comm.Close()
	done := make(chan error, n)
	for s := 0; s < n; s++ {
		go func(s int) {
			v, err := comm.SlaveRecv(s)
			if err == nil {
				err = comm.SlaveSend(s, v.(int)*10)
			}
			done <- err
		}(s)
	}
	for s := 0; s < n; s++ {
		if err := comm.SendToSlave(s, s); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < n; s++ {
		v, err := comm.RecvFromSlave(s)
		if err != nil {
			t.Fatal(err)
		}
		if v != s*10 {
			t.Errorf("slave %d returned %v, want %d", s, v, s*10)
		}
	}
	for s := 0; s < n; s++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	inst := npb.InstanceOf(comm)
	if got := inst.Partitions(); got != 2*n {
		t.Errorf("partitions = %d, want %d (one region per lane)", got, 2*n)
	}
	// Each of the 2N values crosses one Fifo1: accept, then emit.
	if got := inst.Steps(); got != 4*n {
		t.Errorf("steps = %d, want %d", got, 4*n)
	}
	// A lane region expands empty, then full, then empty again on the
	// second visit that keeps it (the JIT cache admits a state on its
	// second visit): 3 per region, 96 at N = 16, measured exactly.
	if got := inst.Expansions(); got > 3*2*n {
		t.Errorf("expansions = %d, want <= %d (three per lane region)", got, 3*2*n)
	}
}
