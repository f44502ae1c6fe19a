package reo_test

import (
	"errors"
	"testing"
	"time"

	reo "repro"
)

func TestDefinitionsListing(t *testing.T) {
	prog := reo.MustCompile(srcEx11)
	defs := prog.Definitions()
	want := map[string]bool{"ConnectorEx11a": true, "X": true, "ConnectorEx11b": true}
	if len(defs) != len(want) {
		t.Fatalf("definitions = %v", defs)
	}
	for _, d := range defs {
		if !want[d] {
			t.Errorf("unexpected definition %q", d)
		}
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile did not panic on a bad program")
		}
	}()
	reo.MustCompile(`A(a;b) = Nope(a;b)`)
}

func TestMustConnectorPanics(t *testing.T) {
	prog := reo.MustCompile(`A(a;b) = Sync(a;b)`)
	defer func() {
		if recover() == nil {
			t.Error("MustConnector did not panic on unknown name")
		}
	}()
	prog.MustConnector("Missing")
}

// TestFullExpansionCorrect: the textbook enumeration must be observably
// equivalent on a deterministic connector (just slower).
func TestFullExpansionCorrect(t *testing.T) {
	prog := reo.MustCompile(srcEx11N)
	conn, err := prog.Connector("ConnectorEx11N")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := conn.Connect(map[string]int{"tl": 3, "hd": 3}, reo.WithFullExpansion(true))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	checkOrderedProtocol(t, inst, 3, 2, "tl", "hd")
}

// TestInstanceIntrospection covers the diagnostic surface.
func TestInstanceIntrospection(t *testing.T) {
	prog := reo.MustCompile(srcEx11N)
	conn, err := prog.Connector("ConnectorEx11N")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := conn.Connect(map[string]int{"tl": 2, "hd": 2})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if conn.Name() != "ConnectorEx11N" {
		t.Error("connector name lost")
	}
	if inst.Constituents() == 0 || inst.Partitions() != 1 {
		t.Errorf("constituents=%d partitions=%d", inst.Constituents(), inst.Partitions())
	}
	if inst.Universe() == nil || len(inst.Automata()) != inst.Constituents() {
		t.Error("introspection inconsistent")
	}
	if inst.Outport("nope") != nil || inst.Inport("nope") != nil {
		t.Error("unknown param returned a port")
	}
	if inst.Outport("tl") == nil || inst.Inport("hd") == nil {
		t.Error("known param returned no port")
	}
}

// TestPortNames: ports carry their vertex names for diagnostics.
func TestPortNames(t *testing.T) {
	prog := reo.MustCompile(`A(a[];b) = Merger(a[1..#a];b)`)
	conn, err := prog.Connector("A")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := conn.Connect(map[string]int{"a": 2})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if got := inst.Outports("a")[1].Name(); got != "a[2]" {
		t.Errorf("port name = %q", got)
	}
	if got := inst.Inport("b").Name(); got != "b" {
		t.Errorf("port name = %q", got)
	}
}

// TestAOTModeEndToEnd drives a stateful connector under AOT composition.
func TestAOTModeEndToEnd(t *testing.T) {
	prog := reo.MustCompile(`P(a;b) = Fifo1(a;m) mult Fifo1(m;b)`)
	conn, err := prog.Connector("P")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := conn.Connect(nil, reo.WithMode(reo.AOT))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	// All reachable states are expanded up front; traffic must add none.
	pre := inst.Expansions()
	within(t, 10*time.Second, "aot traffic", func() {
		go func() {
			for i := 0; i < 10; i++ {
				inst.Outport("a").Send(i)
			}
		}()
		for i := 0; i < 10; i++ {
			v, err := inst.Inport("b").Recv()
			if err != nil || v != i {
				t.Errorf("recv = %v, %v", v, err)
			}
		}
	})
	if inst.Expansions() != pre {
		t.Errorf("AOT expanded %d more states at run time", inst.Expansions()-pre)
	}
}

// TestConnectOptionValidation: incompatible or out-of-range options
// must fail eagerly at Connect with a typed *reo.OptionError wrapping
// reo.ErrInvalidOption — not be silently ignored.
func TestConnectOptionValidation(t *testing.T) {
	prog := reo.MustCompile(`Lane(a;b) = Fifo1(a;b)`)
	conn, err := prog.Connector("Lane")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		option string // the option the error must name
		opts   []reo.ConnectOption
	}{
		{"workers without regions", "WithWorkers",
			[]reo.ConnectOption{reo.WithPartitioning(reo.PartitionOff), reo.WithWorkers(2)}},
		{"runtime without regions", "WithRuntime",
			[]reo.ConnectOption{reo.WithRuntime(nil)}},
		{"runtime plus workers", "WithRuntime",
			[]reo.ConnectOption{reo.WithPartitioning(reo.PartitionRegions), reo.WithRuntime(nil), reo.WithWorkers(2)}},
		{"reuse plus workers", "WithReuse",
			[]reo.ConnectOption{reo.WithPartitioning(reo.PartitionRegions), reo.WithWorkers(2), reo.WithReuse(true)}},
		{"negative state cache", "WithStateCache",
			[]reo.ConnectOption{reo.WithStateCache(-1)}},
		{"negative max states", "WithMaxStates",
			[]reo.ConnectOption{reo.WithMaxStates(-4)}},
		{"remote without regions", "WithRemoteRegions",
			[]reo.ConnectOption{reo.WithRemoteRegions(&reo.RemoteTopology{})}},
		{"remote with static mode", "WithRemoteRegions",
			[]reo.ConnectOption{reo.WithPartitioning(reo.PartitionRegions), reo.WithMode(reo.Static), reo.WithRemoteRegions(&reo.RemoteTopology{})}},
		{"remote plus reuse", "WithRemoteRegions",
			[]reo.ConnectOption{reo.WithPartitioning(reo.PartitionRegions), reo.WithReuse(true), reo.WithRemoteRegions(&reo.RemoteTopology{})}},
		{"partitioning with static mode", "WithPartitioning",
			[]reo.ConnectOption{reo.WithPartitioning(reo.PartitionRegions), reo.WithMode(reo.Static)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst, err := conn.Connect(nil, tc.opts...)
			if err == nil {
				inst.Close()
				t.Fatal("Connect accepted an invalid option combination")
			}
			if !errors.Is(err, reo.ErrInvalidOption) {
				t.Errorf("errors.Is(err, ErrInvalidOption) = false for %v", err)
			}
			var oe *reo.OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("error %v is not an *OptionError", err)
			}
			if oe.Option != tc.option {
				t.Errorf("OptionError.Option = %q, want %q (%v)", oe.Option, tc.option, err)
			}
		})
	}

	// The valid combinations still connect.
	for _, opts := range [][]reo.ConnectOption{
		{reo.WithPartitioning(reo.PartitionRegions), reo.WithWorkers(2)},
		{reo.WithPartitioning(reo.PartitionRegions), reo.WithRuntime(nil), reo.WithReuse(true)},
		{reo.WithStateCache(0)},
	} {
		inst, err := conn.Connect(nil, opts...)
		if err != nil {
			t.Fatalf("valid options rejected: %v", err)
		}
		inst.Close()
	}
}
