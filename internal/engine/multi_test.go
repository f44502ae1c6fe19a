package engine_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/engine"
	"repro/internal/prim"
)

// multiLanes builds a Multi over n independent Fifo1 components: each
// isolated buffer stays uncut, one region per lane.
func multiLanes(t *testing.T, n int) (*engine.Multi, *ca.Universe, []ca.PortID, []ca.PortID) {
	t.Helper()
	u := ca.NewUniverse()
	var auts []*ca.Automaton
	var as, bs []ca.PortID
	for i := 0; i < n; i++ {
		a := u.Port(fmt.Sprintf("a%d", i))
		b := u.Port(fmt.Sprintf("b%d", i))
		u.SetDir(a, ca.DirSource)
		u.SetDir(b, ca.DirSink)
		as, bs = append(as, a), append(bs, b)
		auts = append(auts, prim.Fifo1(u, a, b))
	}
	m, err := engine.NewMultiRegions(u, auts, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m, u, as, bs
}

func TestMultiUnknownPortErrors(t *testing.T) {
	m, u, _, _ := multiLanes(t, 2)
	defer m.Close()
	// A port beyond the universe is unknown.
	if err := m.Send(ca.PortID(9999), 1); err == nil || !strings.Contains(err.Error(), "not owned") {
		t.Errorf("send on out-of-range port: err = %v, want ownership error", err)
	}
	if _, err := m.Recv(ca.PortID(9999)); err == nil || !strings.Contains(err.Error(), "not owned") {
		t.Errorf("recv on out-of-range port: err = %v, want ownership error", err)
	}
	// A port interned after partitioning belongs to no engine.
	stray := u.Port("stray")
	if err := m.Send(stray, 1); err == nil || !strings.Contains(err.Error(), "not owned") {
		t.Errorf("send on unowned port: err = %v, want ownership error", err)
	}
	// Direction misuse is still caught by the owning engine.
	m2, _, as, bs := multiLanes(t, 1)
	defer m2.Close()
	if err := m2.Send(bs[0], 1); err == nil {
		t.Error("send on sink port should fail")
	}
	if _, err := m2.Recv(as[0]); err == nil {
		t.Error("recv on source port should fail")
	}
}

func TestMultiStatAggregation(t *testing.T) {
	const n, rounds = 3, 10
	m, _, as, bs := multiLanes(t, n)
	defer m.Close()
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			if err := m.Send(as[i], r); err != nil {
				t.Fatal(err)
			}
			if v, err := m.Recv(bs[i]); err != nil || v != r {
				t.Fatalf("lane %d round %d: %v, %v", i, r, v, err)
			}
		}
	}
	if got, want := m.Steps(), int64(2*n*rounds); got != want {
		t.Errorf("Steps() = %d, want %d (accept+emit per round per lane)", got, want)
	}
	infos := m.Infos()
	if len(infos) != n {
		t.Fatalf("Infos() = %d entries, want %d", len(infos), n)
	}
	var steps, exps, guards int64
	for _, in := range infos {
		steps += in.Steps
		exps += in.Expansions
		guards += in.GuardEvals
		if in.Links != 0 {
			t.Errorf("isolated buffer region reports %d links, want 0 (an isolated buffer is not cut)", in.Links)
		}
	}
	if steps != m.Steps() || exps != m.Expansions() || guards != m.GuardEvals() {
		t.Errorf("aggregates (%d,%d,%d) != sums (%d,%d,%d)",
			m.Steps(), m.Expansions(), m.GuardEvals(), steps, exps, guards)
	}
	if m.Expansions() == 0 || m.GuardEvals() == 0 {
		t.Error("expansion/guard counters should be nonzero after a run")
	}
}

func TestMultiClosePropagatesToAllPartitions(t *testing.T) {
	const n = 4
	m, _, _, bs := multiLanes(t, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) { _, err := m.Recv(bs[i]); errs <- err }(i)
	}
	engine.WaitRegistered(t, m, n) // every receive is pending
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if err != engine.ErrClosed {
				t.Errorf("pending recv error = %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("pending recv not released by Close")
		}
	}
	// Post-close operations fail too.
	if err := m.Send(ca.PortID(0), 1); err != engine.ErrClosed {
		t.Errorf("post-close send error = %v, want ErrClosed", err)
	}
}

// TestMultiConcurrentCrossPartition hammers all partitions from
// concurrent goroutines; run under -race this exercises the router's
// lock-free dispatch to independently locked engines.
func TestMultiConcurrentCrossPartition(t *testing.T) {
	const n, rounds = 8, 50
	m, _, as, bs := multiLanes(t, n)
	defer m.Close()
	if m.Partitions() != n {
		t.Fatalf("partitions = %d, want %d", m.Partitions(), n)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := m.Send(as[i], i*rounds+r); err != nil {
					t.Errorf("send lane %d: %v", i, err)
					return
				}
			}
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				v, err := m.Recv(bs[i])
				if err != nil || v != i*rounds+r {
					t.Errorf("lane %d recv = %v, %v; want %d", i, v, err, i*rounds+r)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got, want := m.Steps(), int64(2*n*rounds); got != want {
		t.Errorf("Steps() = %d, want %d", got, want)
	}
}
