package engine_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/engine"
	"repro/internal/prim"
)

// regionChain builds Sync(a;x) | Fifo1(x;y) | Sync(y;b): one connected
// component that region partitioning must cut at the buffer.
func regionChain(t *testing.T, opts engine.Options) (*engine.Multi, ca.PortID, ca.PortID) {
	t.Helper()
	u := ca.NewUniverse()
	a, x, y, b := u.Port("a"), u.Port("x"), u.Port("y"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	auts := []*ca.Automaton{prim.Sync(u, a, x), prim.Fifo1(u, x, y), prim.Sync(u, y, b)}
	m, err := engine.NewMultiRegions(u, auts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Partitions() != 2 {
		t.Fatalf("partitions = %d, want 2 (cut at the buffer)", m.Partitions())
	}
	if !m.RegionPartitioned() {
		t.Fatal("RegionPartitioned() = false")
	}
	return m, a, b
}

func TestRegionsCutChainEndToEnd(t *testing.T) {
	m, a, b := regionChain(t, engine.Options{})
	defer m.Close()
	const rounds = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if err := m.Send(a, i); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < rounds; i++ {
		v, err := m.Recv(b)
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("recv %d = %v", i, v)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if m.Steps() == 0 {
		t.Error("no steps counted")
	}
}

// TestRegionsBufferCapacityBlocks: with the link holding one value, a
// second send must block until the receiver drains the first.
func TestRegionsBufferCapacityBlocks(t *testing.T) {
	m, a, b := regionChain(t, engine.Options{})
	defer m.Close()
	if err := m.Send(a, 1); err != nil { // fills the link
		t.Fatal(err)
	}
	second := make(chan error, 1)
	go func() { second <- m.Send(a, 2) }()
	select {
	case err := <-second:
		t.Fatalf("second send completed with buffer full: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	for want := 1; want <= 2; want++ {
		v, err := m.Recv(b)
		if err != nil || v != want {
			t.Fatalf("recv = %v, %v; want %d", v, err, want)
		}
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
}

// TestRegionsInitiallyFullLink: a Fifo1Full constituent becomes a link
// that starts full; its seed value must come out first.
func TestRegionsInitiallyFullLink(t *testing.T) {
	u := ca.NewUniverse()
	a, x, y, b := u.Port("a"), u.Port("x"), u.Port("y"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	auts := []*ca.Automaton{prim.Sync(u, a, x), prim.Fifo1Full(u, x, y, "seed"), prim.Sync(u, y, b)}
	m, err := engine.NewMultiRegions(u, auts, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	v, err := m.Recv(b) // no send needed: the link starts full
	if err != nil || v != "seed" {
		t.Fatalf("recv = %v, %v; want seed", v, err)
	}
	go m.Send(a, 7)
	if v, err = m.Recv(b); err != nil || v != 7 {
		t.Fatalf("recv = %v, %v; want 7", v, err)
	}
}

// TestRegionsNodeRelay: a pure buffer pipeline (only node regions) must
// relay values across multiple pump-driven hops. Traced, every step is
// reported once, each region numbers its steps 1, 2, 3, ... with no gap,
// and the relay node's hops — the only steps no task operation takes part
// in — are the internal ones.
func TestRegionsNodeRelay(t *testing.T) {
	u := ca.NewUniverse()
	a, mid, b := u.Port("a"), u.Port("m"), u.Port("b")
	u.SetDir(a, ca.DirSource)
	u.SetDir(b, ca.DirSink)
	auts := []*ca.Automaton{prim.Fifo1(u, a, mid), prim.Fifo1(u, mid, b)}
	m, err := engine.NewMultiRegions(u, auts, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Partitions() != 3 {
		t.Fatalf("partitions = %d, want 3 (two ends and a relay node)", m.Partitions())
	}
	var rec engine.Recorder
	m.SetTracer(rec.Trace)
	const rounds = 100
	go func() {
		for i := 0; i < rounds; i++ {
			if m.Send(a, i) != nil {
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		v, err := m.Recv(b)
		if err != nil || v != i {
			t.Fatalf("recv %d = %v, %v", i, v, err)
		}
	}
	m.Close() // takes every region's lock: the last step is counted and traced
	events := rec.Events()
	if int64(len(events)) != m.Steps() {
		t.Fatalf("%d trace events for %d steps", len(events), m.Steps())
	}
	steps := map[string][]int64{}
	for _, ev := range events {
		who := "relay"
		switch {
		case ev.Internal && len(ev.Ports) == 0:
		case !ev.Internal && len(ev.Ports) == 1:
			who = ev.Ports[0].Name
		default:
			t.Fatalf("event %v: want an internal relay hop or one boundary port", ev)
		}
		steps[who] = append(steps[who], ev.Step)
	}
	want := make([]int64, rounds)
	for i := range want {
		want[i] = int64(i + 1)
	}
	for _, who := range []string{"a", "relay", "b"} {
		got := steps[who]
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s steps = %v, want 1..%d once each", who, got, rounds)
		}
	}
}

// TestRegionsRelayCounters streams items through the 8-stage chain, whose
// seven middle regions are relays, scalar and in batches, synchronously
// and on a 2-worker runtime. Every lane counts the same: one step per
// region an item enters, and on each relay one step and one guard
// evaluation per item, however the hops of neighboring regions overlap
// in time, and no expansion.
func TestRegionsRelayCounters(t *testing.T) {
	const stages = 8
	for _, lane := range []string{"sync", "runtime"} {
		for _, k := range []int{1, 64} {
			t.Run(fmt.Sprintf("%s/k%d", lane, k), func(t *testing.T) {
				var opts engine.Options
				var rt *engine.Runtime
				if lane == "runtime" {
					rt = engine.NewRuntime(2)
					defer rt.Close()
					opts.Runtime = rt
				}
				m, a, b := fifoChain(t, stages, opts)
				items := 10000
				if k == 1 {
					sent := make(chan error, 1)
					go func() {
						for i := 0; i < items; i++ {
							if err := m.Send(a, i); err != nil {
								sent <- err
								return
							}
						}
						sent <- nil
					}()
					for i := 0; i < items; i++ {
						if v, err := m.Recv(b); err != nil || v != i {
							t.Fatalf("recv %d = %v, %v", i, v, err)
						}
					}
					if err := waitForErr(t, sent, 5*time.Second, "sender"); err != nil {
						t.Fatal(err)
					}
				} else {
					batches := items / k
					items = batches * k
					if err := waitForErr(t, streamBatches(t, m, a, b, batches, k), 5*time.Second, "sender"); err != nil {
						t.Fatal(err)
					}
				}
				// Close waits for every pass to end: the counters are final.
				m.Close()
				if got, want := m.Steps(), int64((stages+1)*items); got != want {
					t.Errorf("Steps() = %d, want %d", got, want)
				}
				relays := 0
				for ri, in := range m.Infos() {
					if in.Links != 2 {
						continue // an end of the chain: one link, and a task-facing port
					}
					relays++
					if in.Steps != int64(items) || in.GuardEvals != int64(items) || in.Expansions != 0 {
						t.Errorf("relay region %d: steps %d, guard evaluations %d, expansions %d; want %d, %d, 0",
							ri, in.Steps, in.GuardEvals, in.Expansions, items, items)
					}
				}
				if relays != stages-1 {
					t.Errorf("%d relay regions, want %d", relays, stages-1)
				}
				if n := m.PlansCompiled(); n != 2 {
					t.Errorf("PlansCompiled() = %d, want 2 (the two ends; relays compile none)", n)
				}
			})
		}
	}
}

// TestRegionsReplicatedAccept: one node feeding several links pushes to
// all of them in a single fire (replication), gated on all being
// non-full.
func TestRegionsReplicatedAccept(t *testing.T) {
	u := ca.NewUniverse()
	in := u.Port("in")
	u.SetDir(in, ca.DirSource)
	var auts []*ca.Automaton
	var outs []ca.PortID
	for i := 0; i < 3; i++ {
		o := u.Port(fmt.Sprintf("out%d", i))
		u.SetDir(o, ca.DirSink)
		outs = append(outs, o)
		auts = append(auts, prim.Fifo1(u, in, o))
	}
	m, err := engine.NewMultiRegions(u, auts, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Send(in, "v"); err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		v, err := m.Recv(o)
		if err != nil || v != "v" {
			t.Fatalf("recv %v = %v, %v", o, v, err)
		}
	}
}

// TestRegionsTokenRing drives a sequencer-style token ring cut into one
// region per drain: N clients must complete in strict cyclic order.
func TestRegionsTokenRing(t *testing.T) {
	const n = 4
	u := ca.NewUniverse()
	var auts []*ca.Automaton
	cs := make([]ca.PortID, n)
	rs := make([]ca.PortID, n)
	for i := 0; i < n; i++ {
		cs[i] = u.Port(fmt.Sprintf("c%d", i))
		rs[i] = u.Port(fmt.Sprintf("r%d", i))
		u.SetDir(cs[i], ca.DirSource)
	}
	for i := 0; i < n-1; i++ {
		auts = append(auts, prim.Fifo1(u, rs[i], rs[i+1]))
	}
	auts = append(auts, prim.Fifo1Full(u, rs[n-1], rs[0], prim.Token{}))
	for i := 0; i < n; i++ {
		auts = append(auts, prim.SyncDrain(u, cs[i], rs[i]))
	}
	m, err := engine.NewMultiRegions(u, auts, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Partitions() != n {
		t.Fatalf("partitions = %d, want %d", m.Partitions(), n)
	}

	// Probe the token order deterministically: the out-of-turn client
	// must stay blocked until the in-turn client has fired.
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			next := make(chan error, 1)
			go func(who int) { next <- m.Send(cs[(who+1)%n], 0) }(i)
			select {
			case err := <-next:
				t.Fatalf("round %d: client %d completed out of turn: %v", round, (i+1)%n, err)
			case <-time.After(20 * time.Millisecond):
			}
			if err := m.Send(cs[i], round); err != nil {
				t.Fatalf("round %d: client %d: %v", round, i, err)
			}
			// Now the out-of-turn probe is the in-turn client.
			if err := <-next; err != nil {
				t.Fatalf("round %d: client %d: %v", round, (i+1)%n, err)
			}
			i++ // the probe consumed client i+1's turn
		}
	}
}

// TestRegionsClosePropagatesToPending: Close must fail pending
// operations in every region.
func TestRegionsClosePropagatesToPending(t *testing.T) {
	m, a, b := regionChain(t, engine.Options{})
	errs := make(chan error, 2)
	// Both sides loop until the connector fails them; after Close, each
	// goroutine's in-flight operation must surface ErrClosed whichever
	// region it is pending in.
	go func() {
		for {
			if _, err := m.Recv(b); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		for {
			if err := m.Send(a, 0); err != nil {
				errs <- err
				return
			}
		}
	}()
	// The chain buffers a single item, so this many operations means
	// both sides are streaming.
	engine.WaitRegistered(t, m, 64)
	m.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != engine.ErrClosed {
				t.Errorf("pending op error = %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("pending operation not released by Close")
		}
	}
}

// TestRegionsAOT: ahead-of-time composition must expand each region's
// space with link gates in place.
func TestRegionsAOT(t *testing.T) {
	m, a, b := regionChain(t, engine.Options{Composition: engine.AOT})
	defer m.Close()
	go m.Send(a, 5)
	v, err := m.Recv(b)
	if err != nil || v != 5 {
		t.Fatalf("recv = %v, %v", v, err)
	}
	if m.Expansions() == 0 {
		t.Error("AOT should have expanded states eagerly")
	}
}

// TestRegionsClosedCycleLivelocks: a closed loop of cut buffers with no
// task anywhere on it spins a token through pure relay regions forever.
// The nudge walk (synchronously) or the workers' τ-burst accounting (on a
// runtime) must hit its budget and break the whole connector with
// ErrLivelock instead of hanging NewMultiRegions — the region analogue of
// the single engine's τ-burst guard. An independent Fifo1 lane of the same
// connector shows the break: its receive fails with ErrLivelock.
func TestRegionsClosedCycleLivelocks(t *testing.T) {
	for _, lane := range []string{"sync", "runtime"} {
		t.Run(lane, func(t *testing.T) {
			u := ca.NewUniverse()
			x, y := u.Port("x"), u.Port("y")
			a, b := u.Port("a"), u.Port("b")
			u.SetDir(a, ca.DirSource)
			u.SetDir(b, ca.DirSink)
			auts := []*ca.Automaton{prim.Fifo1Full(u, x, y, prim.Token{}), prim.Fifo1(u, y, x), prim.Fifo1(u, a, b)}
			opts := engine.Options{MaxTauBurst: 1000}
			if lane == "runtime" {
				rt := engine.NewRuntime(1)
				defer rt.Close()
				opts.Runtime = rt
			}
			var m *engine.Multi
			done := make(chan error, 1)
			go func() {
				var err error
				if m, err = engine.NewMultiRegions(u, auts, opts); err != nil {
					done <- fmt.Errorf("construction failed: %w", err)
					return
				}
				_, err = m.Recv(b)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, engine.ErrLivelock) {
					t.Errorf("lane recv = %v, want ErrLivelock", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a closed buffer cycle hung the connector instead of breaking it")
			}
			if m != nil {
				m.Close() // before the runtime's deferred Close
			}
		})
	}
}

// TestRegionsInfos checks the per-region statistics snapshot.
func TestRegionsInfos(t *testing.T) {
	m, a, b := regionChain(t, engine.Options{})
	defer m.Close()
	go m.Send(a, 1)
	if _, err := m.Recv(b); err != nil {
		t.Fatal(err)
	}
	infos := m.Infos()
	if len(infos) != 2 {
		t.Fatalf("infos = %d entries, want 2", len(infos))
	}
	var steps int64
	links := 0
	for _, in := range infos {
		steps += in.Steps
		links += in.Links
		if in.Constituents == 0 {
			t.Error("region reports zero constituents")
		}
	}
	if steps != m.Steps() {
		t.Errorf("per-region steps sum %d != total %d", steps, m.Steps())
	}
	if links != 2 {
		t.Errorf("link endpoints = %d, want 2 (one per side)", links)
	}
	if m.Plan() == nil || m.Plan().NumCut() != 1 {
		t.Errorf("plan = %+v, want 1 cut buffer", m.Plan())
	}
}
