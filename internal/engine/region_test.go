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
// relay values across the link its relay node is spliced into. The relay
// keeps its place in the plan but gets no engine. Traced, every step is
// reported once and each region numbers its steps 1, 2, 3, ... with no
// gap: the relay's hops — the only steps no task operation takes part in,
// so the internal ones — are counted by b's region as it pops each item.
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
	if int64(len(events)) != m.Steps() || m.Steps() != 3*rounds {
		t.Fatalf("%d trace events for %d steps, want %d of each", len(events), m.Steps(), 3*rounds)
	}
	steps := map[string][]int64{}
	hops := 0
	for _, ev := range events {
		who := "b" // a hop, counted by the consuming end
		switch {
		case ev.Internal && len(ev.Ports) == 0:
			hops++
		case !ev.Internal && len(ev.Ports) == 1:
			who = ev.Ports[0].Name
		default:
			t.Fatalf("event %v: want an internal relay hop or one boundary port", ev)
		}
		steps[who] = append(steps[who], ev.Step)
	}
	if hops != rounds {
		t.Errorf("%d internal hops, want %d", hops, rounds)
	}
	for who, n := range map[string]int{"a": rounds, "b": 2 * rounds} {
		want := make([]int64, n)
		for i := range want {
			want[i] = int64(i + 1)
		}
		got := steps[who]
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s steps = %v, want 1..%d once each", who, got, n)
		}
	}
	if in := m.Infos()[1]; in != (engine.PartitionInfo{Worker: -1}) {
		t.Errorf("spliced relay region info = %+v, want an empty entry with Worker -1", in)
	}
}

// TestRegionsRelayCounters streams items through the 8-stage chain, whose
// seven middle regions are relays spliced into one 8-place link, scalar
// and in batches, synchronously and on a 2-worker runtime. Every lane
// counts what the unspliced chain counted: one step per region an item
// enters, the seven relay hops (one step and one guard evaluation each)
// counted by the consuming end as it pops, however the pops batch. The
// relays keep their plan entries but no engine, and the two ends are
// endpoints, so the instance compiles no plan.
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
				const items = 10000 / 64 * 64
				if err := waitForErr(t, stream(t, m, a, b, items, k), 5*time.Second, "sender"); err != nil {
					t.Fatal(err)
				}
				// Close waits for every pass to end: the counters are final.
				m.Close()
				if got, want := m.Steps(), int64((stages+1)*items); got != want {
					t.Errorf("Steps() = %d, want %d", got, want)
				}
				hops := int64((stages - 1) * items)
				if k == 1 {
					// Scalar: each end evaluates one guard per item, as
					// each relay hop counts one.
					if got, want := m.GuardEvals(), int64((stages+1)*items); got != want {
						t.Errorf("GuardEvals() = %d, want %d", got, want)
					}
				} else if got := m.GuardEvals(); got < hops {
					t.Errorf("GuardEvals() = %d, want at least the %d relay hops", got, hops)
				}
				spliced, ends := 0, 0
				for ri, in := range m.Infos() {
					switch {
					case in == engine.PartitionInfo{Worker: -1}:
						spliced++
					case in.Links != 1:
						t.Errorf("region %d: %d link endpoints, want 1 (a chain end) or none (a spliced relay)", ri, in.Links)
					case in.Steps == int64(items):
						ends++ // the producing end
					case in.Steps == int64(items)+hops && in.GuardEvals >= hops:
						ends++ // the consuming end, counting the hops
					default:
						t.Errorf("chain end %d: steps %d, guard evaluations %d; want %d, or %d and at least %d",
							ri, in.Steps, in.GuardEvals, items, int64(items)+hops, hops)
					}
				}
				if spliced != stages-1 || ends != 2 {
					t.Errorf("%d spliced relay regions and %d chain ends, want %d and 2", spliced, ends, stages-1)
				}
				if n := m.PlansCompiled(); n != 0 {
					t.Errorf("PlansCompiled() = %d, want 0 (the two ends are endpoints)", n)
				}
			})
		}
	}
}

// TestRegionsEndpointRunCounts: an endpoint moves a batch as one run and
// counts a step per item but one guard evaluation for the run, as one
// fire and its fused burst would; the consuming end adds the seven hops
// each item stands for to both.
func TestRegionsEndpointRunCounts(t *testing.T) {
	const stages = 8
	m, a, b := fifoChain(t, stages, engine.Options{})
	defer m.Close()
	vals := make([]any, stages)
	for i := range vals {
		vals[i] = i
	}
	if _, err := m.SendBatch(a, vals); err != nil { // fills the spliced link
		t.Fatal(err)
	}
	if _, err := m.RecvBatch(b, vals); err != nil { // and drains it
		t.Fatal(err)
	}
	hops := int64((stages - 1) * stages)
	in := m.Infos()
	if p, c := in[0], in[stages]; p.Steps != stages || p.GuardEvals != 1 ||
		c.Steps != stages+hops || c.GuardEvals != 1+hops {
		t.Errorf("producing end %d steps, %d guard evaluations; consuming end %d and %d; want %d and 1, %d and %d",
			p.Steps, p.GuardEvals, c.Steps, c.GuardEvals, stages, stages+hops, 1+hops)
	}
}

// TestRegionsEndpointCloseParked: an endpoint's operation that cannot move
// parks as any other — a Send on a full link, a Recv on an empty one —
// and Close fails it with ErrClosed, synchronously and on a runtime.
func TestRegionsEndpointCloseParked(t *testing.T) {
	for _, lane := range []string{"sync", "runtime"} {
		for _, op := range []string{"send", "recv"} {
			t.Run(lane+"/"+op, func(t *testing.T) {
				var opts engine.Options
				if lane == "runtime" {
					rt := engine.NewRuntime(2)
					defer rt.Close()
					opts.Runtime = rt
				}
				// Two ends around a relay spliced into one 2-place link.
				m, a, b := fifoChain(t, 2, opts)
				if in := m.Infos(); !in[0].Endpoint || !in[2].Endpoint {
					t.Fatalf("regions %+v: want two endpoints", in)
				}
				parked := make(chan error, 1)
				registered := int64(1)
				if op == "send" {
					for i := 0; i < 2; i++ { // fills the link
						if err := m.Send(a, i); err != nil {
							t.Fatal(err)
						}
					}
					registered += 2
					go func() { parked <- m.Send(a, 2) }()
				} else {
					go func() {
						_, err := m.Recv(b)
						parked <- err
					}()
				}
				engine.WaitRegistered(t, m, registered)
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
				if err := waitForErr(t, parked, 2*time.Second, "parked "+op); err != engine.ErrClosed {
					t.Errorf("parked %s error = %v, want ErrClosed", op, err)
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

// TestRegionsSpliceSeedOrder: a chain's initially full buffers seed its
// spliced link in the order the settled chain delivers them — the one
// nearest the consumer first — and Reset re-seeds it so. Each seed counts
// the relay hops it had ahead of it, so a drained chain counts what the
// unspliced one did.
func TestRegionsSpliceSeedOrder(t *testing.T) {
	const stages, items = 8, 50
	u := ca.NewUniverse()
	ports := make([]ca.PortID, stages+1)
	for i := range ports {
		ports[i] = u.Port(fmt.Sprintf("p%d", i))
	}
	u.SetDir(ports[0], ca.DirSource)
	u.SetDir(ports[stages], ca.DirSink)
	var auts []*ca.Automaton
	for i := 0; i < stages; i++ {
		if i == 2 || i == 5 {
			auts = append(auts, prim.Fifo1Full(u, ports[i], ports[i+1], fmt.Sprintf("seed%d", i)))
		} else {
			auts = append(auts, prim.Fifo1(u, ports[i], ports[i+1]))
		}
	}
	m, err := engine.NewMultiRegions(u, auts, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for life := 0; life < 2; life++ {
		go func() {
			for i := 0; i < items; i++ {
				if m.Send(ports[0], i) != nil {
					return
				}
			}
		}()
		want := []any{"seed5", "seed2"}
		for i := 0; i < items; i++ {
			want = append(want, i)
		}
		for i, w := range want {
			if v, err := m.Recv(ports[stages]); err != nil || v != w {
				t.Fatalf("life %d: recv %d = %v, %v; want %v", life, i, v, err, w)
			}
		}
		m.Close()
		// A sent item takes 9 steps; the seed of link 5 hops over two
		// relays and fires the sink, the one of link 2 over five.
		if got, want := m.Steps(), int64(9*items+3+6); got != want {
			t.Errorf("life %d: Steps() = %d, want %d", life, got, want)
		}
		if err := m.Reset(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRegionsSpliceKeepsRelays: only a relay with one inbound and one
// outbound link between two other regions of the process splices. A
// fan-out relay, a relay on a loop out of and back into one region, and a
// closed cycle of relays keep their engines and the node pass; a chain
// ending at a fan-out relay still splices, and that relay counts the
// chain's hops with its own.
func TestRegionsSpliceKeepsRelays(t *testing.T) {
	const items = 40
	t.Run("fan-out", func(t *testing.T) {
		// a → m1 → m2 ⇉ {x, y}: m1 splices into a link a → m2, m2 fans out.
		u := ca.NewUniverse()
		a, m1, m2, x, y := u.Port("a"), u.Port("m1"), u.Port("m2"), u.Port("x"), u.Port("y")
		u.SetDir(a, ca.DirSource)
		u.SetDir(x, ca.DirSink)
		u.SetDir(y, ca.DirSink)
		auts := []*ca.Automaton{prim.Fifo1(u, a, m1), prim.Fifo1(u, m1, m2), prim.Fifo1(u, m2, x), prim.Fifo1(u, m2, y)}
		m, err := engine.NewMultiRegions(u, auts, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		go func() {
			for i := 0; i < items; i++ {
				if m.Send(a, i) != nil {
					return
				}
			}
		}()
		for i := 0; i < items; i++ {
			for _, p := range []ca.PortID{x, y} {
				if v, err := m.Recv(p); err != nil || v != i {
					t.Fatalf("recv %d at %s = %v, %v", i, u.Name(p), v, err)
				}
			}
		}
		m.Close()
		spliced, fanOut := 0, 0
		for ri, in := range m.Infos() {
			switch {
			case in == engine.PartitionInfo{Worker: -1}:
				spliced++
			case in.Links == 3:
				fanOut++
				// Its own hop and m1's, one guard evaluation each.
				if in.Steps != 2*items || in.GuardEvals != 2*items || in.Expansions != 0 {
					t.Errorf("fan-out relay %d: steps %d, guard evaluations %d, expansions %d; want %d, %d, 0",
						ri, in.Steps, in.GuardEvals, in.Expansions, 2*items, 2*items)
				}
			}
		}
		if spliced != 1 || fanOut != 1 {
			t.Errorf("%d spliced relays and %d fan-out relays, want 1 and 1", spliced, fanOut)
		}
		if got, want := m.Steps(), int64(5*items); got != want {
			t.Errorf("Steps() = %d, want %d (a, m1, m2, x, y)", got, want)
		}
	})
	t.Run("loop", func(t *testing.T) {
		// One region fires a with x (pushing into x → m) and y (draining
		// the seed m → y hands back): the relay m leaves and re-enters
		// that region, so there is no second end to splice to.
		u := ca.NewUniverse()
		a, x, mid, y := u.Port("a"), u.Port("x"), u.Port("m"), u.Port("y")
		u.SetDir(a, ca.DirSource)
		auts := []*ca.Automaton{prim.Sync(u, a, x), prim.SyncDrain(u, a, y), prim.Fifo1(u, x, mid), prim.Fifo1Full(u, mid, y, "seed")}
		m, err := engine.NewMultiRegions(u, auts, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for i := 0; i < items; i++ {
			if err := m.Send(a, i); err != nil {
				t.Fatal(err)
			}
		}
		m.Close()
		relays := 0
		for ri, in := range m.Infos() {
			if in == (engine.PartitionInfo{Worker: -1}) {
				t.Errorf("region %d spliced on a loop back into its producer", ri)
			}
			if in.Links == 2 && in.Constituents == 1 {
				relays++
				if in.Steps != items {
					t.Errorf("relay region %d: %d steps, want %d", ri, in.Steps, items)
				}
			}
		}
		if relays != 1 {
			t.Errorf("%d relay regions, want 1", relays)
		}
	})
	t.Run("cycle", func(t *testing.T) {
		// The closed relay cycle of TestRegionsClosedCycleLivelocks: no
		// other region feeds it, so both relays keep their engines and the
		// walk's budget breaks the connector.
		u := ca.NewUniverse()
		x, y, a, b := u.Port("x"), u.Port("y"), u.Port("a"), u.Port("b")
		u.SetDir(a, ca.DirSource)
		u.SetDir(b, ca.DirSink)
		auts := []*ca.Automaton{prim.Fifo1Full(u, x, y, prim.Token{}), prim.Fifo1(u, y, x), prim.Fifo1(u, a, b)}
		m, err := engine.NewMultiRegions(u, auts, engine.Options{MaxTauBurst: 100})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		relays := 0
		for ri, in := range m.Infos() {
			if in == (engine.PartitionInfo{Worker: -1}) {
				t.Errorf("region %d of a closed relay cycle spliced", ri)
			}
			if in.Links == 2 {
				relays++
			}
		}
		if relays != 2 {
			t.Errorf("%d relay regions, want 2", relays)
		}
		if _, err := m.Recv(b); !errors.Is(err, engine.ErrLivelock) {
			t.Errorf("lane recv = %v, want ErrLivelock", err)
		}
	})
}
