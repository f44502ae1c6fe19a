package ca

import (
	"fmt"
	"strings"
)

// This file implements asynchronous-region partitioning: the static
// analysis that decomposes a connector's constituent automata into
// synchronous regions joined by buffered links (the optimization
// direction of the paper's §V-C(3), after Jongmans, Santini & Arbab and
// the Dreams/GALS line of work by Proença et al.).
//
// The cut point is a *buffer constituent*: an automaton whose transitions
// never synchronize more than one port at a time — a full buffer never
// requires multi-party consensus across it. Such a constituent can be
// replaced by a bounded queue between the region producing into it and
// the region consuming out of it; each region then fires with purely
// local information (its own pending operations plus the fill levels of
// its adjacent queues), so regions execute concurrently.

// UnionFind is a plain disjoint-set forest with path halving, shared by
// the region planner and the explorer's port-component analysis
// (explore.PortComponents).
type UnionFind []int

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) UnionFind {
	u := make(UnionFind, n)
	for i := range u {
		u[i] = i
	}
	return u
}

// Find returns the representative of x's set.
func (u UnionFind) Find(x int) int {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

// Union merges the sets of a and b.
func (u UnionFind) Union(a, b int) { u[u.Find(a)] = u.Find(b) }

// BufferShape describes a constituent recognized as a one-place buffer
// (the Fifo1/Fifo1Full shape, detected structurally — any automaton with
// the same state graph qualifies, whatever primitive produced it).
type BufferShape struct {
	// In is the accept port (data flows into the buffer when it fires).
	In PortID
	// Out is the emit port (data flows out of the buffer when it fires).
	Out PortID
	// Cell holds the buffered value between accept and emit.
	Cell CellID
	// Capacity is the number of values the buffer holds (1 for Fifo1).
	Capacity int
	// Full reports whether the buffer starts full (Fifo1Full); the
	// initial content is the universe's initial value for Cell.
	Full bool
}

// DetectBuffer reports whether a is structurally a one-place buffer:
// two states forming a cycle, one transition accepting a single port
// into a cell, one emitting the same cell through a single other port,
// with no guards and no other actions. Both Fifo1 and Fifo1Full match
// (distinguished by the initial state); so does any hand-built automaton
// of the same shape.
func DetectBuffer(a *Automaton) (BufferShape, bool) {
	var none BufferShape
	if a.NumStates() != 2 || a.NumTransitions() != 2 || a.Ports.Count() != 2 {
		return none, false
	}
	if len(a.Trans[0]) != 1 || len(a.Trans[1]) != 1 {
		return none, false
	}
	classify := func(s int32) (accept bool, p PortID, c CellID, ok bool) {
		t := &a.Trans[s][0]
		if t.Target == s || len(t.Guards) != 0 || len(t.Acts) != 1 || t.Sync.Count() != 1 {
			return false, 0, 0, false
		}
		p = t.Sync.Ports()[0]
		act := &t.Acts[0]
		if act.Xform != nil {
			return false, 0, 0, false
		}
		switch {
		case act.Dst.Kind == LocCell && act.Src.Kind == LocPort && act.Src.Port == p:
			return true, p, act.Dst.Cell, true
		case act.Dst.Kind == LocPort && act.Dst.Port == p && act.Src.Kind == LocCell:
			return false, p, act.Src.Cell, true
		}
		return false, 0, 0, false
	}
	acc0, p0, c0, ok0 := classify(0)
	acc1, p1, c1, ok1 := classify(1)
	if !ok0 || !ok1 || acc0 == acc1 || c0 != c1 || p0 == p1 {
		return none, false
	}
	sh := BufferShape{Cell: c0, Capacity: 1}
	if acc0 {
		sh.In, sh.Out = p0, p1
		sh.Full = a.Initial == 1
	} else {
		sh.In, sh.Out = p1, p0
		sh.Full = a.Initial == 0
	}
	return sh, true
}

// RegionSpec is one synchronous region of a RegionPlan.
type RegionSpec struct {
	// Auts are indices (into the analyzed constituent slice) of the
	// automata executing inside this region.
	Auts []int
	// Nodes are ports for which the region consists only of a synthesized
	// single-port node automaton: link endpoints with no constituent
	// attached (task-facing buffer ends, or relay nodes between two
	// buffers).
	Nodes []PortID
}

// RegionLink is one buffered boundary between two regions: a buffer
// constituent converted into a bounded queue. The source region fires
// SrcPort to push (gated on the queue being non-full); the target region
// fires DstPort to pop (gated on it being non-empty).
type RegionLink struct {
	From, To         int
	SrcPort, DstPort PortID
	Capacity         int
	// Full/Initial describe the queue's starting contents.
	Full    bool
	Initial any
	// Buffer is the index of the converted constituent.
	Buffer int
}

// RegionPlan is the result of the region analysis: a partition of the
// constituents into synchronous regions plus the links joining them.
// Constituents that appear in no region are exactly the buffers listed
// in Links.
type RegionPlan struct {
	Regions []RegionSpec
	Links   []RegionLink
}

// NumCut returns how many buffer constituents were converted to links.
func (rp *RegionPlan) NumCut() int { return len(rp.Links) }

// PlanRegions partitions the constituent automata into asynchronous
// regions. Non-buffer constituents sharing a port always land in the
// same region (they may need multi-party consensus). A buffer constituent
// is cut into a link unless both of its ports attach to the same region —
// then cutting gains nothing and the buffer stays an ordinary
// constituent. Ports attached only to buffers (task-facing buffer ends
// and buffer-to-buffer relay nodes) get singleton node regions.
//
// The analysis is linear in total automaton size up to the union-find
// fixpoint, and must be given the same automata slice later used to
// build the region engines.
func PlanRegions(u *Universe, auts []*Automaton) *RegionPlan {
	n := len(auts)
	shapes := make([]BufferShape, n)
	isBuf := make([]bool, n)
	for i, a := range auts {
		a.PadToUniverse()
		shapes[i], isBuf[i] = DetectBuffer(a)
	}

	// Defensive: two buffers emitting through the same port would need a
	// merge at the link level; keep such buffers as ordinary constituents.
	// (Connector assembly never produces this — multi-writer vertices get
	// explicit mergers — but hand-built automata can.)
	outUsers := make(map[PortID][]int)
	for i := range auts {
		if isBuf[i] {
			outUsers[shapes[i].Out] = append(outUsers[shapes[i].Out], i)
		}
	}
	for _, ids := range outUsers {
		if len(ids) > 1 {
			for _, i := range ids {
				isBuf[i] = false
			}
		}
	}

	// users[p] lists every constituent whose alphabet contains p.
	users := make(map[PortID][]int)
	for i, a := range auts {
		a.Ports.ForEach(func(p PortID) { users[p] = append(users[p], i) })
	}

	uf := NewUnionFind(n)
	find := uf.Find
	union := uf.Union

	// An isolated buffer — no other constituent on either port — is
	// already decoupled from everything except its tasks: cutting it
	// would replace one engine with two node regions and a link for no
	// concurrency gain. Keep it solid; it becomes its own singleton
	// region, exactly the component cut.
	for i := range auts {
		if !isBuf[i] {
			continue
		}
		if len(users[shapes[i].In]) == 1 && len(users[shapes[i].Out]) == 1 {
			isBuf[i] = false
		}
	}

	// Union solid (non-buffer) constituents sharing a port; buffers do not
	// participate — they are the prospective cut points.
	solidUnion := func(i int) {
		auts[i].Ports.ForEach(func(p PortID) {
			for _, j := range users[p] {
				if j != i && !isBuf[j] {
					union(i, j)
				}
			}
		})
	}
	for i := range auts {
		if !isBuf[i] {
			solidUnion(i)
		}
	}

	// sideRoot returns the region root a buffer port attaches to: the
	// union-find root of any solid user, or -1 if only buffers (or
	// nothing) use the port.
	sideRoot := func(self int, p PortID) int {
		for _, j := range users[p] {
			if j != self && !isBuf[j] {
				return find(j)
			}
		}
		return -1
	}

	// Fixpoint: a buffer whose two sides already attach to one region is
	// kept as an ordinary constituent (no cut). Keeping it makes it solid,
	// which can connect further buffers' sides, so iterate.
	for changed := true; changed; {
		changed = false
		for i := range auts {
			if !isBuf[i] {
				continue
			}
			in := sideRoot(i, shapes[i].In)
			out := sideRoot(i, shapes[i].Out)
			if in >= 0 && in == out {
				isBuf[i] = false
				solidUnion(i)
				changed = true
			}
		}
	}

	// Number regions: solid constituents by union-find root, in first-
	// constituent order.
	plan := &RegionPlan{}
	regionOf := make(map[int]int)
	for i := range auts {
		if isBuf[i] {
			continue
		}
		r := find(i)
		ri, ok := regionOf[r]
		if !ok {
			ri = len(plan.Regions)
			regionOf[r] = ri
			plan.Regions = append(plan.Regions, RegionSpec{})
		}
		plan.Regions[ri].Auts = append(plan.Regions[ri].Auts, i)
	}

	// Node regions for link endpoints with no solid constituent attached,
	// one per port, created in buffer order for determinism.
	nodeRegion := make(map[PortID]int)
	regionForPort := func(self int, p PortID) int {
		for _, j := range users[p] {
			if j != self && !isBuf[j] {
				return regionOf[find(j)]
			}
		}
		if ri, ok := nodeRegion[p]; ok {
			return ri
		}
		ri := len(plan.Regions)
		nodeRegion[p] = ri
		plan.Regions = append(plan.Regions, RegionSpec{Nodes: []PortID{p}})
		return ri
	}
	for i := range auts {
		if !isBuf[i] {
			continue
		}
		sh := shapes[i]
		lk := RegionLink{
			From:     regionForPort(i, sh.In),
			To:       regionForPort(i, sh.Out),
			SrcPort:  sh.In,
			DstPort:  sh.Out,
			Capacity: sh.Capacity,
			Full:     sh.Full,
			Buffer:   i,
		}
		if sh.Full {
			lk.Initial = u.CellInitial(sh.Cell)
		}
		plan.Links = append(plan.Links, lk)
	}
	return plan
}

// PortRegions maps every port to the index of the region that executes
// it (-1 for ports outside the plan, e.g. hidden ports of cut buffers).
// This is the ownership a distributed placement uses to decide which
// node drives which boundary port.
func (rp *RegionPlan) PortRegions(u *Universe, auts []*Automaton) []int {
	owner := make([]int, u.NumPorts())
	for i := range owner {
		owner[i] = -1
	}
	for ri, spec := range rp.Regions {
		for _, ai := range spec.Auts {
			ri := ri
			auts[ai].Ports.ForEach(func(p PortID) { owner[p] = ri })
		}
		for _, p := range spec.Nodes {
			owner[p] = ri
		}
	}
	return owner
}

// NodeAutomaton synthesizes the trivial automaton of a node region: one
// state with a self-loop firing the single port. It carries no data
// actions — the value flowing through the node comes from the adjacent
// link or pending operation at run time.
func NodeAutomaton(u *Universe, p PortID) *Automaton {
	return NewBuilder(u, "node:"+u.Name(p), 1, 0).
		T(0, 0).Sync(p).Done().
		Build()
}

// Dump renders the plan for diagnostics (cmd/reoc regions).
func (rp *RegionPlan) Dump(u *Universe, auts []*Automaton) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d regions, %d links (%d constituents, %d cut buffers)\n",
		len(rp.Regions), len(rp.Links), len(auts), len(rp.Links))
	for ri, r := range rp.Regions {
		fmt.Fprintf(&sb, "region %d:", ri)
		for _, ai := range r.Auts {
			ports := u.PortSetNames(visiblePorts(u, auts[ai]))
			fmt.Fprintf(&sb, " %s{%s}", auts[ai].Name, strings.Join(ports, ","))
		}
		for _, p := range r.Nodes {
			fmt.Fprintf(&sb, " node(%s)", u.Name(p))
		}
		sb.WriteByte('\n')
	}
	for li, lk := range rp.Links {
		state := "empty"
		if lk.Full {
			state = "full"
		}
		fmt.Fprintf(&sb, "link %d: region %d --%s>%s--> region %d  cap=%d %s (%s)\n",
			li, lk.From, u.Name(lk.SrcPort), u.Name(lk.DstPort), lk.To,
			lk.Capacity, state, auts[lk.Buffer].Name)
	}
	return sb.String()
}

// visiblePorts returns the task-visible (boundary) ports of a, falling
// back to the full alphabet when it has none, sorted for stable output.
func visiblePorts(u *Universe, a *Automaton) BitSet {
	vis := u.NewSet()
	any := false
	a.Ports.ForEach(func(p PortID) {
		if u.DirOf(p) != DirNone {
			vis.Set(p)
			any = true
		}
	})
	if !any {
		return a.Ports
	}
	return vis
}
