package explore

// Shrinker: greedy minimization of a failing (connector, schedule)
// pair. Each reduction candidate is re-validated through the real
// compile pipeline (CompileConn) and must still reproduce the failure
// (the caller's predicate) to be accepted. Because Conn keeps the
// connector's structure — not just its text — reductions stay
// well-typed by construction or are rejected by the pipeline, never
// silently degenerate.

// FailsFn reports whether a (connector, schedule) pair still exhibits
// the failure being minimized. On the timing-dependent lanes one run can
// fail for a reason other than the one being minimized, so Shrink keeps
// a reduction only when it fails shrinkRuns times in a row.
type FailsFn func(*BuiltConn, *Schedule) bool

// ShrinkBudget bounds how many FailsFn runs one Shrink call may spend
// (each run drives the lane matrix, so this is the expensive knob).
const ShrinkBudget = 160

// shrinkRuns is how many consecutive failing runs accept a reduction.
const shrinkRuns = 3

// Shrink minimizes a failing pair: it repeatedly tries dropping
// primitives, stripping structural decorations (prod wraps, if wraps),
// dropping schedule tokens, and trimming token payloads/capacities,
// keeping any reduction that still compiles and still fails. The
// returned pair is 1-minimal with respect to these operations or the
// budget ran out.
func Shrink(bc *BuiltConn, s *Schedule, fails FailsFn) (*BuiltConn, *Schedule) {
	budget := ShrinkBudget
	try := func(c *Conn, cand *Schedule) (*BuiltConn, bool) {
		nb := bc
		if c != nil {
			var err error
			if nb, err = CompileConn(c); err != nil {
				return nil, false
			}
		}
		for k := 0; k < shrinkRuns; k++ {
			if budget <= 0 {
				return nil, false
			}
			budget--
			if !fails(nb, cand) {
				return nil, false
			}
		}
		return nb, true
	}

	for budget > 0 {
		reduced := false

		// Drop whole primitives (largest structural cuts first).
		for i := 0; i < len(bc.Conn.Prims) && budget > 0; i++ {
			c := bc.Conn.clone()
			c.Prims = append(c.Prims[:i:i], c.Prims[i+1:]...)
			if nb, ok := try(c, s); ok {
				bc, reduced = nb, true
				i--
			}
		}
		// Strip decorations.
		if bc.Conn.WrapIf != 0 && budget > 0 {
			c := bc.Conn.clone()
			c.WrapIf = 0
			if nb, ok := try(c, s); ok {
				bc, reduced = nb, true
			}
		}
		for i := 0; i < len(bc.Conn.Prims) && budget > 0; i++ {
			if !bc.Conn.Prims[i].Prod {
				continue
			}
			c := bc.Conn.clone()
			c.Prims[i].Prod = false
			if nb, ok := try(c, s); ok {
				bc, reduced = nb, true
			}
		}

		// Drop schedule tokens.
		for i := 0; i < len(s.Ops) && budget > 0; i++ {
			cand := &Schedule{Ops: append(s.Ops[:i:i], s.Ops[i+1:]...)}
			if _, ok := try(nil, cand); ok {
				s, reduced = cand, true
				i--
			}
		}
		// Trim token payloads and capacities.
		for i := 0; i < len(s.Ops) && budget > 0; i++ {
			op := s.Ops[i]
			switch {
			case op.Send && len(op.Vals) > 1:
				cand := s.withOp(i, Op{Port: op.Port, Send: true, Vals: op.Vals[:len(op.Vals)-1]})
				if _, ok := try(nil, cand); ok {
					s, reduced = cand, true
					i--
				}
			case !op.Send && op.Cap > 1:
				cand := s.withOp(i, Op{Port: op.Port, Cap: op.Cap / 2})
				if _, ok := try(nil, cand); ok {
					s, reduced = cand, true
					i--
				}
			}
		}

		if !reduced {
			break
		}
	}
	return bc, s
}

func (s *Schedule) withOp(i int, op Op) *Schedule {
	ops := append([]Op(nil), s.Ops...)
	ops[i] = op
	return &Schedule{Ops: ops}
}

// clone deep-copies the connector structure.
func (c *Conn) clone() *Conn {
	n := *c
	n.Prims = make([]Prim, len(c.Prims))
	for i, p := range c.Prims {
		n.Prims[i] = Prim{
			Kind:  p.Kind,
			Attr:  p.Attr,
			Tails: append([]int(nil), p.Tails...),
			Heads: append([]int(nil), p.Heads...),
			Prod:  p.Prod,
		}
	}
	return &n
}
