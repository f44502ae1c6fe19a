package ca

// Builder constructs automata imperatively. It is used by the primitive
// library and by tests.
type Builder struct {
	a *Automaton
}

// NewBuilder starts an automaton with the given number of control states.
func NewBuilder(u *Universe, name string, numStates int, initial int32) *Builder {
	a := &Automaton{
		Name:    name,
		U:       u,
		Ports:   u.NewSet(),
		Initial: initial,
		Trans:   make([][]Transition, numStates),
	}
	return &Builder{a: a}
}

// TransitionBuilder accumulates one transition.
type TransitionBuilder struct {
	b    *Builder
	from int32
	t    Transition
}

// T starts a transition from state `from` to state `to`.
func (b *Builder) T(from, to int32) *TransitionBuilder {
	return &TransitionBuilder{
		b:    b,
		from: from,
		t:    Transition{Target: to, Sync: b.a.U.NewSet()},
	}
}

// Sync adds ports to the transition's synchronization set.
func (tb *TransitionBuilder) Sync(ports ...PortID) *TransitionBuilder {
	for _, p := range ports {
		tb.t.Sync.Set(p)
		tb.b.a.Ports.Set(p)
	}
	return tb
}

// Move adds a data action dst := src.
func (tb *TransitionBuilder) Move(dst, src Loc) *TransitionBuilder {
	tb.t.Acts = append(tb.t.Acts, Action{Dst: dst, Src: src})
	return tb
}

// MoveXN adds a data action dst := xform(src) where xform came from a
// named registration; the name travels on the action so the static code
// generator can reference the function from generated source.
func (tb *TransitionBuilder) MoveXN(dst, src Loc, name string, xform func(any) any) *TransitionBuilder {
	tb.t.Acts = append(tb.t.Acts, Action{Dst: dst, Src: src, Xform: xform, XformNames: []string{name}})
	return tb
}

// Guard adds a data constraint on the value at `in`.
func (tb *TransitionBuilder) Guard(name string, in Loc, pred func(any) bool) *TransitionBuilder {
	tb.t.Guards = append(tb.t.Guards, Guard{In: in, Pred: pred, Name: name})
	return tb
}

// Done appends the transition to the automaton.
func (tb *TransitionBuilder) Done() *Builder {
	a := tb.b.a
	a.Trans[tb.from] = append(a.Trans[tb.from], tb.t)
	return tb.b
}

// Build finalizes and returns the automaton.
func (b *Builder) Build() *Automaton { return b.a }
