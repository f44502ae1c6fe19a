package ca

// Hide removes the given ports from every transition's synchronization
// set (Reo's hiding operator). Data actions are left in place: a hidden
// port that carries data inside a transition remains as an internal
// binding in the action chain, resolved lazily at fire time (or eliminated
// by Simplify).
//
// Transitions whose synchronization set becomes empty are internal (τ)
// steps. A τ self-loop with no cell effect is dropped: it is unobservable
// and would let the engine spin forever.
func Hide(a *Automaton, hidden BitSet) *Automaton {
	out := &Automaton{
		Name:    a.Name,
		U:       a.U,
		Ports:   a.Ports.Clone(),
		Initial: a.Initial,
		Trans:   make([][]Transition, len(a.Trans)),
	}
	out.Ports.AndNotInto(hidden)
	for s, ts := range a.Trans {
		res := make([]Transition, 0, len(ts))
		for _, t := range ts {
			nt := Transition{
				Target: t.Target,
				Sync:   t.Sync.Clone(),
				Guards: t.Guards,
				Acts:   t.Acts,
			}
			nt.Sync.AndNotInto(hidden)
			if nt.Sync.IsEmpty() && nt.Target == int32(s) && !writesCell(nt.Acts) {
				continue // unobservable self-loop
			}
			res = append(res, nt)
		}
		out.Trans[s] = res
	}
	return out
}

func writesCell(acts []Action) bool {
	for i := range acts {
		if acts[i].Dst.Kind == LocCell {
			return true
		}
	}
	return false
}
