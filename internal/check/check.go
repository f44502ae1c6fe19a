package check

import (
	"fmt"

	"repro/internal/ca"
)

// Result holds the analysis outcome.
type Result struct {
	// States is the number of reachable composite states.
	States int
	// Transitions is the number of explored global steps.
	Transitions int
	// Deadlocks lists reachable states with no outgoing step, rendered
	// as constituent-state tuples.
	Deadlocks []string
	// DeadPorts lists boundary ports that occur in no reachable step.
	DeadPorts []string
	// LocalStateCoverage[i] is the fraction of constituent i's control
	// states that are reachable in some composite state.
	LocalStateCoverage []float64
}

// DeadlockFree reports whether no deadlock state was found.
func (r *Result) DeadlockFree() bool { return len(r.Deadlocks) == 0 }

// AllPortsLive reports whether every boundary port can fire.
func (r *Result) AllPortsLive() bool { return len(r.DeadPorts) == 0 }

// Limits bounds the exploration.
type Limits struct {
	MaxStates int // 0 = 1<<20
}

// Analyze explores the reachable composite space of the constituents.
func Analyze(u *ca.Universe, auts []*ca.Automaton, lim Limits) (*Result, error) {
	if len(auts) == 0 {
		return nil, fmt.Errorf("check: no constituents")
	}
	maxStates := lim.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	k := len(auts)
	keyOf := func(s []int32) string {
		b := make([]byte, 4*k)
		for i, v := range s {
			b[4*i] = byte(v)
			b[4*i+1] = byte(v >> 8)
			b[4*i+2] = byte(v >> 16)
			b[4*i+3] = byte(v >> 24)
		}
		return string(b)
	}

	init := make([]int32, k)
	for i, a := range auts {
		init[i] = a.Initial
	}
	seen := map[string]bool{keyOf(init): true}
	queue := [][]int32{init}

	firedPorts := u.NewSet()
	localSeen := make([]map[int32]bool, k)
	for i := range localSeen {
		localSeen[i] = map[int32]bool{auts[i].Initial: true}
	}

	res := &Result{}
	x := ca.NewExpander(auts, ca.ExpandConnected)
	var steps []*ca.Cluster
	tgt := make([]int32, k)
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		res.States++
		steps = x.Expand(st, steps[:0])
		if len(steps) == 0 {
			res.Deadlocks = append(res.Deadlocks, fmt.Sprintf("%v", st))
			continue
		}
		res.Transitions += len(steps)
		for _, c := range steps {
			firedPorts.OrInto(c.Sync)
			copy(tgt, st)
			c.Apply(tgt)
			key := keyOf(tgt)
			if !seen[key] {
				seen[key] = true
				if len(seen) > maxStates {
					return nil, fmt.Errorf("check: %w", ca.ErrTooLarge)
				}
				queue = append(queue, append([]int32(nil), tgt...))
				for i, s := range tgt {
					localSeen[i][s] = true
				}
			}
		}
	}

	for p := 0; p < u.NumPorts(); p++ {
		pid := ca.PortID(p)
		if u.DirOf(pid) == ca.DirNone {
			continue
		}
		if !firedPorts.Has(pid) {
			res.DeadPorts = append(res.DeadPorts, u.Name(pid))
		}
	}
	for i, a := range auts {
		res.LocalStateCoverage = append(res.LocalStateCoverage,
			float64(len(localSeen[i]))/float64(max(1, a.NumStates())))
	}
	return res, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
