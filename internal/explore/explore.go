package explore

import (
	"fmt"
	"runtime"
	"strings"
)

// Options configures one explorer run (the `reoc explore` flag surface).
type Options struct {
	Seed     int64
	Rounds   int
	MaxOps   int    // schedule token budget per round
	MaxPrims int    // connector size budget
	Backends string // "all" or comma-separated lane names
	Shrink   bool   // minimize the failing case before reporting
	// Mutate injects the candidate-ordering off-by-one into the
	// generated lane (mutation self-check: the run is EXPECTED to fail).
	Mutate bool
	// ExhaustiveTokens: schedules at or below this many tokens get
	// DPOR-style order enumeration on top of the sampled order (0
	// disables enumeration).
	ExhaustiveTokens int
	// MaxOrders caps enumerated orders per round.
	MaxOrders int
	// Log, when set, receives per-round progress lines.
	Log func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Rounds <= 0 {
		o.Rounds = 50
	}
	if o.MaxOps <= 0 {
		o.MaxOps = 24
	}
	if o.MaxPrims <= 0 {
		o.MaxPrims = 8
	}
	if o.Backends == "" {
		o.Backends = "all"
	}
	if o.ExhaustiveTokens == 0 {
		o.ExhaustiveTokens = 6
	}
	if o.MaxOrders <= 0 {
		o.MaxOrders = 8
	}
	return o
}

// Failure describes one confirmed divergence.
type Failure struct {
	RoundSeed int64
	Lane      string
	Conn      *Conn
	Schedule  *Schedule
	Diff      string
	// Repro is a one-line command reproducing the failing round.
	Repro string

	connBC *BuiltConn // compiled form, kept for the shrinker
}

// Report summarizes a run.
type Report struct {
	Rounds   int // rounds completed (including the failing one)
	Orders   int // schedule orders executed
	LaneRuns int // lane executions (compared, self-checked, or smoked)
	Skipped  int // cross-structure comparisons skipped on lazy connector errors
	// GenRegions sums, over gen-lane runs, how many regions ran on a
	// bound template (engine.BindGen) — the lane's real coverage.
	GenRegions int
	Failure    *Failure
}

// RoundSeed returns the seed of round i under base seed: round 0 runs
// the base seed itself, so `-seed <roundSeed> -rounds 1` replays any
// failing round exactly.
func RoundSeed(base int64, i int) int64 {
	if i == 0 {
		return base
	}
	return deriveSeed(base, uint64(i))
}

// SelectLanes resolves a backends selector against the lane matrix.
func SelectLanes(sel string) ([]Lane, error) {
	if sel == "" || sel == "all" {
		return allLanes, nil
	}
	byName := map[string]Lane{}
	for _, l := range allLanes {
		byName[l.Name] = l
	}
	var out []Lane
	for _, name := range strings.Split(sel, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		l, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("explore: unknown backend %q (have gen, runtime, batch2, off, aot)", name)
		}
		out = append(out, l)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("explore: empty backend selection %q", sel)
	}
	return out, nil
}

// Run executes the explorer: per round it generates a connector and a
// schedule from the round seed, runs the reference lane, then every
// selected lane under the comparison policy, stopping at the first
// confirmed divergence. The returned error is only for harness
// breakage (a found divergence is reported via Report.Failure).
func Run(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	lanes, err := SelectLanes(opt.Backends)
	if err != nil {
		return nil, err
	}
	logf := opt.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &Report{}

	for i := 0; i < opt.Rounds; i++ {
		roundSeed := RoundSeed(opt.Seed, i)
		rep.Rounds++
		bc, err := BuildConn(roundSeed, GenConfig{MaxPrims: opt.MaxPrims})
		if err != nil {
			return nil, err
		}
		sampled := GenerateSchedule(deriveSeed(roundSeed, 1001), bc.Ins(), bc.Outs(), opt.MaxOps)

		orders := []*Schedule{sampled}
		if opt.ExhaustiveTokens > 0 && sampled.TokenCount() <= opt.ExhaustiveTokens {
			asm, err := bc.instantiate()
			if err != nil {
				return nil, err
			}
			orders = append(orders, EnumerateOrders(sampled, PortComponents(asm), opt.MaxOrders)...)
		}
		logf("round %d: seed=%d prims=%d in=%d out=%d tokens=%d orders=%d",
			i, roundSeed, len(bc.Conn.Prims), bc.Conn.NIn, bc.Conn.NOut, sampled.TokenCount(), len(orders))

		for _, order := range orders {
			rep.Orders++
			fail, st, err := runOrder(bc, order, lanes, roundSeed, opt.Mutate)
			rep.Skipped += st.skipped
			rep.LaneRuns += st.laneRuns
			rep.GenRegions += st.genRegions
			if err != nil {
				return nil, err
			}
			if fail == nil {
				continue
			}
			fail.RoundSeed = roundSeed
			fail.Repro = Repro(roundSeed, opt, fail.Lane)
			if opt.Shrink {
				logf("round %d: lane %s diverged, shrinking", i, fail.Lane)
				lane := laneByName(lanes, fail.Lane)
				sb, ss := Shrink(fail.connBC, fail.Schedule, func(b *BuiltConn, s *Schedule) bool {
					f, _, err := runOrder(b, s, []Lane{lane}, roundSeed, opt.Mutate)
					return err == nil && f != nil
				})
				fail.Conn, fail.Schedule = sb.Conn, ss
				if f2, _, err := runOrder(sb, ss, []Lane{lane}, roundSeed, opt.Mutate); err == nil && f2 != nil {
					fail.Diff = f2.Diff
				}
			}
			rep.Failure = fail
			return rep, nil
		}
	}
	return rep, nil
}

// Repro renders the one-line command replaying a failing round, on the
// processor count it was found at.
func Repro(roundSeed int64, opt Options, lane string) string {
	cmd := fmt.Sprintf("GOMAXPROCS=%d go run ./cmd/reoc explore -seed %d -rounds 1 -max-ops %d -max-prims %d -backends %s",
		runtime.GOMAXPROCS(0), roundSeed, opt.MaxOps, opt.MaxPrims, lane)
	if opt.Mutate {
		cmd += " -selfcheck-mutate"
	}
	return cmd
}

// lazyConnError recognizes the interpreter's lazy connector-level data
// errors (ca.Automaton's undefined-read and causal-cycle messages):
// they surface only when the failing value is actually read, which
// depends on which transition the lane's choice stream picks.
func lazyConnError(s string) bool {
	return strings.Contains(s, "no value defined for port") ||
		strings.Contains(s, "causal cycle through port")
}

func laneByName(lanes []Lane, name string) Lane {
	for _, l := range lanes {
		if l.Name == name {
			return l
		}
	}
	return Lane{Name: name}
}

type orderStats struct {
	skipped    int
	laneRuns   int
	genRegions int
}

// runOrder runs one schedule order across the lane matrix against a
// fresh reference, returning the first confirmed divergence (nil if the
// order agrees everywhere).
//
// Comparison policy, keyed off Conn.Deterministic():
//
//   - The gen lane shares the reference's region plan, choice streams,
//     and cooperative scheduling, so it compares strictly (sequences,
//     Steps, GuardEvals) on every connector.
//   - On deterministic connectors every lane must reproduce the
//     reference's sequences: choice primitives are absent and every
//     vertex has one writer, so observable behavior is a function of the
//     schedule alone, whatever the engine's structure.
//   - On choice-bearing connectors, cross-structure lanes resolve merges
//     at legitimately different decision points — even a lane that is
//     choice-invariant under the reference's lazy propagation need not
//     be under a monolithic composition. Those lanes instead get a
//     replay-determinism check: the same lane, seed, and schedule run
//     twice must agree exactly (async lanes run as crash/hang smoke
//     only: their workers resolve choices as passes happen to overlap).
func runOrder(bc *BuiltConn, order *Schedule, lanes []Lane, roundSeed int64, mutate bool) (*Failure, orderStats, error) {
	var st orderStats
	engSeed := deriveSeed(roundSeed, 7)
	deterministic := bc.Conn.Deterministic()
	ref, _, err := runLane(bc, "ref", order, engSeed, false)
	if err != nil {
		return nil, st, err
	}

	var offOutcome *Outcome
	for _, lane := range lanes {
		sched := order
		if lane.Batch > 0 {
			sched = order.Rechunk(lane.Batch)
		}
		cross := lane.Group != "regions"
		mut := mutate && lane.Name == "gen"

		if cross && !deterministic {
			if lane.Async {
				// Timing-dependent scheduling on a choice-bearing connector:
				// no sound comparison target, but the run still smokes out
				// panics and hangs.
				if _, _, err := runLane(bc, lane.Name, sched, engSeed, mut); err != nil {
					return nil, st, err
				}
				st.laneRuns++
				continue
			}
			out1, _, err := runLane(bc, lane.Name, sched, engSeed, mut)
			if err != nil {
				return nil, st, err
			}
			out2, _, err := runLane(bc, lane.Name, sched, engSeed, mut)
			if err != nil {
				return nil, st, err
			}
			st.laneRuns++
			if d := DiffOutcomes(out1, out2, lane.Name+"/run1", lane.Name+"/run2", false, false); d != "" {
				return &Failure{
					Lane:     lane.Name,
					Conn:     bc.Conn,
					connBC:   bc,
					Schedule: sched,
					Diff:     "replay nondeterminism: " + d,
				}, st, nil
			}
			continue
		}

		if cross && lazyConnError(ref.Broken) {
			// A lazily-erroring transition (undefined hidden-port read) is
			// reached or not depending on transition order, which even a
			// deterministic connector leaves unspecified across engine
			// structures once a run aborts mid-way.
			st.skipped++
			continue
		}
		out, genBound, err := runLane(bc, lane.Name, sched, engSeed, mut)
		if err != nil {
			return nil, st, err
		}
		if cross && lazyConnError(out.Broken) {
			st.skipped++
			continue
		}
		st.laneRuns++
		if lane.Name == "gen" {
			st.genRegions += genBound
		}
		diff := DiffOutcomes(ref, out, "ref", lane.Name, cross, false)
		if diff != "" {
			return &Failure{
				Lane:     lane.Name,
				Conn:     bc.Conn,
				connBC:   bc,
				Schedule: sched,
				Diff:     diff,
			}, st, nil
		}
		// The AOT lane additionally checks strict Steps parity against
		// the plain single engine (same composition, different strategy).
		if lane.Name == "off" {
			offOutcome = out
		}
		if lane.Name == "aot" && offOutcome != nil {
			if d := DiffOutcomes(offOutcome, out, "off", "aot", false, true); d != "" {
				return &Failure{
					Lane:     "aot",
					Conn:     bc.Conn,
					connBC:   bc,
					Schedule: sched,
					Diff:     d,
				}, st, nil
			}
		}
	}
	return nil, st, nil
}

func runLane(bc *BuiltConn, lane string, s *Schedule, seed int64, mutate bool) (*Outcome, int, error) {
	b, closeFn, genBound, err := bc.NewBackend(lane, seed, mutate)
	if err != nil {
		return nil, 0, err
	}
	out, err := RunSchedule(b, s, closeFn)
	if err != nil {
		return nil, genBound, fmt.Errorf("explore: lane %s: %w", lane, err)
	}
	return out, genBound, nil
}

// FormatFailure renders a failure report, ending with the repro line.
func FormatFailure(f *Failure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "explore: divergence on lane %s (round seed %d)\n", f.Lane, f.RoundSeed)
	fmt.Fprintf(&b, "  %s\n", f.Diff)
	fmt.Fprintf(&b, "connector:\n%s", indent(f.Conn.Source(), "  "))
	fmt.Fprintf(&b, "schedule (%d tokens):\n", len(f.Schedule.Ops))
	for _, op := range f.Schedule.Ops {
		if op.Send {
			fmt.Fprintf(&b, "  send %-8s %v\n", op.Port, op.Vals)
		} else {
			fmt.Fprintf(&b, "  recv %-8s cap=%d\n", op.Port, op.Cap)
		}
	}
	fmt.Fprintf(&b, "repro: %s\n", f.Repro)
	return b.String()
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
