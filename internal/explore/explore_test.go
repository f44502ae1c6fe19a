package explore

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/parser"
	"repro/internal/sema"
)

// TestGeneratorDeterministic: the grammar is a pure function of the
// seed (the repro contract depends on it).
func TestGeneratorDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a := GenerateConn(seed, GenConfig{})
		b := GenerateConn(seed, GenConfig{})
		if a.Source() != b.Source() {
			t.Fatalf("seed %d: two generations differ:\n%s\nvs\n%s", seed, a.Source(), b.Source())
		}
	}
}

// TestGeneratorCompiles: generated connectors survive the real
// pipeline within BuildConn's retry budget, for many seeds.
func TestGeneratorCompiles(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		if _, err := BuildConn(seed, GenConfig{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestScheduleDeterministic: schedules are pure functions of the seed,
// and Rechunk preserves per-port streams.
func TestScheduleDeterministic(t *testing.T) {
	ins := []string{"in[1]", "in[2]"}
	outs := []string{"out[1]"}
	a := GenerateSchedule(7, ins, outs, 24)
	b := GenerateSchedule(7, ins, outs, 24)
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("schedules differ in length: %d vs %d", len(a.Ops), len(b.Ops))
	}
	flat := func(s *Schedule) map[string]string {
		m := map[string][]string{}
		for _, op := range s.Ops {
			if op.Send {
				for _, v := range op.Vals {
					m[op.Port] = append(m[op.Port], "s")
					_ = v
				}
			} else {
				for i := 0; i < op.Cap; i++ {
					m[op.Port] = append(m[op.Port], "r")
				}
			}
		}
		out := map[string]string{}
		for p, vs := range m {
			out[p] = strings.Join(vs, "")
		}
		return out
	}
	re := a.Rechunk(2)
	fa, fr := flat(a), flat(re)
	for p, want := range fa {
		if fr[p] != want {
			t.Fatalf("rechunk changed stream on %s: %q vs %q", p, want, fr[p])
		}
	}
}

// TestEnumerateOrders: a two-port schedule enumerates the binomial
// interleavings (capped), preserving per-port order.
func TestEnumerateOrders(t *testing.T) {
	s := &Schedule{Ops: []Op{
		{Port: "a", Send: true, Vals: []any{1}},
		{Port: "a", Send: true, Vals: []any{2}},
		{Port: "b", Cap: 1},
	}}
	comp := map[string]int{"a": 0, "b": 0}
	orders := EnumerateOrders(s, comp, 16)
	if len(orders) != 3 { // C(3,1) positions for b among a's two tokens
		t.Fatalf("want 3 interleavings, got %d", len(orders))
	}
	seen := map[string]bool{}
	for _, o := range orders {
		var sig []string
		lastA := 0
		for _, op := range o.Ops {
			sig = append(sig, op.Port)
			if op.Port == "a" {
				v := op.Vals[0].(int)
				if v <= lastA {
					t.Fatalf("per-port order violated: %v", o.Ops)
				}
				lastA = v
			}
		}
		seen[strings.Join(sig, ",")] = true
	}
	if len(seen) != 3 {
		t.Fatalf("orders not distinct: %v", seen)
	}

	// Independent components: cross-component interleavings are pruned
	// to the single canonical concatenation.
	comp = map[string]int{"a": 0, "b": 1}
	orders = EnumerateOrders(s, comp, 16)
	if len(orders) != 1 {
		t.Fatalf("independent ports: want 1 canonical order, got %d", len(orders))
	}
}

// TestExploreClean: a short exploration over the full lane matrix finds
// no divergence on a healthy tree.
func TestExploreClean(t *testing.T) {
	if testing.Short() {
		t.Skip("explorer run")
	}
	rep, err := Run(Options{Seed: 1, Rounds: 6, MaxOps: 16, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure != nil {
		t.Fatalf("unexpected divergence:\n%s", FormatFailure(rep.Failure))
	}
	if rep.LaneRuns == 0 {
		t.Fatal("no lane runs executed")
	}
}

// TestTooLargeLaneSkipped: round -6929186186788384893 (round 190 of seed
// 1) generates a connector whose ahead-of-time product exceeds the aot
// lane's 2^14 states. That lane-run counts as skipped; the round's other
// lanes still run and compare, and the exploration goes on.
func TestTooLargeLaneSkipped(t *testing.T) {
	const roundSeed = -6929186186788384893
	if got := RoundSeed(1, 190); got != roundSeed {
		t.Fatalf("RoundSeed(1, 190) = %d, want %d", got, roundSeed)
	}
	rep, err := Run(Options{Seed: roundSeed, Rounds: 1, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure != nil {
		t.Fatalf("unexpected divergence:\n%s", FormatFailure(rep.Failure))
	}
	if rep.Skipped < 1 {
		t.Errorf("Skipped = %d, want the aot lane-run skipped", rep.Skipped)
	}
	if others := (len(allLanes) - 1) * rep.Orders; rep.LaneRuns != others {
		t.Errorf("LaneRuns = %d over %d orders, want %d: every other lane runs", rep.LaneRuns, rep.Orders, others)
	}
}

// TestLaneErrorCarriesRepro: a lane-run error that ends the exploration
// names its round seed and lane and ends with the round's repro line.
func TestLaneErrorCarriesRepro(t *testing.T) {
	opt := Options{Seed: 1, Rounds: 1}.withDefaults()
	_, err := run(opt, []Lane{{Name: "nosuch", Group: "single"}})
	if err == nil {
		t.Fatal("a lane that cannot build ended no exploration")
	}
	msg := err.Error()
	for _, want := range []string{"round seed 1:", "lane nosuch:", `unknown lane "nosuch"`} {
		if !strings.Contains(msg, want) {
			t.Errorf("error lacks %q:\n%s", want, msg)
		}
	}
	lines := strings.Split(msg, "\n")
	if last, want := lines[len(lines)-1], "repro: "+Repro(1, opt, "nosuch"); last != want {
		t.Errorf("last line = %q, want %q", last, want)
	}
}

// TestMutationSelfCheck: with the candidate-ordering off-by-one
// injected into the generated lane's templates, the explorer must find
// a divergence — proof it can see the class of bug it exists for — and
// the shrinker must return a case that still reproduces it.
func TestMutationSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("explorer run")
	}
	opt := Options{Seed: 1, Rounds: 200, MaxOps: 24, Backends: "gen", Mutate: true, Shrink: true, Log: t.Logf}
	rep, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure == nil {
		t.Fatalf("mutation not detected in %d rounds", rep.Rounds)
	}
	f := rep.Failure
	if f.Repro == "" || !strings.Contains(f.Repro, "-selfcheck-mutate") {
		t.Fatalf("repro line missing or unmarked: %q", f.Repro)
	}
	// The shrunk case must still reproduce under the same lane.
	bc, err := CompileConn(f.Conn)
	if err != nil {
		t.Fatalf("shrunk connector no longer compiles: %v", err)
	}
	fail, _, err := runOrder(bc, f.Schedule, []Lane{laneByName(allLanes, "gen")}, f.RoundSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	if fail == nil {
		t.Fatalf("shrunk case does not reproduce:\n%s", FormatFailure(f))
	}
	t.Logf("detected and shrunk to %d prims, %d tokens:\n%s",
		len(f.Conn.Prims), len(f.Schedule.Ops), FormatFailure(f))
}

// TestMutationCleanGreen: the same seed with the mutation off stays
// green (the self-check's control arm).
func TestMutationCleanGreen(t *testing.T) {
	if testing.Short() {
		t.Skip("explorer run")
	}
	rep, err := Run(Options{Seed: 1, Rounds: 6, MaxOps: 24, Backends: "gen", Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure != nil {
		t.Fatalf("clean run diverged:\n%s", FormatFailure(rep.Failure))
	}
}

// TestReplayShrunkRound: the case `reoc explore -seed
// 1540937545221695118` shrank to replays one outcome on the reference
// lane, run after run. It read two, about evenly, while instantiation
// numbered a medium's ports in map order: each run planned different
// regions, with different choice streams.
func TestReplayShrunkRound(t *testing.T) {
	const src = `Xp(in[];out[]) =
    prod (i:1..1) Router(x7;x1,out[2])
    mult Filter.even(x8;x2)
    mult prod (i:1..1) Merger(in[1],x9;out[2])
    mult prod (i:1..1) Fifo1(x2;x3)
    mult prod (i:1..1) Sync(x3;x4)
    mult Router(x10;x5,out[3],x6)
    mult SyncDrain(x11,x12;)
    mult prod (i:1..1) Sync(x13;out[i])
    mult Sync(x1;out[3])
    mult Sync(x14;out[1])
    mult prod (i:1..1) Fifo1(in[1];x7)
    mult prod (i:1..1) Fifo1(in[i];x8)
    mult prod (i:1..1) Fifo1(x2;x9)
    mult prod (i:1..1) Fifo1(x3;x10)
    mult prod (i:1..1) Fifo1(x6;x11)
    mult prod (i:1..1) Fifo1(x4;x12)
    mult prod (i:1..1) Fifo1(x3;x13)
    mult prod (i:1..1) Fifo1(x5;x14)
`
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := compile.Build(info, "Xp", Funcs(), compile.Options{Simplify: true})
	if err != nil {
		t.Fatal(err)
	}
	bc := &BuiltConn{Conn: &Conn{NIn: 1, NOut: 3}, tmpl: tmpl}
	s := &Schedule{Ops: []Op{
		{Port: "out[2]", Cap: 1},
		{Port: "out[1]", Cap: 1},
		{Port: "in[1]", Send: true, Vals: []any{1000, 1001, 1002}},
		{Port: "out[3]", Cap: 3},
	}}
	seed := deriveSeed(1540937545221695118, 7)
	var first *Outcome
	for run := 0; run < 50; run++ {
		out, _, err := runLane(bc, "ref", s, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = out
		} else if d := DiffOutcomes(first, out, "run0", fmt.Sprintf("run%d", run), false, false); d != "" {
			t.Fatalf("replay diverged: %s", d)
		}
	}
}
