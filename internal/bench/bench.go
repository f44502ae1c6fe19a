package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	reo "repro"
	"repro/internal/connlib"
)

// Approach names one compilation/execution approach under comparison.
type Approach struct {
	Name string
	Opts []reo.ConnectOption
}

// Existing is the paper's existing approach: whole-product static
// compilation per N, with label simplification; it fails on connectors
// whose large automaton exceeds the limit.
func Existing(maxStates int) Approach {
	return Approach{
		Name: "existing",
		Opts: []reo.ConnectOption{reo.WithMode(reo.Static), reo.WithMaxStates(maxStates)},
	}
}

// New is the paper's new approach: parametrized compilation with
// just-in-time composition.
func New() Approach {
	return Approach{Name: "new", Opts: []reo.ConnectOption{reo.WithMode(reo.JIT)}}
}

// StepRate measures global execution steps of one benchmark connector
// under the driver for the given budget. Returns the steps and whether
// connect failed (the "existing approach fails" outcome).
func StepRate(d connlib.Def, n int, ap Approach, budget time.Duration) (steps int64, failed bool, err error) {
	inst, cerr := d.Connect(n, ap.Opts...)
	if cerr != nil {
		return 0, true, nil
	}
	wait := connlib.Drive(d, inst, n)
	time.Sleep(budget)
	steps = inst.Steps()
	inst.Close()
	wait()
	return steps, false, nil
}

// Fig12Row is one cell of the Fig. 12 comparison.
type Fig12Row struct {
	Connector string
	N         int
	StepsNew  int64
	StepsOld  int64
	OldFailed bool
}

// Classify buckets a row per the paper's legend.
func (r Fig12Row) Classify() string {
	switch {
	case r.OldFailed:
		return "new-compiles-old-fails"
	case r.StepsNew >= r.StepsOld:
		return "new-wins"
	case r.StepsOld <= 10*r.StepsNew:
		return "old-wins-≤10x"
	default:
		return "old-wins-≤100x"
	}
}

// Fig12Config configures the connector experiment.
type Fig12Config struct {
	Connectors []string // empty = all eighteen
	Ns         []int    // empty = {2,4,8,16,32,64}
	Budget     time.Duration
	// MaxStaticStates is the existing compiler's capacity limit.
	MaxStaticStates int
}

func (c *Fig12Config) defaults() {
	if len(c.Ns) == 0 {
		c.Ns = []int{2, 4, 8, 16, 32, 64}
	}
	if c.Budget <= 0 {
		c.Budget = 200 * time.Millisecond
	}
	if c.MaxStaticStates <= 0 {
		c.MaxStaticStates = 1 << 16
	}
}

// RunFig12 runs the full connector experiment.
func RunFig12(cfg Fig12Config, progress io.Writer) ([]Fig12Row, error) {
	cfg.defaults()
	defs := connlib.All()
	if len(cfg.Connectors) > 0 {
		var sel []connlib.Def
		for _, name := range cfg.Connectors {
			d, err := connlib.ByName(name)
			if err != nil {
				return nil, err
			}
			sel = append(sel, d)
		}
		defs = sel
	}
	var rows []Fig12Row
	for _, d := range defs {
		for _, n := range cfg.Ns {
			if progress != nil {
				fmt.Fprintf(progress, "fig12: %s N=%d\n", d.Name, n)
			}
			newSteps, _, err := StepRate(d, n, New(), cfg.Budget)
			if err != nil {
				return nil, err
			}
			oldSteps, oldFailed, err := StepRate(d, n, Existing(cfg.MaxStaticStates), cfg.Budget)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig12Row{
				Connector: d.Name, N: n,
				StepsNew: newSteps, StepsOld: oldSteps, OldFailed: oldFailed,
			})
		}
	}
	return rows, nil
}

// FormatFig12 renders the detailed table plus the pie/bar summaries of
// Fig. 12.
func FormatFig12(rows []Fig12Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %4s %14s %14s  %s\n", "connector", "N", "steps(new)", "steps(existing)", "outcome")
	for _, r := range rows {
		old := fmt.Sprintf("%d", r.StepsOld)
		if r.OldFailed {
			old = "FAIL"
		}
		fmt.Fprintf(&sb, "%-22s %4d %14d %14s  %s\n", r.Connector, r.N, r.StepsNew, old, r.Classify())
	}

	// Pie chart: overall percentages per class.
	total := len(rows)
	counts := map[string]int{}
	for _, r := range rows {
		counts[r.Classify()]++
	}
	sb.WriteString("\nSummary (pie chart analogue):\n")
	var classes []string
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(&sb, "  %-24s %5.1f%% (%d/%d)\n", c, 100*float64(counts[c])/float64(total), counts[c], total)
	}

	// Bar chart: per-N counts.
	sb.WriteString("\nPer-N (bar chart analogue):\n")
	ns := map[int]map[string]int{}
	var nsList []int
	for _, r := range rows {
		if ns[r.N] == nil {
			ns[r.N] = map[string]int{}
			nsList = append(nsList, r.N)
		}
		ns[r.N][r.Classify()]++
	}
	sort.Ints(nsList)
	fmt.Fprintf(&sb, "  %6s %10s %10s %14s %14s\n", "N", "old-fails", "new-wins", "old-wins≤10x", "old-wins≤100x")
	for _, n := range nsList {
		fmt.Fprintf(&sb, "  %6d %10d %10d %14d %14d\n", n,
			ns[n]["new-compiles-old-fails"], ns[n]["new-wins"],
			ns[n]["old-wins-≤10x"], ns[n]["old-wins-≤100x"])
	}
	return sb.String()
}

// MergeBest folds repeated Fig. 12 sweeps (cmd/fig12 -reps) into
// per-cell best rows: max steps for each approach, "old failed" only if
// it failed every rep. Rows must align (same config per index), which
// RunFig12 guarantees for a fixed config.
func MergeBest(runs [][]Fig12Row) []Fig12Row {
	if len(runs) == 0 {
		return nil
	}
	out := append([]Fig12Row(nil), runs[0]...)
	for _, run := range runs[1:] {
		for i := range out {
			if i >= len(run) {
				break
			}
			r := run[i]
			if r.StepsNew > out[i].StepsNew {
				out[i].StepsNew = r.StepsNew
			}
			if !r.OldFailed {
				out[i].OldFailed = false
				if r.StepsOld > out[i].StepsOld {
					out[i].StepsOld = r.StepsOld
				}
			}
		}
	}
	return out
}
