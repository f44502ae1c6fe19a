package main

import (
	"fmt"
	"os"
	"time"
)

// verdict is how one (workload, end-to-end metric) pair of two result
// files compares.
type verdict string

const (
	same       verdict = "same"
	worse      verdict = "worse"
	better     verdict = "better"
	unresolved verdict = "unresolved" // either side's median is itself less certain than the bound
)

// judge compares b against the baseline a under the metric's bound.
// worseBy is the share of a's median by which b is worse (negative when
// it is better).
func judge(d metricDef, a, b summary) (v verdict, worseBy float64) {
	diff := b.Value - a.Value
	if d.Better == "higher" {
		diff = -diff
	}
	if d.Bound == 0 { // must repeat exactly
		switch {
		case diff > 0:
			return worse, diff
		case diff < 0:
			return better, diff
		}
		return same, 0
	}
	if a.Value != 0 {
		worseBy = diff / a.Value
	}
	switch {
	case a.medianSpread() > d.Bound || b.medianSpread() > d.Bound:
		return unresolved, worseBy
	case worseBy > d.Bound:
		return worse, worseBy
	case worseBy < -d.Bound:
		return better, worseBy
	}
	return same, worseBy
}

// compareResults prints one row per (workload, end-to-end metric) and
// returns how many pairs got each verdict.
func compareResults(a, b resultFile) map[verdict]int {
	if a.Host != b.Host {
		fmt.Printf("note: hosts differ (%+v vs %+v): numbers from different core counts are not comparable\n", a.Host, b.Host)
	}
	tally := make(map[verdict]int)
	fmt.Printf("%-18s %-17s %13s %-25s %13s %-25s %8s %6s  %s\n",
		"workload", "metric", "a", "a q1..q3", "b", "b q1..q3", "delta", "bound", "verdict")
	for _, w := range workloads {
		wa, okA := a.Workloads[w.Name]
		wb, okB := b.Workloads[w.Name]
		if !okA || !okB {
			continue
		}
		for _, d := range endToEnd {
			ma, okA := wa.Metrics[d.Name]
			mb, okB := wb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			v, worseBy := judge(d, ma, mb)
			tally[v]++
			bound := "exact"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", d.Bound*100)
			}
			fmt.Printf("%-18s %-17s %13.6g %-25s %13.6g %-25s %+7.1f%% %6s  %s\n",
				w.Name, d.Name, ma.Value, fmt.Sprintf("%.5g..%.5g", ma.Q1, ma.Q3),
				mb.Value, fmt.Sprintf("%.5g..%.5g", mb.Q1, mb.Q3), 0-worseBy*100, bound, v)
		}
	}
	fmt.Printf("%d same, %d better, %d worse, %d unresolved (delta: positive is better)\n",
		tally[same], tally[better], tally[worse], tally[unresolved])
	return tally
}

// compareFiles is -compare a.json b.json; it fails when b is worse on any
// pair.
func compareFiles(pathA, pathB string) int {
	a, err := readResult(pathA)
	if err == nil {
		var b resultFile
		if b, err = readResult(pathB); err == nil {
			if compareResults(a, b)[worse] > 0 {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// selfCheck runs the untraced set twice on the same commit and seed and
// fails unless every pair is "same": the benchmark agrees with itself
// within its own bounds, and no spread is wider than its bound.
func selfCheck(h host, root string, seed int64, budget time.Duration) int {
	var sets [2]resultFile
	for i := range sets {
		ws, err := runSet(root, seed, budget.Seconds(), false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		for name, wr := range ws {
			if wr.Failed > 0 {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %d checked operations failed\n", name, wr.Failed)
				return 1
			}
		}
		sets[i] = resultFile{Host: h, Seed: seed, Seconds: budget.Seconds(), Workloads: ws}
	}
	tally := compareResults(sets[0], sets[1])
	if n := tally[worse] + tally[better] + tally[unresolved]; n > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: selfcheck: %d pairs disagree between two runs of the same commit\n", n)
		return 1
	}
	return 0
}
