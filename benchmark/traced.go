package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// probes collects the per-layer samples of a traced run. Every probe wraps
// its calls into a layer's exported functions in spans of the shared
// tracer and takes counters at the same boundaries; nothing inside the
// program under test is instrumented.
type probes struct {
	*run
	samples map[string][]float64
}

// add appends samples to a per-layer metric; the name must be registered.
func (p *probes) add(name string, v ...float64) {
	if _, ok := layerByName(name); !ok {
		panic("benchmark: per-layer metric " + name + " is not in the registry")
	}
	p.samples[name] = append(p.samples[name], v...)
}

// timedSpan runs f inside a span of tr and returns how long it took.
func timedSpan(tr *tracer, parent int, name, cell string, f func()) time.Duration {
	id := tr.begin(parent, name, cell)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	tr.end(id)
	return d
}

func (p *probes) timed(parent int, name, cell string, f func()) time.Duration {
	return timedSpan(p.tr, parent, name, cell, f)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// shareGroups maps span names of the workloads onto the share.<group>
// metrics.
var shareGroups = map[string]string{
	"reo.Compile":   "compile",
	"reo.Connect":   "connect",
	"reo.Send":      "port_ops",
	"reo.Recv":      "port_ops",
	"reo.stream":    "port_ops",
	"reo.Close":     "close",
	"connlib.Drive": "drive",
	"npb.Run":       "npb",
	"serve.create":  "http",
	"serve.send":    "http",
	"serve.recv":    "http",
	"serve.delete":  "http",
	"oracle.check":  "oracle",
}

// workloadShares attributes the traced workloads' wall time to span
// groups: self time of each group's spans over the summed root spans.
// Everything not in a named group — set-up, cell bookkeeping, sleeping in a
// free-running window's sampling loop — is the harness's own.
func workloadShares(t *tracer) map[string]float64 {
	self := t.selfTimes()
	var total int64
	by := make(map[string]int64)
	for _, sp := range t.spans {
		if sp.End < sp.Start {
			continue
		}
		if sp.Parent < 0 {
			total += sp.End - sp.Start
		}
		g, ok := shareGroups[sp.Name]
		if !ok {
			g = "harness"
		}
		by[g] += self[sp.ID] * max(sp.Weight, 1)
	}
	out := make(map[string]float64)
	for _, g := range shareLayers {
		if total > 0 {
			out[g] = float64(by[g]) / float64(total)
		}
	}
	return out
}

// runTraced is the traced run: the layer probes, then the named workloads
// at a quarter of their budget with spans on. It returns every per-layer
// metric of the registry and the correctness tally of everything it ran.
func runTraced(names []string, seed int64, budget time.Duration, f *fault, root string, h host, quick bool) (map[string]summary, int64, int64, error) {
	var attempted, failed int64
	p := &probes{
		run:     newRun("probes", seed, budget, newTracer(), f, root),
		samples: make(map[string][]float64),
	}
	p.quick = quick
	for _, probe := range []func() error{
		p.frontEnd, p.dispatch, p.sweep, p.expansion, p.links, p.pool,
		p.wire, p.tcp, p.gen, p.npb, p.serve,
	} {
		if err := probe(); err != nil {
			return nil, 0, 0, err
		}
	}
	attempted, failed = p.attempted, p.failed
	for _, n := range p.notes {
		fmt.Println("  !", n)
	}

	// The workloads themselves, traced, on a tracer of their own so that
	// share.* describes them and not the probes.
	wt := newTracer()
	for _, name := range names {
		w, _ := workloadByName(name)
		r := newRun(name, seed, budget/4, wt, f, root)
		r.quick = quick
		if err := w.run(r); err != nil {
			return nil, 0, 0, err
		}
		attempted += r.attempted
		failed += r.failed
		for _, n := range r.notes {
			fmt.Println("  !", n)
		}
	}
	for g, s := range workloadShares(wt) {
		p.add("share."+g, s)
	}
	if bad := wt.nestingViolations() + p.tr.nestingViolations(); bad > 0 {
		return nil, 0, 0, fmt.Errorf("trace: %d spans are shorter than their children's self times", bad)
	}
	p.add("trace.spans", float64(len(wt.spans)+len(p.tr.spans)))
	p.add("harness.failed_ops_share", float64(failed)/float64(max(attempted, 1)))
	p.add("harness.gomaxprocs", float64(h.GOMAXPROCS))
	p.add("harness.cores", float64(h.Cores))

	out := filepath.Join(root, "benchmark", "out")
	label := "all"
	if len(names) == 1 {
		label = names[0]
	}
	if _, err := wt.write(out, label, seed); err != nil {
		return nil, 0, 0, err
	}
	if _, err := p.tr.write(out, "probes", seed); err != nil {
		return nil, 0, 0, err
	}

	layers := make(map[string]summary, len(perLayer))
	for _, d := range perLayer {
		s, ok := p.samples[d.Name]
		if !ok {
			return nil, 0, 0, fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
		layers[d.Name] = summarize(s, d.Unit)
	}
	return layers, attempted, failed, nil
}
