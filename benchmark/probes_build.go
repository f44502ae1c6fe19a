package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ca"
	"repro/internal/compile"
	"repro/internal/connlib"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/sema"
)

// staticLimit is the state bound of the "existing approach" probes: large
// enough that every connector compiles at N = 8, small enough that the
// ones that blow up at N = 32 fail within milliseconds.
const staticLimit = 1 << 14

// staticProduct is Fig. 12's existing approach, called layer by layer: the
// whole product for one N, internal ports hidden, labels simplified.
func staticProduct(asm *compile.Assembly) error {
	large, err := ca.ProductAll(asm.Auts, ca.ExpandConnected, ca.ProductLimits{MaxStates: staticLimit})
	if err != nil {
		return err
	}
	hidden := asm.U.NewSet()
	large.Ports.ForEach(func(p ca.PortID) {
		if asm.U.DirOf(p) == ca.DirNone {
			hidden.Set(p)
		}
	})
	_, err = ca.Simplify(ca.Hide(large, hidden), func(p ca.PortID) bool { return asm.U.DirOf(p) != ca.DirNone })
	return err
}

// frontEnd times the compile pipeline pass by pass over the eighteen
// connlib programs, then Instantiate, the region plan and engine
// construction at fixed N.
func (p *probes) frontEnd() error {
	defs := connlib.All()
	for rep := 0; rep < p.reps(); rep++ {
		root := p.tr.begin(-1, "harness.frontend", "")
		var parse, check, build time.Duration
		var bytes int
		tmpls := make([]*compile.Template, len(defs))
		for i, d := range defs {
			bytes += len(d.Src)
			id, t0 := p.tr.begin(root, "parser.Parse", d.Name), time.Now()
			f, err := parser.Parse(d.Src)
			parse += time.Since(t0)
			p.tr.end(id)
			if err != nil {
				return fmt.Errorf("front end: %s: %w", d.Name, err)
			}
			var info *sema.Info
			check += p.timed(root, "sema.Check", d.Name, func() { info, err = sema.Check(f) })
			if err != nil {
				return fmt.Errorf("front end: %s: %w", d.Name, err)
			}
			build += p.timed(root, "compile.Build", d.Name, func() {
				tmpls[i], err = compile.Build(info, d.DefName(), compile.Funcs{}, compile.Options{Simplify: true})
			})
			if err != nil {
				return fmt.Errorf("front end: %s: %w", d.Name, err)
			}
		}
		p.add("parser.parse_us", us(parse))
		p.add("parser.bytes_per_s", float64(bytes)/parse.Seconds())
		p.add("sema.check_us", us(check))
		p.add("compile.build_us", us(build))

		for _, n := range []int{2, 8, 32, 64} {
			var inst []float64
			asms := make([]*compile.Assembly, len(defs))
			for i, d := range defs {
				var err error
				inst = append(inst, us(p.timed(root, "compile.Instantiate", fmt.Sprintf("%s/n%d", d.Name, n), func() {
					asms[i], err = tmpls[i].Instantiate(d.Lengths(n))
				})))
				if err != nil {
					return fmt.Errorf("front end: Instantiate %s at %d: %w", d.Name, n, err)
				}
			}
			p.add(fmt.Sprintf("instantiate.us.n%d", n), geomean(inst))
			switch n {
			case 8:
				var prod []float64
				for i, d := range defs {
					var err error
					t := p.timed(root, "ca.ProductAll", d.Name+"/n8", func() { err = staticProduct(asms[i]) })
					if err != nil {
						return fmt.Errorf("front end: static product of %s at 8: %w", d.Name, err)
					}
					prod = append(prod, us(t))
				}
				p.add("ca.static_product_us.n8", geomean(prod))
			case 64:
				if err := p.buildAt64(root, defs, asms); err != nil {
					return err
				}
			}
		}
		p.tr.end(root)
	}

	// Fig. 12's "new compiles, existing fails": cells of the sweep whose
	// static product exceeds the bound.
	failedCells := 0
	for _, d := range defs {
		tmpl, err := d.Compile()
		if err != nil {
			return err
		}
		for _, n := range fig12Ns {
			asm, err := tmpl.Template().Instantiate(d.Lengths(n))
			if err != nil {
				return err
			}
			if err := staticProduct(asm); errors.Is(err, ca.ErrTooLarge) {
				failedCells++
			} else if err != nil {
				return fmt.Errorf("front end: static product of %s at %d: %w", d.Name, n, err)
			}
		}
	}
	p.add("ca.static_failed_cells", float64(failedCells))
	return nil
}

// buildAt64 times the region plan and both engine constructors on the
// N = 64 assemblies, and takes the exact counts that go with them.
func (p *probes) buildAt64(root int, defs []connlib.Def, asms []*compile.Assembly) error {
	var plan, single, regions []float64
	auts, nRegions, nLinks := 0, 0, 0
	for i, d := range defs {
		asm, cellName := asms[i], d.Name+"/n64"
		auts += len(asm.Auts)
		var rp *ca.RegionPlan
		plan = append(plan, us(p.timed(root, "ca.PlanRegions", cellName, func() { rp = ca.PlanRegions(asm.U, asm.Auts) })))
		nRegions += len(rp.Regions)
		nLinks += len(rp.Links)

		var e *engine.Engine
		var m *engine.Multi
		var err error
		opts := engine.Options{Composition: engine.JIT, Seed: p.seed}
		single = append(single, us(p.timed(root, "engine.New", cellName, func() { e, err = engine.New(asm.U, asm.Auts, opts) })))
		if err != nil {
			return fmt.Errorf("engine.New %s: %w", cellName, err)
		}
		e.Close()
		regions = append(regions, us(p.timed(root, "engine.NewMultiRegions", cellName, func() { m, err = engine.NewMultiRegions(asm.U, asm.Auts, opts) })))
		if err != nil {
			return fmt.Errorf("engine.NewMultiRegions %s: %w", cellName, err)
		}
		m.Close()
	}
	p.add("instantiate.auts.n64", float64(auts))
	p.add("ca.plan_regions_us.n64", geomean(plan))
	p.add("ca.regions.n64", float64(nRegions))
	p.add("ca.links.n64", float64(nLinks))
	p.add("engine.new_us.n64", geomean(single))
	p.add("engine.new_regions_us.n64", geomean(regions))
	return nil
}
