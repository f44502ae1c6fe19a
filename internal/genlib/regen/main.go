// Command regen regenerates the checked-in connector packages of
// internal/genlib (`reoc gen` output). It exists because the funcful
// connectors (xfab) reference registered data functions, which the reoc
// CLI cannot supply: generation must happen in-process with the
// explorer's shared test functions registered, exactly as the golden test
// re-derives them. Run from the genlib directory (the
// go:generate line in genlib.go does) after changing the generator or a
// .reo source, and commit the result.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	reo "repro"
	"repro/internal/explore"
	"repro/internal/gen"
)

func main() {
	entries := []struct {
		src, connector, pkg string
		funcs               reo.Funcs
	}{
		{"fabric.reo", "Fabric", "fabric", reo.Funcs{}},
		{"xfab.reo", "XFab", "xfab", reo.Funcs{Filters: explore.TestFilters(), Transformers: explore.TestXforms()}},
		{"msfabric.reo", "MSFabric", "msfabric", reo.Funcs{}},
	}
	for _, e := range entries {
		src, err := os.ReadFile(e.src)
		if err != nil {
			fatal(err)
		}
		g, err := gen.GenerateParametric(string(src), gen.Config{
			Connector: e.connector,
			Package:   e.pkg,
			Funcs:     e.funcs,
		})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.connector, err))
		}
		if err := os.MkdirAll(e.pkg, 0o755); err != nil {
			fatal(err)
		}
		target := filepath.Join(e.pkg, e.pkg+"_gen.go")
		if err := os.WriteFile(target, g.File, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("regen: wrote %s (%d region templates, %d states, %d transitions)\n",
			target, g.Templates, g.States, g.Transitions)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "regen:", err)
	os.Exit(1)
}
