package gen

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// RunCLI implements the `reoc gen` subcommand: it reads a protocol
// source file, generates the named connector's package (one template
// per region shape, instantiable at any array length), and writes the
// emitted file into the output directory. It returns a process exit
// code and prints human-readable errors to stderr, so cmd/reoc can
// delegate to it directly and tests can exercise every error path
// without spawning a process.
//
// Usage: reoc gen file.reo Connector [-o dir] [-pkg name] [-force]
func RunCLI(args []string, stdout, stderr io.Writer) int {
	if len(args) < 2 {
		fmt.Fprintln(stderr, "usage: reoc gen file.reo Connector [-o dir] [-pkg name] [-force]")
		return 2
	}
	file, connector := args[0], args[1]
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	outDir := fs.String("o", ".", "output directory (created if missing)")
	pkg := fs.String("pkg", "", "package name (default: lower-cased connector name)")
	force := fs.Bool("force", false, "overwrite an existing generated file")
	if err := fs.Parse(args[2:]); err != nil {
		return 2
	}

	src, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintln(stderr, "reoc gen:", err)
		return 1
	}
	g, err := GenerateParametric(string(src), Config{Connector: connector, Package: *pkg})
	if err != nil {
		fmt.Fprintln(stderr, "reoc gen:", err)
		return 1
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "reoc gen:", err)
		return 1
	}
	target := filepath.Join(*outDir, g.Package+"_gen.go")
	if !*force {
		if _, err := os.Stat(target); err == nil {
			fmt.Fprintf(stderr, "reoc gen: %s already exists (use -force to overwrite)\n", target)
			return 1
		}
	}
	if err := os.WriteFile(target, g.File, 0o644); err != nil {
		fmt.Fprintln(stderr, "reoc gen:", err)
		return 1
	}
	fmt.Fprintf(stdout, "reoc gen: wrote %s (package %s: %d region templates, %d states, %d transitions, any n)\n",
		target, g.Package, g.Templates, g.States, g.Transitions)
	return 0
}
