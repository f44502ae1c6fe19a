package gen

import (
	"fmt"
	"strings"

	"repro/internal/compile"
)

// Config parametrizes one generation run.
type Config struct {
	// Connector is the definition name to compile.
	Connector string
	// Package is the emitted package name (default: lower-cased
	// connector name).
	Package string
	// Funcs supplies registered data functions for Filter.* and
	// Transformer.* primitives. Generation only needs them to build the
	// automata; emitted code references them by name and genrun resolves
	// them again at New() time from the caller's registry.
	Funcs compile.Funcs
}

// Generated is the result of one generation run.
type Generated struct {
	// File is the gofmt-formatted source of the emitted package, laid
	// out as a single <Package>_gen.go file.
	File []byte
	// Package and Connector echo the configuration.
	Package   string
	Connector string
	// States and Transitions are totals across the emitted region
	// templates.
	States, Transitions int
	// Templates counts the distinct region shapes.
	Templates int
}

// sanitizePackage derives a legal lower-case package name.
func sanitizePackage(name string) string {
	var sb strings.Builder
	for _, r := range strings.ToLower(name) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' {
			sb.WriteRune(r)
		}
	}
	s := sb.String()
	if s == "" || s[0] >= '0' && s[0] <= '9' {
		s = "conn" + s
	}
	return s
}

func checkPackageName(name string) error {
	if name == "" {
		return fmt.Errorf("gen: empty package name")
	}
	for i, r := range name {
		ok := r >= 'a' && r <= 'z' || r == '_' || r >= '0' && r <= '9' && i > 0
		if !ok {
			return fmt.Errorf("gen: %q is not a usable package name (lower-case letters, digits, underscore)", name)
		}
	}
	return nil
}
