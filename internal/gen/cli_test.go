package gen_test

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
)

// runCLI captures one RunCLI invocation.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = gen.RunCLI(args, &out, &errb)
	return code, out.String(), errb.String()
}

func writeLane(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lane.reo")
	if err := os.WriteFile(path, []byte("Lane(a;b) = Fifo1(a;b)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLIMissingArgs(t *testing.T) {
	code, _, stderr := runCLI(t, "only-a-file.reo")
	if code != 2 || !strings.Contains(stderr, "usage:") {
		t.Errorf("got code %d, stderr %q; want usage error", code, stderr)
	}
}

func TestCLIMissingSourceFile(t *testing.T) {
	code, _, stderr := runCLI(t, filepath.Join(t.TempDir(), "nope.reo"), "Lane")
	if code != 1 || !strings.Contains(stderr, "nope.reo") {
		t.Errorf("got code %d, stderr %q; want file-not-found error", code, stderr)
	}
}

func TestCLIBadSource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.reo")
	if err := os.WriteFile(path, []byte("Lane(a;b = "), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, path, "Lane", "-o", t.TempDir())
	if code != 1 || stderr == "" {
		t.Errorf("got code %d, stderr %q; want parse error", code, stderr)
	}
}

func TestCLIUnknownConnector(t *testing.T) {
	code, _, stderr := runCLI(t, writeLane(t), "NoSuchThing", "-o", t.TempDir())
	if code != 1 || !strings.Contains(stderr, "NoSuchThing") {
		t.Errorf("got code %d, stderr %q; want unknown-connector error", code, stderr)
	}
}

func TestCLIUnwritableOutputDir(t *testing.T) {
	if runtime.GOOS == "windows" || os.Getuid() == 0 {
		t.Skip("permission bits are not enforceable here")
	}
	dir := t.TempDir()
	locked := filepath.Join(dir, "locked")
	if err := os.Mkdir(locked, 0o500); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, writeLane(t), "Lane", "-o", filepath.Join(locked, "sub"))
	if code != 1 || !strings.Contains(stderr, "permission denied") {
		t.Errorf("got code %d, stderr %q; want permission error", code, stderr)
	}
}

func TestCLICollisionNeedsForce(t *testing.T) {
	out := t.TempDir()
	lane := writeLane(t)
	code, stdout, stderr := runCLI(t, lane, "Lane", "-o", out)
	if code != 0 {
		t.Fatalf("first generation failed: %s", stderr)
	}
	if !strings.Contains(stdout, "lane_gen.go") || !strings.Contains(stdout, "1 region templates") {
		t.Errorf("unexpected success output %q", stdout)
	}
	// Second run collides with the existing file.
	code, _, stderr = runCLI(t, lane, "Lane", "-o", out)
	if code != 1 || !strings.Contains(stderr, "already exists") {
		t.Errorf("got code %d, stderr %q; want collision error", code, stderr)
	}
	// -force overwrites.
	code, _, stderr = runCLI(t, lane, "Lane", "-o", out, "-force")
	if code != 0 {
		t.Errorf("force overwrite failed: %s", stderr)
	}
}

func TestCLIBadPackageName(t *testing.T) {
	code, _, stderr := runCLI(t, writeLane(t), "Lane", "-o", t.TempDir(), "-pkg", "Not-Valid")
	if code != 1 || !strings.Contains(stderr, "package name") {
		t.Errorf("got code %d, stderr %q; want package-name error", code, stderr)
	}
}

// TestCLIParametric runs the CLI end to end on an arrayed connector: one
// generation run, one template, any length.
func TestCLIParametric(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lanes.reo")
	if err := os.WriteFile(path, []byte("Lanes(a[];b[]) = prod (i:1..#a) Fifo1(a[i];b[i])\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	code, stdout, stderr := runCLI(t, path, "Lanes", "-o", out)
	if code != 0 {
		t.Fatalf("parametric generation failed: %s", stderr)
	}
	if !strings.Contains(stdout, "lanes_gen.go") || !strings.Contains(stdout, "1 region templates") ||
		!strings.Contains(stdout, "any n") {
		t.Errorf("unexpected success output %q", stdout)
	}
	emitted, err := os.ReadFile(filepath.Join(out, "lanes_gen.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"package lanes", "genrun.New(source, connectorName, n, templates", "func New(n int"} {
		if !strings.Contains(string(emitted), want) {
			t.Errorf("emitted package missing %q", want)
		}
	}
}
