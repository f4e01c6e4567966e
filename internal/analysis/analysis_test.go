package analysis

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// moduleRoot locates the module directory so fixture patterns resolve
// the same way no matter where go test chdirs us.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	return strings.TrimSpace(string(out))
}

// wantRe extracts the expectation from a `// want "substring"` comment.
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// want is one fixture expectation: a diagnostic whose message contains
// Substr must be reported on File line Line.
type want struct {
	File   string
	Line   int
	Substr string
	hit    bool
}

// collectWants scans a fixture directory's sources for expectations.
func collectWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
				out = append(out, &want{File: path, Line: line, Substr: m[1]})
			}
		}
		f.Close()
	}
	return out
}

// TestFixtures runs each analyzer over its seeded-violation fixture
// package and requires the diagnostics to match the `// want`
// annotations exactly: every want hit, nothing extra reported, and the
// fixtures' //hwlint:allow annotations honored.
func TestFixtures(t *testing.T) {
	root := moduleRoot(t)
	cases := []struct {
		name      string
		analyzers []*Analyzer
	}{
		{"lockorder", []*Analyzer{LockOrder}},
		{"callbacklock", []*Analyzer{CallbackUnderLock}},
		{"maprange", []*Analyzer{NondeterministicRange}},
		{"atomics", []*Analyzer{AtomicsOnly}},
		// The shard mutation epoch: bumped under the owning shard's
		// mutex but read unlocked by the incremental snapshot's skip
		// decision, so direct field access is a race by construction.
		{"shardepoch", []*Analyzer{AtomicsOnly}},
		// The flight-recorder fixture is checked by two analyzers at
		// once: emission sites must be outside shard mutexes
		// (callbacklock) and the ring internals behind their methods
		// (atomics).
		{"journalemit", []*Analyzer{CallbackUnderLock, AtomicsOnly}},
		// The flat-combining fixture is likewise checked by two: a
		// drain loop must do no observer work under the shard mutex
		// (callbacklock), and walks over shards must ascend by index
		// (lockorder).
		{"flatcombine", []*Analyzer{CallbackUnderLock, LockOrder}},
		// The interprocedural gate: //hwlint:hotpath budgets counted
		// through helpers, recursion and devirtualized calls.
		{"allocbudget", []*Analyzer{AllocBudget}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rel := filepath.Join("internal", "analysis", "testdata", "src", tc.name)
			pkgs, err := Load(root, "./"+filepath.ToSlash(rel))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if len(pkgs) != 1 {
				t.Fatalf("Load returned %d packages, want 1", len(pkgs))
			}
			diags := Run(pkgs, tc.analyzers)
			wants := collectWants(t, filepath.Join(root, rel))
			if len(wants) == 0 {
				t.Fatal("fixture has no // want annotations; it proves nothing")
			}
		next:
			for _, d := range diags {
				for _, w := range wants {
					if !w.hit && d.Pos.Filename == w.File && d.Pos.Line == w.Line && strings.Contains(d.Message, w.Substr) {
						w.hit = true
						continue next
					}
				}
				t.Errorf("unexpected diagnostic: %s", d)
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("missing diagnostic at %s:%d containing %q", w.File, w.Line, w.Substr)
				}
			}
		})
	}
}

// TestModuleClean runs the full analyzer set over the real module — the
// same invocation as `make lint` — and requires zero findings: every
// real violation is fixed and every allowlist entry still suppresses
// something.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root := moduleRoot(t)
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("Load matched only %d packages; pattern resolution is broken", len(pkgs))
	}
	diags := Run(pkgs, All)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
