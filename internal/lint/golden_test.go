package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden tests follow the x/tools analysistest convention:
// testdata/src is a GOPATH-style source root, and `// want `-comments
// carry backquoted regexps that must match a diagnostic reported on
// the same line — in both directions: every want needs a diagnostic,
// every diagnostic needs a want.

var wantTokenRe = regexp.MustCompile("`([^`]+)`")

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func loadGolden(t *testing.T, patterns ...string) []*Package {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(Config{Root: root}, patterns)
	if err != nil {
		t.Fatalf("loading %v: %v", patterns, err)
	}
	return pkgs
}

// collectWants scans the packages' comments for want-expectations.
func collectWants(t *testing.T, pkgs []*Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "want ")
					if idx < 0 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					toks := wantTokenRe.FindAllStringSubmatch(c.Text[idx:], -1)
					if len(toks) == 0 {
						t.Errorf("%s:%d: want-comment with no backquoted pattern", pos.Filename, pos.Line)
						continue
					}
					for _, tok := range toks {
						re, err := regexp.Compile(tok[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern: %v", pos.Filename, pos.Line, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return wants
}

// runGolden runs one analyzer over the given testdata packages and
// reconciles diagnostics against want-comments.
func runGolden(t *testing.T, a *Analyzer, patterns ...string) {
	t.Helper()
	pkgs := loadGolden(t, patterns...)
	wants := collectWants(t, pkgs)
	diags := Run(pkgs, []*Analyzer{a})

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Position.Filename || w.line != d.Position.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

func TestLockCheckGolden(t *testing.T) { runGolden(t, LockCheck, "lockcheck") }

func TestSnapCheckGoldenDerived(t *testing.T) { runGolden(t, SnapCheck, "snapwrite") }

func TestSnapCheckGoldenInCatalog(t *testing.T) {
	runGolden(t, SnapCheck, "sommelier/internal/catalog")
}

func TestDetCheckGolden(t *testing.T) {
	runGolden(t, DetCheck, "detcheck/index", "detcheck/plain")
}

func TestCtxCheckGolden(t *testing.T) {
	runGolden(t, CtxCheck, "ctxcheck/lib", "ctxcheck/mainprog")
}

func TestErrCmpGolden(t *testing.T) { runGolden(t, ErrCmp, "errcmp") }

func TestOptCheckGolden(t *testing.T) {
	runGolden(t, OptCheck, "sommelier/internal/serving")
}

func TestLockFlowGolden(t *testing.T) { runGolden(t, LockFlow, "lockflow") }

func TestLeakCheckGolden(t *testing.T) { runGolden(t, LeakCheck, "leakcheck") }

func TestErrFlowGolden(t *testing.T) { runGolden(t, ErrFlow, "errflow") }

// TestSuppressGolden drives the //lint:ignore directive through the
// driver with errcmp as the finding source: used suppressions silence,
// malformed/unknown/unused ones are reported.
func TestSuppressGolden(t *testing.T) { runGolden(t, ErrCmp, "suppress") }

// TestFullSuiteOverTestdata runs every analyzer over every golden
// package at once; diagnostics must exactly cover the union of wants.
// This catches analyzers that fire on another analyzer's fixtures.
func TestFullSuiteOverTestdata(t *testing.T) {
	patterns := []string{
		"lockcheck", "snapwrite", "sommelier/internal/catalog",
		"sommelier/internal/serving",
		"detcheck/index", "detcheck/plain", "ctxcheck/lib", "ctxcheck/mainprog",
		"errcmp", "errcmp/deps",
		"lockflow", "leakcheck", "errflow", "suppress",
	}
	pkgs := loadGolden(t, patterns...)
	wants := collectWants(t, pkgs)
	diags := Run(pkgs, Analyzers())
	if len(diags) != len(wants) {
		var b strings.Builder
		for _, d := range diags {
			fmt.Fprintf(&b, "  %s\n", d)
		}
		t.Errorf("suite produced %d diagnostics for %d wants:\n%s", len(diags), len(wants), b.String())
	}
}

// TestDiagnosticOrdering pins the driver's sort contract.
func TestDiagnosticOrdering(t *testing.T) {
	pkgs := loadGolden(t, "detcheck/index")
	diags := Run(pkgs, Analyzers())
	if len(diags) < 2 {
		t.Fatalf("expected multiple diagnostics, got %d", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1].Position, diags[i].Position
		if a.Filename > b.Filename || (a.Filename == b.Filename && a.Line > b.Line) {
			t.Errorf("diagnostics out of order: %s before %s", diags[i-1], diags[i])
		}
	}
}
