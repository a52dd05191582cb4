package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsClean runs the full analyzer suite over the real module and
// demands zero findings. This is the regression gate: any change that
// leaks map order or a clock into a deterministic package, mints a
// context in a library, holds a mutex across I/O or past a return,
// leaves a file open, or flattens an error chain fails here before it
// fails in CI's `make lint`.
func TestRepoIsClean(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ConfigForDir(wd)
	if err != nil {
		t.Fatalf("ConfigForDir: %v", err)
	}
	pkgs, err := Load(cfg, nil)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; expected the whole module", len(pkgs))
	}
	diags := Run(pkgs, Analyzers())
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestSeededViolationInModuleMode builds a throwaway module whose
// sentinel is formatted with %v and checks that module-mode loading
// (go.mod discovery, module-path import resolution) surfaces it.
func TestSeededViolationInModuleMode(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.21\n")
	writeFile(t, filepath.Join(dir, "store", "store.go"), `package store

import (
	"errors"
	"fmt"
)

var ErrMissing = errors.New("missing")

func Get(key string) error {
	return fmt.Errorf("store: get %s: %v", key, ErrMissing)
}
`)
	cfg, err := ConfigForDir(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatalf("ConfigForDir: %v", err)
	}
	if cfg.ModulePath != "scratch" {
		t.Fatalf("ModulePath = %q, want scratch", cfg.ModulePath)
	}
	pkgs, err := Load(cfg, nil)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags := Run(pkgs, Analyzers())
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "errflow" {
		t.Errorf("Analyzer = %q, want errflow", d.Analyzer)
	}
	if !strings.Contains(d.Message, "%w") {
		t.Errorf("message %q does not suggest %%w", d.Message)
	}
	if filepath.Base(d.Position.Filename) != "store.go" || d.Position.Line != 11 {
		t.Errorf("position = %s:%d, want store.go:11", d.Position.Filename, d.Position.Line)
	}
}

func TestByName(t *testing.T) {
	as, err := ByName([]string{"errflow", "detcheck"})
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	// Registry order, not argument order.
	if len(as) != 2 || as[0].Name != "detcheck" || as[1].Name != "errflow" {
		got := []string{as[0].Name, as[1].Name}
		t.Errorf("ByName returned %v, want [detcheck errflow]", got)
	}
	if _, err := ByName([]string{"nosuch"}); err == nil {
		t.Error("ByName accepted unknown analyzer name")
	}
}

// TestLoadExplicitDir checks the non-recursive pattern form: a single
// directory loads exactly one package, and a Go-less directory errors.
func TestLoadExplicitDir(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ConfigForDir(wd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(cfg, []string{"./internal/faults"})
	if err != nil {
		t.Fatalf("Load(./internal/faults): %v", err)
	}
	if len(pkgs) != 1 || !strings.HasSuffix(pkgs[0].Path, "internal/faults") {
		t.Fatalf("loaded %v, want exactly internal/faults", pkgs)
	}
	scratch := t.TempDir()
	writeFile(t, filepath.Join(scratch, "go.mod"), "module scratch\n\ngo 1.21\n")
	writeFile(t, filepath.Join(scratch, "empty", ".keep"), "")
	scfg, err := ConfigForDir(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(scfg, []string{"./empty"}); err == nil {
		t.Error("Load of a Go-less directory did not error")
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
