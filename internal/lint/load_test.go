package lint

import (
	"errors"
	"maps"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// The loader's failure contract: broken input surfaces as a *LoadError
// carrying one positioned diagnostic per underlying error — never a
// panic, never a single opaque message that hides the rest.

// loadBroken builds a scratch module around the given source files and
// returns the Load error.
func loadBroken(t *testing.T, files map[string]string) error {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.21\n")
	for name, content := range files {
		writeFile(t, filepath.Join(dir, name), content)
	}
	cfg, err := ConfigForDir(dir)
	if err != nil {
		t.Fatalf("ConfigForDir: %v", err)
	}
	_, err = Load(cfg, nil)
	if err == nil {
		t.Fatal("Load succeeded on broken input")
	}
	return err
}

func asLoadError(t *testing.T, err error) *LoadError {
	t.Helper()
	var le *LoadError
	if !errors.As(err, &le) {
		t.Fatalf("Load error is %T (%v), want *LoadError", err, err)
	}
	if len(le.Diags) == 0 {
		t.Fatal("LoadError with no diagnostics")
	}
	return le
}

func TestLoadSyntaxErrorPositioned(t *testing.T) {
	err := loadBroken(t, map[string]string{
		filepath.Join("broken", "broken.go"): "package broken\n\nfunc f() {\n\tif {\n}\n",
	})
	le := asLoadError(t, err)
	if le.Stage != "syntax" {
		t.Errorf("Stage = %q, want syntax", le.Stage)
	}
	d := le.Diags[0]
	if d.Analyzer != "syntax" {
		t.Errorf("Analyzer = %q, want syntax", d.Analyzer)
	}
	if !strings.HasSuffix(d.Position.Filename, "broken.go") || d.Position.Line == 0 {
		t.Errorf("diagnostic not positioned: %s", d)
	}
}

// TestLoadSyntaxErrorsAcrossFiles checks that one broken file does not
// hide syntax errors in another file of the same package.
func TestLoadSyntaxErrorsAcrossFiles(t *testing.T) {
	err := loadBroken(t, map[string]string{
		filepath.Join("broken", "a.go"): "package broken\n\nfunc a() {\n\tx := \n}\n",
		filepath.Join("broken", "b.go"): "package broken\n\nfunc b() {\n\tfor {\n",
	})
	le := asLoadError(t, err)
	seen := map[string]bool{}
	for _, d := range le.Diags {
		seen[filepath.Base(d.Position.Filename)] = true
	}
	if !seen["a.go"] || !seen["b.go"] {
		t.Errorf("diagnostics cover %v, want both a.go and b.go (%v)", seen, le.Diags)
	}
}

func TestLoadTypeErrorPositioned(t *testing.T) {
	err := loadBroken(t, map[string]string{
		filepath.Join("broken", "broken.go"): "package broken\n\nfunc f() int {\n\treturn \"nope\"\n}\n",
	})
	le := asLoadError(t, err)
	if le.Stage != "typecheck" {
		t.Errorf("Stage = %q, want typecheck", le.Stage)
	}
	d := le.Diags[0]
	if d.Analyzer != "typecheck" {
		t.Errorf("Analyzer = %q, want typecheck", d.Analyzer)
	}
	if !strings.HasSuffix(d.Position.Filename, "broken.go") || d.Position.Line != 4 {
		t.Errorf("diagnostic not positioned at broken.go:4: %s", d)
	}
}

// TestLoadTypeErrorsAllReported checks that every type error is
// surfaced, not just the first.
func TestLoadTypeErrorsAllReported(t *testing.T) {
	err := loadBroken(t, map[string]string{
		filepath.Join("broken", "broken.go"): "package broken\n\nvar a int = \"x\"\nvar b bool = 3\n",
	})
	le := asLoadError(t, err)
	if len(le.Diags) < 2 {
		t.Errorf("got %d diagnostics, want both type errors: %v", len(le.Diags), le.Diags)
	}
}

// TestLoadErrorMessage pins the summary the CLI falls back to.
func TestLoadErrorMessage(t *testing.T) {
	err := loadBroken(t, map[string]string{
		filepath.Join("broken", "broken.go"): "package broken\n\nfunc f() int {\n\treturn \"nope\"\n}\n",
	})
	msg := err.Error()
	if !strings.Contains(msg, "typecheck") || !strings.Contains(msg, "broken") {
		t.Errorf("Error() = %q, want stage and package named", msg)
	}
}

// TestLoadHonoursBuildConstraints loads a package that declares
// haveWide twice, in a _amd64.go file and in a //go:build !amd64 file,
// and expects the package file plus the one declaration the go command
// compiles here.
func TestLoadHonoursBuildConstraints(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(Config{Root: root}, []string{"./buildtags"})
	if err != nil {
		t.Fatalf("Load(./buildtags): %v", err)
	}
	want := map[string]bool{"buildtags.go": true, "wide_other.go": true}
	if runtime.GOARCH == "amd64" {
		want = map[string]bool{"buildtags.go": true, "wide_amd64.go": true}
	}
	got := map[string]bool{}
	for _, f := range pkgs[0].Files {
		got[filepath.Base(pkgs[0].Fset.Position(f.Pos()).Filename)] = true
	}
	if !maps.Equal(got, want) {
		t.Errorf("loaded %v, want %v", got, want)
	}
}
