package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadError reports parse or type-check failures as positioned
// diagnostics — one per underlying error — so broken input surfaces as
// file:line:col lines instead of a panic or one opaque message.
type LoadError struct {
	// Path is the import path (or directory) of the failing package.
	Path string
	// Stage is "syntax" for parse failures, "typecheck" for
	// type-checking failures; it doubles as the Analyzer name on the
	// diagnostics.
	Stage string
	// Diags carries every underlying error with its position.
	Diags []Diagnostic
}

func (e *LoadError) Error() string {
	if len(e.Diags) == 1 {
		return fmt.Sprintf("lint: %s error in %s: %s", e.Stage, e.Path, e.Diags[0])
	}
	return fmt.Sprintf("lint: %d %s errors in %s (first: %s)",
		len(e.Diags), e.Stage, e.Path, e.Diags[0])
}

// Config tells the loader where source lives and how import paths map
// to directories.
type Config struct {
	// Root anchors pattern expansion and in-tree import resolution.
	Root string
	// ModulePath is the module's import-path prefix. When set, import
	// path ModulePath/x/y resolves to Root/x/y (module layout). When
	// empty, import path x/y resolves to Root/x/y directly (the
	// GOPATH-style layout the golden testdata uses).
	ModulePath string
}

// ConfigForDir locates the enclosing module of dir (walking up to the
// nearest go.mod) and returns a Config for it.
func ConfigForDir(dir string) (Config, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return Config{}, err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			path := modulePath(string(data))
			if path == "" {
				return Config{}, fmt.Errorf("lint: no module line in %s/go.mod", d)
			}
			return Config{Root: d, ModulePath: path}, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return Config{}, fmt.Errorf("lint: no go.mod above %s", abs)
		}
		d = parent
	}
}

// modulePath extracts the module path from go.mod content.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// loader parses and type-checks packages on demand, resolving in-tree
// imports itself and delegating the rest (the standard library) to the
// toolchain's importers.
type loader struct {
	cfg  Config
	fset *token.FileSet
	pkgs map[string]*Package // by import path
	busy map[string]bool     // cycle guard
	gc   types.Importer      // compiled export data (fast path)
	src  types.Importer      // type-check from source (fallback)
}

func newLoader(cfg Config) *loader {
	fset := token.NewFileSet()
	return &loader{
		cfg:  cfg,
		fset: fset,
		pkgs: make(map[string]*Package),
		busy: make(map[string]bool),
		gc:   importer.Default(),
		src:  importer.ForCompiler(fset, "source", nil),
	}
}

// dirFor maps an import path to an in-tree directory, or ok=false for
// paths that belong to other modules (the standard library).
func (l *loader) dirFor(path string) (string, bool) {
	if l.cfg.ModulePath == "" {
		dir := filepath.Join(l.cfg.Root, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, true
		}
		return "", false
	}
	if path == l.cfg.ModulePath {
		return l.cfg.Root, true
	}
	if rest, ok := strings.CutPrefix(path, l.cfg.ModulePath+"/"); ok {
		return filepath.Join(l.cfg.Root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// pathFor maps an in-tree directory back to its import path.
func (l *loader) pathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.cfg.Root, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	if l.cfg.ModulePath == "" {
		return rel, nil
	}
	if rel == "." {
		return l.cfg.ModulePath, nil
	}
	return l.cfg.ModulePath + "/" + rel, nil
}

// Import implements types.Importer so the type-checker can resolve the
// imports of whichever package is currently being checked.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirFor(path); ok {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	tp, err := l.gc.Import(path)
	if err == nil {
		return tp, nil
	}
	return l.src.Import(path)
}

// load parses and type-checks the package at an in-tree import path.
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("lint: %q is not inside %s", path, l.cfg.Root)
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tp, _ := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		le := &LoadError{Path: path, Stage: "typecheck"}
		for _, err := range typeErrs {
			d := Diagnostic{Analyzer: "typecheck", Message: err.Error()}
			if te, ok := err.(types.Error); ok {
				d.Position = te.Fset.Position(te.Pos)
				d.Message = te.Msg
			}
			le.Diags = append(le.Diags, d)
		}
		return nil, le
	}
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tp,
		Info:  info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses every non-test Go file of dir's build, in name order
// so positions and diagnostics are stable.
func (l *loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var names []string
	for _, e := range entries {
		if inBuild(dir, e) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	le := &LoadError{Path: dir, Stage: "syntax"}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			// Keep parsing the remaining files so one broken file does
			// not hide syntax errors elsewhere in the package.
			if list, ok := err.(scanner.ErrorList); ok {
				for _, pe := range list {
					le.Diags = append(le.Diags, Diagnostic{
						Analyzer: "syntax", Position: pe.Pos, Message: pe.Msg,
					})
				}
			} else {
				le.Diags = append(le.Diags, Diagnostic{Analyzer: "syntax", Message: err.Error()})
			}
			continue
		}
		files = append(files, f)
	}
	if len(le.Diags) > 0 {
		return nil, le
	}
	return files, nil
}

// Load expands the patterns and returns the matched packages, parsed
// and type-checked. Patterns follow go-command conventions: a relative
// or rooted directory ("./internal/catalog"), or a tree with the
// "/..." suffix ("./..."). Matched directories without Go files are
// skipped; named directories without Go files are errors.
func Load(cfg Config, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l := newLoader(cfg)
	seen := make(map[string]bool)
	var pkgs []*Package
	add := func(dir string, explicit bool) error {
		path, err := l.pathFor(dir)
		if err != nil || seen[path] {
			return err
		}
		if !explicit && !hasGoFiles(dir) {
			return nil
		}
		seen[path] = true
		pkg, err := l.load(path)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
		return nil
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok || pat == "..." {
			if pat == "..." {
				rest = "."
			}
			base := filepath.Join(cfg.Root, filepath.FromSlash(strings.TrimPrefix(rest, "./")))
			err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
					name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				return add(p, false)
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		dir := filepath.Join(cfg.Root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if err := add(dir, true); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if inBuild(dir, e) {
			return true
		}
	}
	return false
}

// inBuild reports whether the go command compiles e into dir's package
// for this GOOS and GOARCH: a Go file, not a test, whose name suffix
// (_amd64.go, _windows.go) and //go:build line match. Files whose header
// go/build cannot read are kept, so the parser reports them.
func inBuild(dir string, e os.DirEntry) bool {
	name := e.Name()
	if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return ok || err != nil
}
