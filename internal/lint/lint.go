// Package lint is Sommelier's in-tree static-analysis framework. It
// machine-checks the invariants the catalog's concurrency and
// determinism guarantees rest on — invariants that are otherwise only
// enforced by tests and code review: snapshots are immutable after
// publish, guarded fields are only touched under their mutex, the
// indexing pipeline stays byte-identical across worker counts, library
// code threads contexts instead of minting them, and sentinel errors
// are matched with errors.Is.
//
// The framework is built on the standard library only (go/parser,
// go/ast, go/types, go/importer — no x/tools): a small loader
// type-checks the module, a driver runs each registered analyzer over
// each loaded package, and cmd/sommlint turns the diagnostics into the
// usual file:line:col output with a vet-style exit contract.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Run inspects a single
// type-checked package through its Pass and reports findings.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics ("lockcheck", ...).
	Name string
	// Doc is a one-line description of the invariant enforced.
	Doc string
	// Run analyzes pass.Pkg and reports diagnostics via pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries everything an analyzer needs to inspect one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Position: p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding: where, which analyzer, and why.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
}

// String renders the diagnostic in the conventional
// file:line:col: [analyzer] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Analyzer, d.Message)
}

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	// Path is the import path ("sommelier/internal/catalog").
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Fset positions all of the package's files.
	Fset *token.FileSet
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's expression/object tables.
	Info *types.Info
}

// Analyzers returns the full registered suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockCheck,
		SnapCheck,
		DetCheck,
		CtxCheck,
		ErrCmp,
		LockFlow,
		LeakCheck,
		ErrFlow,
	}
}

// ByName resolves a comma-free list of analyzer names against the
// registry, preserving registry order.
func ByName(names []string) ([]*Analyzer, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []*Analyzer
	for _, a := range Analyzers() {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	for _, n := range names {
		if want[n] {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
	}
	return out, nil
}

// Run executes the analyzers over the packages, applies //lint:ignore
// suppressions, and returns all surviving diagnostics sorted by
// position, then analyzer name.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	running := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		running[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				report:   func(d Diagnostic) { pkgDiags = append(pkgDiags, d) },
			}
			a.Run(pass)
		}
		diags = append(diags, applySuppressions(pkg, pkgDiags, known, running)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		di, dj := diags[i], diags[j]
		if di.Position.Filename != dj.Position.Filename {
			return di.Position.Filename < dj.Position.Filename
		}
		if di.Position.Line != dj.Position.Line {
			return di.Position.Line < dj.Position.Line
		}
		if di.Position.Column != dj.Position.Column {
			return di.Position.Column < dj.Position.Column
		}
		if di.Analyzer != dj.Analyzer {
			return di.Analyzer < dj.Analyzer
		}
		return di.Message < dj.Message
	})
	return diags
}

// suppression is one parsed //lint:ignore <analyzer> <reason>
// directive. It silences matching diagnostics on its own line and the
// line immediately below, so it works both as a trailing comment and
// on a line of its own above the flagged statement.
type suppression struct {
	analyzer string
	file     string
	line     int
	pos      token.Pos
	used     bool
}

// applySuppressions filters the package's diagnostics through its
// //lint:ignore directives. Directives must name an analyzer and give
// a reason; a directive that silences nothing is itself reported, so
// suppressions cannot silently outlive the code they excuse.
func applySuppressions(pkg *Package, diags []Diagnostic, known, running map[string]bool) []Diagnostic {
	sups, out := collectSuppressions(pkg)
	for _, d := range diags {
		suppressed := false
		for _, s := range sups {
			if s.analyzer == d.Analyzer && s.file == d.Position.Filename &&
				(d.Position.Line == s.line || d.Position.Line == s.line+1) {
				s.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, s := range sups {
		if s.used {
			continue
		}
		if !known[s.analyzer] {
			out = append(out, Diagnostic{
				Analyzer: "suppress",
				Position: pkg.Fset.Position(s.pos),
				Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q", s.analyzer),
			})
			continue
		}
		// The named analyzer exists but was not selected for this run
		// (e.g. sommlint -only): not this run's business.
		if !running[s.analyzer] {
			continue
		}
		out = append(out, Diagnostic{
			Analyzer: "suppress",
			Position: pkg.Fset.Position(s.pos),
			Message:  fmt.Sprintf("unused //lint:ignore for %s: it suppresses nothing; remove it", s.analyzer),
		})
	}
	return out
}

// collectSuppressions parses the package's //lint:ignore directives.
// Malformed ones (no analyzer, or no reason) come back as diagnostics.
func collectSuppressions(pkg *Package) ([]*suppression, []Diagnostic) {
	var sups []*suppression
	var malformed []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Analyzer: "suppress",
						Position: pkg.Fset.Position(c.Pos()),
						Message:  "//lint:ignore requires an analyzer name and a reason: //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				sups = append(sups, &suppression{
					analyzer: fields[0],
					file:     pos.Filename,
					line:     pos.Line,
					pos:      c.Pos(),
				})
			}
		}
	}
	return sups, malformed
}
