// Package lint is Sommelier's in-tree static-analysis framework. It
// machine-checks invariants that tests catch late or not at all: the
// indexing pipeline stays byte-identical across worker counts, library
// code threads contexts instead of minting them, mutexes are released
// on every path and never held across I/O, operating-system resources
// are closed on every path, and error chains stay wrapped with %w.
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
)

// Analyzer is one named invariant check. Run inspects a single
// type-checked package through its Pass and reports findings.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics ("detcheck", ...).
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
		DetCheck,
		CtxCheck,
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

// Run executes the analyzers over the packages and returns all
// diagnostics sorted by position, then analyzer name. There is no
// suppression directive: a finding is fixed, never silenced.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			a.Run(pass)
		}
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
