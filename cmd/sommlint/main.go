// Command sommlint runs Sommelier's in-tree static-analysis suite
// (internal/lint) over the module: the syntactic checks (detcheck,
// ctxcheck) plus the flow-sensitive ones built on the CFG engine
// (lockflow, leakcheck, errflow) — the machine-checked versions of the
// invariants DESIGN.md documents. There is no suppression directive: a
// finding is fixed, never silenced.
//
// Usage:
//
//	sommlint [-json] [-only a,b] [-list] [packages]
//
// Packages follow go-command patterns ("./...", "./internal/catalog");
// the default is ./... from the enclosing module root.
//
// Exit codes (the vet contract, so CI can tell findings from breakage):
//
//	0  no diagnostics
//	1  one or more diagnostics
//	2  usage, load, or type-check error
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sommelier/internal/lint"
)

// jsonDiagnostic is the machine-readable diagnostic shape, documented
// in README.md for future CI consumption.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("sommlint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	list := fs.Bool("list", false, "list registered analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: sommlint [-json] [-only a,b] [-list] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.Analyzers()
	if *only != "" {
		var err error
		analyzers, err = lint.ByName(strings.Split(*only, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "sommlint:", err)
			return 2
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sommlint:", err)
		return 2
	}
	cfg, err := lint.ConfigForDir(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sommlint:", err)
		return 2
	}
	pkgs, err := lint.Load(cfg, fs.Args())
	if err != nil {
		// Broken input still gets file:line:col lines, one per error.
		var le *lint.LoadError
		if errors.As(err, &le) {
			for _, d := range le.Diags {
				fmt.Fprintf(os.Stderr, "%s:%d:%d: [%s] %s\n",
					relPath(cwd, d.Position.Filename), d.Position.Line, d.Position.Column,
					d.Analyzer, d.Message)
			}
			return 2
		}
		fmt.Fprintln(os.Stderr, "sommlint:", err)
		return 2
	}

	diags := lint.Run(pkgs, analyzers)
	if *jsonOut {
		out := make([]jsonDiagnostic, len(diags))
		for i, d := range diags {
			out[i] = jsonDiagnostic{
				File:     relPath(cwd, d.Position.Filename),
				Line:     d.Position.Line,
				Col:      d.Position.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "sommlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: [%s] %s\n",
				relPath(cwd, d.Position.Filename), d.Position.Line, d.Position.Column,
				d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// relPath shortens absolute diagnostic paths relative to the working
// directory when that makes them shorter, mirroring go vet output.
func relPath(base, path string) string {
	if rel, err := filepath.Rel(base, path); err == nil && len(rel) < len(path) {
		return rel
	}
	return path
}
