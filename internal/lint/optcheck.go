package lint

import (
	"go/ast"
)

// frozenStructs maps package name → struct name → its frozen field set.
// These are the serving simulator's input structs, which predate its
// functional options. Each has a conversion path (Workload → arrival
// stream, FailureModel → fault schedule) that would silently drop any
// field the author forgets to map, so the safe rule is absolute: no new
// fields, ever. New knobs are With… functional options on the serving
// Simulator.
var frozenStructs = map[string]map[string]map[string]bool{
	"serving": {
		"Workload": {
			"Requests":      true,
			"MeanArrivalMS": true,
			"BurstEvery":    true,
			"BurstLen":      true,
			"BurstFactor":   true,
			"Seed":          true,
		},
		"FailureModel": {
			"SwitchFailProb": true,
			"Seed":           true,
		},
	},
}

// OptCheck freezes the serving package's Workload and FailureModel
// structs. Configuration knobs added after the functional-options
// redesign must be With… Option constructors, not struct fields — a
// field added to a frozen struct but not to its converter would be
// silently ignored for every caller. This check turns that quiet
// divergence into a lint failure.
var OptCheck = &Analyzer{
	Name: "optcheck",
	Doc:  "serving config structs (Workload, FailureModel) are frozen; new knobs must be functional options",
	Run:  runOptCheck,
}

func runOptCheck(pass *Pass) {
	structs := frozenStructs[pass.Pkg.Types.Name()]
	if structs == nil {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				fields := structs[ts.Name.Name]
				if fields == nil {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if !fields[name.Name] {
							pass.Reportf(name.Pos(),
								"field %s added to the frozen legacy %s struct; add a With%s functional option instead",
								name.Name, ts.Name.Name, name.Name)
						}
					}
					if len(field.Names) == 0 {
						pass.Reportf(field.Pos(),
							"embedded field added to the frozen legacy %s struct; add a functional option instead",
							ts.Name.Name)
					}
				}
			}
		}
	}
}
