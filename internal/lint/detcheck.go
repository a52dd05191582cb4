package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetCheck enforces reproducibility in the determinism-critical
// packages — the ones whose output must be byte-identical for a fixed
// seed at any indexing worker count (catalog, index, equiv, lsh,
// tensor, zoo). Three rules:
//
//   - no time.Now: wall-clock reads make output depend on when it ran;
//   - no global math/rand: the process-wide source is shared,
//     unseedable in tests, and consumed in scheduling order — use a
//     seeded *rand.Rand (tensor.RNG) threaded through explicitly;
//   - no range over a map that feeds ordered output: a map-range whose
//     body appends to a slice declared outside the loop must be
//     followed, somewhere in the same function, by a sort of that
//     slice (sort.*, slices.Sort*, or a local helper whose name starts
//     with "sort" taking the slice as an argument). Map-ranges that
//     only aggregate (sums, map-to-map copies, deletions) are fine.
var DetCheck = &Analyzer{
	Name: "detcheck",
	Doc:  "deterministic packages must not read clocks, global RNG, or leak map order",
	Run:  runDetCheck,
}

// detPackages are the import-path leaf names of the packages whose
// output must be reproducible (ISSUE 3 / DESIGN.md invariants).
// Matching is by leaf name.
var detPackages = map[string]bool{
	"cas":     true,
	"catalog": true,
	"chunk":   true,
	"cluster": true,
	"index":   true,
	"equiv":   true,
	"lsh":     true,
	"tensor":  true,
	"zoo":     true,
	"repo":    true,
	"hub":     true,
	"serving": true,
}

// globalRandFuncs are the math/rand package-level functions that draw
// from the shared global source. Constructors (New, NewSource, NewZipf)
// are the fix, not the problem.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	"N": true, "IntN": true, "Int32N": true, "Int64N": true, "UintN": true,
	"Uint32N": true, "Uint64N": true,
}

func isDetPackage(path string) bool {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		path = path[i+1:]
	}
	return detPackages[path]
}

func runDetCheck(pass *Pass) {
	if !isDetPackage(pass.Pkg.Path) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pkgFunc(info, call, "time", "Now") {
				pass.Reportf(call.Pos(),
					"time.Now in a deterministic package; inject clocks from the caller")
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok &&
					fn.Pkg() != nil && globalRandSource(fn) {
					pass.Reportf(call.Pos(),
						"global math/rand.%s in a deterministic package; use a seeded *rand.Rand (e.g. tensor.RNG)",
						fn.Name())
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkMapRangeOrder(pass, fd)
			}
		}
	}
}

// globalRandSource reports whether fn is a math/rand (or math/rand/v2)
// package-level draw from the global source.
func globalRandSource(fn *types.Func) bool {
	p := fn.Pkg().Path()
	if p != "math/rand" && p != "math/rand/v2" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return globalRandFuncs[fn.Name()]
}

// checkMapRangeOrder flags map-ranges whose iteration order escapes
// into an ordered result without an intervening sort.
func checkMapRangeOrder(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info

	// sortedObjs collects every slice object that is the first argument
	// (or appears in the arguments) of a sorting call anywhere in the
	// function: sort.*, slices.Sort*, or a local func named sort*.
	sortedObjs := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSortingCall(info, call) {
			return true
		}
		for _, arg := range call.Args {
			if root := rootIdent(arg); root != nil {
				if obj := objOf(info, root); obj != nil {
					sortedObjs[obj] = true
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		// Does the body append to a slice declared outside the loop?
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			root := rootIdent(call.Args[0])
			if root == nil {
				return true
			}
			obj := objOf(info, root)
			if obj == nil || declaredWithin(obj, rng.Body) {
				return true // loop-local accumulator: order can't escape
			}
			if !sortedObjs[obj] {
				pass.Reportf(rng.Pos(),
					"range over map feeds %s in map iteration order with no intervening sort; output is nondeterministic",
					root.Name)
				return false // one diagnostic per range is enough
			}
			return true
		})
		return true
	})
}

// isSortingCall matches stdlib sorters plus local helpers named sort*
// (e.g. lsh.sortMatches), the repo's convention for shared sort logic.
func isSortingCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if isInPlaceSort(info, call) {
			return true
		}
		return strings.HasPrefix(strings.ToLower(fun.Sel.Name), "sort")
	case *ast.Ident:
		return strings.HasPrefix(strings.ToLower(fun.Name), "sort")
	}
	return false
}

// isInPlaceSort matches the stdlib in-place sorters (sort.*, slices.Sort*).
func isInPlaceSort(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			return true
		}
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort") || fn.Name() == "Reverse"
	}
	return false
}
