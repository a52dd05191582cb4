package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SnapCheck enforces the catalog's publishing contract: a published
// catalog.Snapshot is immutable. Two rules:
//
//  1. Field stores: no assignment through a Snapshot's fields (or
//     through map/slice elements reached from them), anywhere, with no
//     exception. Successive snapshots share the tables and lists a
//     commit did not change, so a store through one would reach every
//     snapshot that shares the target. The commit path clones a table
//     into a local before writing to it and builds the next snapshot
//     as one composite literal, which is not a store.
//
//  2. Derived data (outside internal/catalog): values returned by
//     Snapshot methods — its own or those of the semantic version it
//     embeds — alias published data. Writing an element, appending to,
//     or in-place sorting a snapshot-derived slice is flagged — copy
//     first. Tracking is intra-procedural: a variable assigned from a
//     Snapshot method call is tainted until reassigned from something
//     else.
var SnapCheck = &Analyzer{
	Name: "snapcheck",
	Doc:  "published catalog.Snapshot data must never be mutated",
	Run:  runSnapCheck,
}

const snapPkgSuffix = "internal/catalog"

func runSnapCheck(pass *Pass) {
	inCatalog := pass.Pkg.Path == snapPkgSuffix ||
		strings.HasSuffix(pass.Pkg.Path, "/"+snapPkgSuffix)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSnapshotWrites(pass, fd)
			if !inCatalog {
				checkDerivedWrites(pass, fd)
			}
		}
	}
}

// isSnapshotType reports whether t is catalog.Snapshot (or a pointer
// to it).
func isSnapshotType(t types.Type) bool {
	return t != nil && namedType(t, snapPkgSuffix, "Snapshot")
}

// snapshotBase walks an lvalue chain (selectors, index expressions)
// and reports whether it passes through a Snapshot value — i.e. the
// write lands in data reachable from a Snapshot's fields.
func snapshotBase(info *types.Info, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if tv, ok := info.Types[x.X]; ok && isSnapshotType(tv.Type) {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// checkSnapshotWrites flags rule 1: assignments through Snapshot
// fields.
func checkSnapshotWrites(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	report := func(lhs ast.Expr) {
		if snapshotBase(info, lhs) {
			pass.Reportf(lhs.Pos(),
				"%s writes through catalog.Snapshot data; snapshots are immutable after publish",
				funcScopeName(fd))
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				report(lhs)
			}
		case *ast.IncDecStmt:
			report(st.X)
		case *ast.UnaryExpr:
			// &s.field escapes a mutable reference to snapshot innards.
			if st.Op == token.AND && snapshotBase(info, st.X) {
				pass.Reportf(st.Pos(),
					"%s takes the address of catalog.Snapshot data; snapshots are immutable after publish",
					funcScopeName(fd))
			}
		}
		return true
	})
}

// snapshotMethodCall reports whether the expression is a method call
// with a catalog.Snapshot receiver (snap.Lookup(...), snap.IDs(), ...).
func snapshotMethodCall(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	return isSnapshotType(selection.Recv())
}

// checkDerivedWrites flags rule 2: mutation of snapshot-derived slices
// and maps outside internal/catalog.
func checkDerivedWrites(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	tainted := make(map[types.Object]bool)

	// taintRoot walks an expression chain down to its base; the chain
	// is tainted if any level is a Snapshot method call or the base is
	// a tainted variable.
	taintRoot := func(e ast.Expr) bool {
		for {
			if snapshotMethodCall(info, e) {
				return true
			}
			switch x := e.(type) {
			case *ast.Ident:
				obj := objOf(info, x)
				return obj != nil && tainted[obj]
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			default:
				return false
			}
		}
	}

	// ast.Inspect visits statements in source order, which is enough
	// for an intra-procedural, straight-line taint approximation.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			// Flag element/field writes through tainted roots first,
			// then update taint from this statement's RHS.
			for _, lhs := range st.Lhs {
				if _, isIdent := lhs.(*ast.Ident); isIdent {
					continue // rebinding the variable itself is fine
				}
				if taintRoot(lhs) {
					pass.Reportf(lhs.Pos(),
						"%s writes into data derived from a catalog.Snapshot; copy before mutating",
						funcScopeName(fd))
				}
			}
			fromSnap := len(st.Rhs) == 1 && snapshotMethodCall(info, st.Rhs[0])
			for _, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := objOf(info, id)
				if obj == nil {
					continue
				}
				if fromSnap && !isErrorType(obj.Type()) {
					tainted[obj] = true
				} else {
					delete(tainted, obj) // reassigned from elsewhere
				}
			}
		case *ast.CallExpr:
			if fn, ok := st.Fun.(*ast.Ident); ok && fn.Name == "append" &&
				len(st.Args) > 0 && taintRoot(st.Args[0]) {
				pass.Reportf(st.Pos(),
					"%s appends to a snapshot-derived slice, which may write into the snapshot's backing array; copy first",
					funcScopeName(fd))
			}
			if isInPlaceSort(info, st) && len(st.Args) > 0 && taintRoot(st.Args[0]) {
				pass.Reportf(st.Pos(),
					"%s sorts a snapshot-derived slice in place; copy before sorting",
					funcScopeName(fd))
			}
		}
		return true
	})
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
