package lint

import "go/ast"

// CtxCheck enforces the context conventions for library packages:
//
//   - a function that takes a context.Context must take it as the
//     first parameter (after the receiver), so cancellation plumbs
//     uniformly through call chains;
//   - library code must not mint context.Background() or
//     context.TODO(): roots belong in package main (and tests), and a
//     library that fabricates its own root silently detaches the work
//     from the caller's deadline and cancellation.
//
// There is no allowance for compatibility shims: a ctx-less name
// wrapping its ctx-first replacement over context.Background() is a
// finding, deprecation notice or not.
//
// Package main is exempt from both rules, and test files are never
// loaded by the driver.
var CtxCheck = &Analyzer{
	Name: "ctxcheck",
	Doc:  "libraries thread ctx as the first parameter and never mint Background/TODO",
	Run:  runCtxCheck,
}

func runCtxCheck(pass *Pass) {
	if pass.Pkg.Types.Name() == "main" {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				checkCtxPosition(pass, x.Type, funcScopeName(x))
			case *ast.FuncLit:
				checkCtxPosition(pass, x.Type, "function literal")
			case *ast.CallExpr:
				for _, name := range [...]string{"Background", "TODO"} {
					if pkgFunc(info, x, "context", name) {
						pass.Reportf(x.Pos(),
							"context.%s in a library package; accept a ctx from the caller instead",
							name)
					}
				}
			}
			return true
		})
	}
}

// checkCtxPosition flags context.Context parameters that are not the
// first parameter.
func checkCtxPosition(pass *Pass, ft *ast.FuncType, where string) {
	if ft.Params == nil {
		return
	}
	pos := 0
	for _, field := range ft.Params.List {
		tv, ok := pass.Pkg.Info.Types[field.Type]
		isCtx := ok && namedType(tv.Type, "context", "Context")
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isCtx && pos != 0 {
			pass.Reportf(field.Pos(),
				"%s takes context.Context at position %d; ctx must be the first parameter",
				where, pos+1)
		}
		pos += n
	}
}
