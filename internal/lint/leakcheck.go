package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LeakCheck follows operating-system resources through the control-flow
// graph and demands that every path out of the acquiring function
// disposes of them:
//
//   - a *os.File from os.Open/Create/CreateTemp/OpenFile, a net.Conn or
//     net.Listener from net.Dial*/Listen*, and an *http.Response from
//     http.Get or (*http.Client).Do must be Closed (Body.Close for
//     responses) on every path, returned to the caller, or handed to
//     another function (ownership transfer) — but not lent: a callee
//     that takes the resource as an io.Reader or io.Writer only reads
//     or writes it, and a callback (a function value, not a declared
//     function) only borrows it, so neither call relieves the caller
//     of the Close;
//   - assigning the resource to `_` discards it open;
//   - a `go func` in a library (non-main) package must be ctx-bounded
//     or joined: its body must consume a context, signal a
//     sync.WaitGroup, or send on a channel of the spawning function —
//     otherwise nothing bounds its lifetime.
//
// The error-return idiom is followed precisely: after
// `f, err := os.Open(p)`, the fact only lives on branches where err is
// nil, so `if err != nil { return err }` never counts as a leak.
var LeakCheck = &Analyzer{
	Name: "leakcheck",
	Doc:  "OS resources must be closed on every path; library goroutines must be ctx-bounded or joined",
	Run:  runLeakCheck,
}

// leakFact tracks one open resource bound to a variable.
type leakFact struct {
	obj    types.Object // the variable holding the resource
	errObj types.Object // the paired error result, if any
	what   string       // acquiring call, for diagnostics ("os.CreateTemp")
	pos    token.Pos    // acquisition site
	// maybeNil: the paired error has not been tested yet, so the
	// resource may be nil on this path. Refined away by err-nil edges.
	maybeNil bool
}

// leakState is the set of live (unclosed) resources on a path, keyed
// by variable object.
type leakState map[types.Object]*leakFact

func (s leakState) clone() leakState {
	out := make(leakState, len(s))
	for k, v := range s {
		c := *v
		out[k] = &c
	}
	return out
}

// resourceCall classifies a call that acquires a closable resource.
func resourceCall(info *types.Info, call *ast.CallExpr) (what string, isResponse bool, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", false, false
	}
	path := fn.Pkg().Path()
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() == nil {
		switch path {
		case "os":
			switch name {
			case "Open", "Create", "CreateTemp", "OpenFile":
				return "os." + name, false, true
			}
		case "net":
			switch name {
			case "Dial", "DialTimeout", "Listen", "ListenPacket", "DialTCP", "DialUDP", "DialUnix", "ListenTCP", "ListenUDP", "ListenUnix":
				return "net." + name, false, true
			}
		case "net/http":
			switch name {
			case "Get", "Post", "PostForm", "Head":
				return "http." + name, true, true
			}
		}
		return "", false, false
	}
	if sig == nil || sig.Recv() == nil {
		return "", false, false
	}
	if path != "net/http" {
		return "", false, false
	}
	rt, isNamed := deref(sig.Recv().Type()).(*types.Named)
	if !isNamed || rt.Obj().Name() != "Client" {
		return "", false, false
	}
	switch name {
	case "Do", "Get", "Post", "PostForm", "Head":
		return "http.Client." + name, true, true
	}
	return "", false, false
}

func runLeakCheck(pass *Pass) {
	isMain := pass.Pkg.Types != nil && pass.Pkg.Types.Name() == "main"
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			leakCheckFunc(pass, fd.Body, funcScopeName(fd))
			checkDiscards(pass, fd.Body)
			if !isMain {
				checkGoroutines(pass, fd.Body, funcScopeName(fd))
			}
		}
		for _, fl := range funcLits(f) {
			leakCheckFunc(pass, fl.lit.Body, fl.name)
			checkDiscards(pass, fl.lit.Body)
		}
	}
}

// leakCheckFunc runs the resource-leak dataflow over one body.
func leakCheckFunc(pass *Pass, body *ast.BlockStmt, name string) {
	info := pass.Pkg.Info
	g := buildCFG(body, info)

	lat := flowLattice[leakState]{
		Clone: func(s leakState) leakState { return s.clone() },
		Merge: func(a, b leakState) leakState {
			for k, v := range b {
				if av, ok := a[k]; ok {
					av.maybeNil = av.maybeNil || v.maybeNil
				} else {
					a[k] = v
				}
			}
			return a
		},
		Equal: func(a, b leakState) bool {
			if len(a) != len(b) {
				return false
			}
			for k, av := range a {
				bv, ok := b[k]
				if !ok || av.maybeNil != bv.maybeNil {
					return false
				}
			}
			return true
		},
		Transfer: func(s leakState, n ast.Node) leakState {
			return leakTransfer(pass, info, s, n)
		},
		Edge: leakEdge(info),
	}

	entries := runFlow(g, leakState{}, lat)

	// One report per acquisition site, at the site, naming the first
	// leaking exit.
	reported := make(map[token.Pos]bool)
	report := func(s leakState, exitPos token.Pos, how string) {
		facts := make([]*leakFact, 0, len(s))
		for _, f := range s {
			facts = append(facts, f)
		}
		sort.Slice(facts, func(i, j int) bool { return facts[i].pos < facts[j].pos })
		for _, f := range facts {
			if f.maybeNil || reported[f.pos] {
				continue
			}
			reported[f.pos] = true
			pass.Reportf(f.pos,
				"%s: the %s result is not closed on the %s path at line %d; close it on every path or defer the Close",
				name, f.what, how, pass.Pkg.Fset.Position(exitPos).Line)
		}
	}

	replayFlow(g, entries, lat, func(n ast.Node, s leakState) {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			// Ownership transfer: results returning the resource keep
			// it alive for the caller.
			live := s.clone()
			for _, res := range ret.Results {
				killUses(info, live, res)
			}
			report(live, ret.Pos(), "return")
			return
		}
		if isPanicCall(n, info) {
			report(s, n.Pos(), "panic")
		}
	})
	if s, ok := entries[g.exit]; ok {
		report(s, body.Rbrace, "fall-through")
	}
}

// checkDiscards reports acquisitions whose result is dropped where it
// stands — a bare expression statement or a `_` target — so nothing
// can ever close the resource. Syntactic, so it runs once per body
// (function literals are scanned by their own pass).
func checkDiscards(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if what, _, ok := resourceCall(info, call); ok {
					pass.Reportf(call.Pos(),
						"result of %s is discarded; the resource it opens can never be closed", what)
				}
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 || len(n.Lhs) == 0 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			what, _, isRes := resourceCall(info, call)
			if !isRes {
				return true
			}
			if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
				pass.Reportf(call.Pos(),
					"result of %s is assigned to _; the resource it opens can never be closed", what)
			}
		}
		return true
	})
}

// leakTransfer applies one node's effect to the live-resource set.
func leakTransfer(pass *Pass, info *types.Info, s leakState, n ast.Node) leakState {
	switch n := n.(type) {
	case *ast.AssignStmt:
		// Closes first, then borrow-aware escape kills on the RHS, then
		// reassignment kills, then the new fact.
		calls(n, func(call *ast.CallExpr) { applyClose(info, s, call) })
		for _, rhs := range n.Rhs {
			killTransfers(info, s, rhs)
		}
		for _, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := objOf(info, id); obj != nil {
					delete(s, obj)
				}
			}
		}
		// Generate a fact for `v, err := acquire(...)`.
		if len(n.Rhs) == 1 {
			if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
				bindResource(info, s, n.Lhs, call)
			}
		}
		return s

	case *ast.DeferStmt:
		// A deferred Close covers every exit reached from here on.
		applyClose(info, s, n.Call)
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			calls(lit.Body, func(call *ast.CallExpr) { applyClose(info, s, call) })
		}
		return s

	default:
		applyNode(info, s, n)
		return s
	}
}

// applyNode processes closes first, then treats any remaining use of a
// tracked variable as an ownership transfer (killing the fact) — except
// borrowing method calls on the resource itself.
func applyNode(info *types.Info, s leakState, n ast.Node) {
	calls(n, func(call *ast.CallExpr) { applyClose(info, s, call) })
	killTransfers(info, s, n)
}

// bindResource creates the fact for an acquisition's assignment.
func bindResource(info *types.Info, s leakState, lhs []ast.Expr, call *ast.CallExpr) {
	what, _, ok := resourceCall(info, call)
	if !ok || len(lhs) == 0 {
		return
	}
	var errObj types.Object
	if len(lhs) == 2 {
		if id, ok := lhs[1].(*ast.Ident); ok && id.Name != "_" {
			if obj := objOf(info, id); obj != nil && isErrorType(obj.Type()) {
				errObj = obj
			}
		}
	}
	id, ok := lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		// Field/index targets escape immediately; `_` targets are
		// reported by the discard prepass.
		return
	}
	obj := objOf(info, id)
	if obj == nil {
		return
	}
	s[obj] = &leakFact{
		obj: obj, errObj: errObj, what: what, pos: call.Pos(),
		maybeNil: errObj != nil,
	}
}

// applyClose kills the fact for `v.Close()` and `resp.Body.Close()`.
func applyClose(info *types.Info, s leakState, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return
	}
	target := sel.X
	// resp.Body.Close(): unwrap the Body selector to reach resp.
	if inner, ok := target.(*ast.SelectorExpr); ok && inner.Sel.Name == "Body" {
		target = inner.X
	}
	id, ok := target.(*ast.Ident)
	if !ok {
		return
	}
	if obj := objOf(info, id); obj != nil {
		delete(s, obj)
	}
}

// killTransfers kills facts whose variable escapes through n: passed as
// a call argument, captured by a closure, sent on a channel, stored in
// a composite — any use that is not a method call on the resource
// itself (a borrow) or a plain nil comparison.
func killTransfers(info *types.Info, s leakState, n ast.Node) {
	if len(s) == 0 {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.SelectorExpr:
			// A method call or field read on the resource is a borrow;
			// do not descend into the base identifier.
			if id, ok := m.X.(*ast.Ident); ok {
				if obj := objOf(info, id); obj != nil {
					if _, tracked := s[obj]; tracked {
						return false
					}
				}
			}
		case *ast.BinaryExpr:
			// Comparisons (v == nil) are not transfers.
			if isNilComparison(m) {
				return false
			}
		case *ast.CallExpr:
			// A resource lent to the callee stays the caller's; the
			// rest of the call is inspected as usual.
			lent := lentArgs(info, m)
			if lent == nil {
				return true
			}
			killTransfers(info, s, m.Fun)
			for i, arg := range m.Args {
				if _, isIdent := ast.Unparen(arg).(*ast.Ident); !isIdent || !lent[i] {
					killTransfers(info, s, arg)
				}
			}
			return false
		case *ast.Ident:
			if obj := objOf(info, m); obj != nil {
				delete(s, obj)
			}
		}
		return true
	})
}

// lentArgs reports which of call's arguments the callee only borrows:
// every argument of a call through a function value, and those bound to
// an io.Reader or io.Writer parameter. It is nil when none is.
func lentArgs(info *types.Info, call *ast.CallExpr) []bool {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil // a conversion
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	callback := false
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		_, callback = objOf(info, fun).(*types.Var)
	case *ast.SelectorExpr:
		_, callback = objOf(info, fun.Sel).(*types.Var)
	}
	var lent []bool
	params := sig.Params()
	for i := range call.Args {
		if params.Len() == 0 {
			break
		}
		var t types.Type
		if at := min(i, params.Len()-1); sig.Variadic() && at == params.Len()-1 && !call.Ellipsis.IsValid() {
			t = params.At(at).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			t = params.At(i).Type()
		} else {
			break
		}
		if callback || isIOReaderWriter(t) {
			if lent == nil {
				lent = make([]bool, len(call.Args))
			}
			lent[i] = true
		}
	}
	return lent
}

// isIOReaderWriter reports whether t is io.Reader or io.Writer.
func isIOReaderWriter(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "io" && (obj.Name() == "Reader" || obj.Name() == "Writer")
}

// killUses removes facts for every tracked identifier appearing in e,
// except as an argument lent to a callee (lentArgs).
func killUses(info *types.Info, s leakState, e ast.Expr) {
	if e == nil || len(s) == 0 {
		return
	}
	ast.Inspect(e, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			lent := lentArgs(info, m)
			if lent == nil {
				return true
			}
			killUses(info, s, m.Fun)
			for i, arg := range m.Args {
				if _, isIdent := ast.Unparen(arg).(*ast.Ident); !isIdent || !lent[i] {
					killUses(info, s, arg)
				}
			}
			return false
		case *ast.Ident:
			if obj := objOf(info, m); obj != nil {
				delete(s, obj)
			}
		}
		return true
	})
}

func isNilComparison(b *ast.BinaryExpr) bool {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return isNil(b.X) || isNil(b.Y)
}

// leakEdge refines facts along err-test branches: on the branch where
// the paired error is non-nil the resource is nil (drop the fact), and
// on the nil branch the resource is definitely live.
func leakEdge(info *types.Info) func(leakState, cfgEdge) (leakState, bool) {
	return func(s leakState, e cfgEdge) (leakState, bool) {
		if e.cond == nil {
			return s, true
		}
		bin, ok := e.cond.(*ast.BinaryExpr)
		if !ok || !isNilComparison(bin) {
			return s, true
		}
		operand := bin.X
		if id, isId := operand.(*ast.Ident); isId && id.Name == "nil" {
			operand = bin.Y
		}
		id, ok := operand.(*ast.Ident)
		if !ok {
			return s, true
		}
		obj := objOf(info, id)
		if obj == nil {
			return s, true
		}
		// errIsNil: what this edge proves about the compared value.
		errIsNil := (bin.Op == token.EQL) == e.truth
		for k, f := range s {
			if f.errObj != obj {
				continue
			}
			if errIsNil {
				f.maybeNil = false
			} else {
				delete(s, k)
			}
		}
		return s, true
	}
}

// checkGoroutines enforces the bounded-goroutine rule on every `go`
// statement in a library function.
func checkGoroutines(pass *Pass, body *ast.BlockStmt, name string) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := gs.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true // `go m.run()`: the callee's own body is analyzed on its own
		}
		if goroutineBounded(info, gs, lit) {
			return true
		}
		pass.Reportf(gs.Pos(),
			"%s starts a goroutine that is neither ctx-bounded nor joined; have it consume a context, signal a WaitGroup, or send on a channel the spawner receives from",
			name)
		return true
	})
}

// goroutineBounded reports whether the goroutine's lifetime is visibly
// bounded: it consumes a context.Context, signals a sync.WaitGroup, or
// sends on a channel (the join-channel idiom). Arguments passed into
// the literal count — `go func(ctx context.Context) {...}(ctx)` is
// bounded even before the body reads it.
func goroutineBounded(info *types.Info, gs *ast.GoStmt, lit *ast.FuncLit) bool {
	bounded := false
	see := func(t types.Type) {
		switch {
		case isContextType(t), isWaitGroupType(t):
			bounded = true
		}
	}
	for _, arg := range gs.Call.Args {
		if tv, ok := info.Types[arg]; ok {
			see(tv.Type)
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := objOf(info, n); obj != nil {
				see(obj.Type())
			}
		case *ast.SendStmt:
			bounded = true // join-channel idiom: the spawner receives the send
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
					switch fn.Pkg().Path() {
					case "sync", "context":
						bounded = true
					}
				}
			}
		}
		return !bounded
	})
	return bounded
}

func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func isWaitGroupType(t types.Type) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}
