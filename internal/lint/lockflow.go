package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockFlow follows each mutex acquisition through the control-flow
// graph and enforces two rules on every function (and function
// literal) in the module:
//
//  1. Pairing: a sync.Mutex/RWMutex acquired in a function must be
//     released on every path out of it — explicit Unlock/RUnlock before
//     each return, a deferred release, or a release inside a deferred
//     closure. Paths that end in panic count: a panic with the lock
//     held and no pending deferred release wedges every other
//     goroutine.
//  2. No I/O under the lock: while a mutex is held, no file, network,
//     or encoding call may execute — the exact shape of the PR-6 bug
//     (Repository.Publish holding mu across graph encoding and disk
//     writes). Functions whose name ends in "Locked" run under their
//     caller's lock by repo convention and are checked for blocking
//     calls throughout.
//
// The analysis is a forward may-analysis over the CFG: at joins the
// held sets union, deferred releases are path-dependent facts, and
// release-then-return paths (the `if hit { mu.Unlock(); return }`
// idiom all over catalog and cas) are followed precisely.
var LockFlow = &Analyzer{
	Name: "lockflow",
	Doc:  "mutexes must be released on every exit path and never held across file/network/encoding calls",
	Run:  runLockFlow,
}

// heldMutex is one acquisition (or pending deferred release) fact.
type heldMutex struct {
	key  string    // identity: root object position + selector path
	name string    // display name ("c.mu")
	read bool      // RLock rather than Lock
	pos  token.Pos // acquisition site; NoPos for deferred releases
	// synthetic marks the virtual lock a *Locked function runs under;
	// it participates in the I/O rule but not the pairing rule.
	synthetic bool
}

// lockFlowState is the dataflow fact set: which mutexes may be held,
// and which deferred releases are pending on this path.
type lockFlowState struct {
	held   []heldMutex
	defers []heldMutex
}

func (s lockFlowState) clone() lockFlowState {
	return lockFlowState{
		held:   append([]heldMutex(nil), s.held...),
		defers: append([]heldMutex(nil), s.defers...),
	}
}

func mergeMutexes(a, b []heldMutex) []heldMutex {
	out := append([]heldMutex(nil), a...)
	for _, m := range b {
		found := false
		for _, o := range out {
			if o.key == m.key && o.read == m.read {
				found = true
				break
			}
		}
		if !found {
			out = append(out, m)
		}
	}
	return out
}

func mutexSetEqual(a, b []heldMutex) bool {
	if len(a) != len(b) {
		return false
	}
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i] = fmt.Sprintf("%s/%v", a[i].key, a[i].read)
		kb[i] = fmt.Sprintf("%s/%v", b[i].key, b[i].read)
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// mutexOp classifies a call as a sync.Mutex/RWMutex method.
func mutexOp(info *types.Info, call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return nil, "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// lockKeyOf builds a path-identity for the mutex expression: the root
// object's declaration position plus the printed selector path, so
// `c.mu` in one function and `c.mu` in another resolve consistently
// while two different locals named alike do not collide.
func lockKeyOf(info *types.Info, recv ast.Expr) (key, name string, ok bool) {
	root := rootIdent(recv)
	if root == nil {
		return "", "", false
	}
	obj := objOf(info, root)
	if obj == nil {
		return "", "", false
	}
	name = types.ExprString(recv)
	return fmt.Sprintf("%d:%s", obj.Pos(), name), name, true
}

// pureOSFuncs are the os package-level functions that touch no file or
// process state worth blocking on; every other os.* call counts as I/O.
var pureOSFuncs = map[string]bool{
	"IsNotExist": true, "IsExist": true, "IsPermission": true, "IsTimeout": true,
	"Getenv": true, "LookupEnv": true, "Environ": true, "Expand": true, "ExpandEnv": true,
	"Getpid": true, "Getppid": true, "Getuid": true, "Geteuid": true,
	"Getgid": true, "Getegid": true, "Getpagesize": true, "IsPathSeparator": true,
	"NewSyscallError": true, "TempDir": true,
}

// blockingPkgFuncs maps import path → the set of package-level
// functions that perform file or network I/O ("*" = all but a pure
// allowlist, used for os).
var blockingPkgFuncs = map[string]map[string]bool{
	"os": {"*": true},
	"net": {
		"Dial": true, "DialTimeout": true, "DialIP": true, "DialTCP": true,
		"DialUDP": true, "DialUnix": true, "Listen": true, "ListenIP": true,
		"ListenTCP": true, "ListenUDP": true, "ListenUnix": true, "ListenPacket": true,
		"LookupAddr": true, "LookupHost": true, "LookupIP": true, "LookupPort": true,
	},
	"net/http": {
		"Get": true, "Post": true, "PostForm": true, "Head": true,
		"ListenAndServe": true, "ListenAndServeTLS": true, "Serve": true, "ServeTLS": true,
	},
	"io": {
		"Copy": true, "CopyN": true, "CopyBuffer": true, "ReadAll": true,
	},
	"io/ioutil": {"*": true},
	"encoding/json": {
		"Marshal": true, "MarshalIndent": true, "Unmarshal": true,
	},
	"encoding/gob": {"*": true},
}

// blockingRecvTypes are the named types whose method calls count as
// I/O (or encoding) regardless of method name.
var blockingRecvTypes = map[string]map[string]bool{
	"os":            {"File": true},
	"net":           {"Conn": true, "TCPConn": true, "UDPConn": true, "UnixConn": true, "Listener": true, "TCPListener": true, "Dialer": true},
	"net/http":      {"Client": true, "Transport": true},
	"encoding/json": {"Encoder": true, "Decoder": true},
	"encoding/gob":  {"Encoder": true, "Decoder": true},
}

// blockingCall classifies a call as file/network/encoding I/O and
// names it for the diagnostic.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	path := fn.Pkg().Path()
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() == nil {
		funcs, found := blockingPkgFuncs[path]
		if !found {
			return "", false
		}
		if funcs["*"] {
			if path == "os" && pureOSFuncs[fn.Name()] {
				return "", false
			}
			return pkgBase(path) + "." + fn.Name(), true
		}
		if funcs[fn.Name()] {
			return pkgBase(path) + "." + fn.Name(), true
		}
		return "", false
	}
	if sig == nil || sig.Recv() == nil {
		return "", false
	}
	recvTypes, found := blockingRecvTypes[path]
	if !found {
		return "", false
	}
	rt := deref(sig.Recv().Type())
	var typeName string
	switch t := rt.(type) {
	case *types.Named:
		typeName = t.Obj().Name()
	default:
		return "", false
	}
	if recvTypes[typeName] {
		return pkgBase(path) + "." + typeName + "." + fn.Name(), true
	}
	return "", false
}

func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

func runLockFlow(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lockFlowFunc(pass, fd.Body, funcScopeName(fd),
				strings.HasSuffix(fd.Name.Name, "Locked"))
		}
		for _, fl := range funcLits(f) {
			lockFlowFunc(pass, fl.lit.Body, fl.name, false)
		}
	}
}

// lockFlowFunc analyzes one function body. underCallerLock seeds a
// synthetic held lock for *Locked functions so the I/O rule applies to
// their whole body.
func lockFlowFunc(pass *Pass, body *ast.BlockStmt, name string, underCallerLock bool) {
	info := pass.Pkg.Info
	g := buildCFG(body, info)

	lat := flowLattice[lockFlowState]{
		Clone: func(s lockFlowState) lockFlowState { return s.clone() },
		Merge: func(a, b lockFlowState) lockFlowState {
			return lockFlowState{
				held:   mergeMutexes(a.held, b.held),
				defers: mergeMutexes(a.defers, b.defers),
			}
		},
		Equal: func(a, b lockFlowState) bool {
			return mutexSetEqual(a.held, b.held) && mutexSetEqual(a.defers, b.defers)
		},
		Transfer: func(s lockFlowState, n ast.Node) lockFlowState {
			return lockFlowTransfer(info, s, n)
		},
	}

	entry := lockFlowState{}
	if underCallerLock {
		entry.held = append(entry.held, heldMutex{
			key: "caller", name: "the caller's lock", synthetic: true,
		})
	}
	entries := runFlow(g, entry, lat)

	replayFlow(g, entries, lat, func(n ast.Node, s lockFlowState) {
		// Rule 2: I/O while a mutex may be held.
		if len(s.held) > 0 {
			calls(n, func(call *ast.CallExpr) {
				desc, blocking := blockingCall(info, call)
				if !blocking {
					return
				}
				m := s.held[0]
				if m.synthetic {
					pass.Reportf(call.Pos(),
						"%s runs under its caller's lock (Locked suffix) but calls %s; move the I/O outside the critical section",
						name, desc)
					return
				}
				pass.Reportf(call.Pos(),
					"%s calls %s while %s is held (acquired at line %d); move the I/O outside the critical section",
					name, desc, m.name, pass.Pkg.Fset.Position(m.pos).Line)
			})
		}
		// Rule 1: exits with a lock still held.
		if _, isReturn := n.(*ast.ReturnStmt); isReturn || isPanicCall(n, info) {
			// Returns evaluate their results before the defers run, so
			// the I/O rule above already covered the result exprs; here
			// only the pairing matters.
			exit := "returns"
			if !isReturn {
				exit = "panics"
			}
			for _, m := range unreleased(s) {
				pass.Reportf(n.Pos(),
					"%s %s while %s is still held (acquired at line %d); release it on every path or defer the release",
					name, exit, m.name, pass.Pkg.Fset.Position(m.pos).Line)
			}
		}
	})

	// Falling off the end of the body is a return too.
	if s, ok := entries[g.exit]; ok {
		for _, m := range unreleased(s) {
			pass.Reportf(body.Rbrace,
				"%s reaches the end of the function while %s is still held (acquired at line %d); release it on every path or defer the release",
				name, m.name, pass.Pkg.Fset.Position(m.pos).Line)
		}
	}
}

// unreleased returns the non-synthetic held mutexes that no pending
// deferred release covers.
func unreleased(s lockFlowState) []heldMutex {
	remaining := append([]heldMutex(nil), s.defers...)
	var out []heldMutex
	for _, m := range s.held {
		if m.synthetic {
			continue
		}
		covered := false
		for i, d := range remaining {
			if d.key == m.key && d.read == m.read {
				remaining = append(remaining[:i], remaining[i+1:]...)
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, m)
		}
	}
	return out
}

// lockFlowTransfer applies one node's lock effects.
func lockFlowTransfer(info *types.Info, s lockFlowState, n ast.Node) lockFlowState {
	if def, ok := n.(*ast.DeferStmt); ok {
		s.defers = append(s.defers, deferredReleases(info, def)...)
		return s
	}
	calls(n, func(call *ast.CallExpr) {
		recv, method, ok := mutexOp(info, call)
		if !ok {
			return
		}
		key, name, ok := lockKeyOf(info, recv)
		if !ok {
			return
		}
		switch method {
		case "Lock", "TryLock":
			s.held = acquire(s.held, heldMutex{key: key, name: name, pos: call.Pos()})
		case "RLock", "TryRLock":
			s.held = acquire(s.held, heldMutex{key: key, name: name, read: true, pos: call.Pos()})
		case "Unlock":
			s.held = release(s.held, key, false)
		case "RUnlock":
			s.held = release(s.held, key, true)
		}
	})
	return s
}

// deferredReleases extracts the Unlock/RUnlock facts a defer statement
// pledges — a direct `defer mu.Unlock()` or releases inside a deferred
// closure body.
func deferredReleases(info *types.Info, def *ast.DeferStmt) []heldMutex {
	var out []heldMutex
	record := func(call *ast.CallExpr) {
		recv, method, ok := mutexOp(info, call)
		if !ok || (method != "Unlock" && method != "RUnlock") {
			return
		}
		key, name, ok := lockKeyOf(info, recv)
		if !ok {
			return
		}
		out = append(out, heldMutex{key: key, name: name, read: method == "RUnlock"})
	}
	record(def.Call)
	if lit, ok := def.Call.Fun.(*ast.FuncLit); ok {
		calls(lit.Body, record)
	}
	return out
}

func acquire(held []heldMutex, m heldMutex) []heldMutex {
	for _, h := range held {
		if h.key == m.key && h.read == m.read {
			return held // re-acquisition on a looped path; keep the first site
		}
	}
	return append(held, m)
}

func release(held []heldMutex, key string, read bool) []heldMutex {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].key == key && held[i].read == read {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}
