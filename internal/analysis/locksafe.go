package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockSafe machine-checks the engine's written lock-ordering contract
// (engine godoc "Lock ordering"; docs/architecture.md "Concurrency and
// lock ordering"): the engine-wide mu is the outermost lock, the
// expensive checkpoint rewrite and other long-blocking syscalls run
// OFF it, the checkpoint mutex is taken before mu (never inside), and
// nothing reached from below — a storage/lists/wal callback — may
// acquire mu. Concretely, inside a critical section of Engine.mu
// (lexical Lock/RLock…Unlock spans, plus the bodies of functions whose
// name ends in "Locked", the package's caller-holds-mu convention):
//
//   - no blocking rewrite/sync syscalls: lists.SaveIndex/SaveDataset,
//     wal.SyncFile/SyncDir, storage.VerifyChecksum, (*os.File)
//     Sync/Write*, os.WriteFile/Rename, (*wal.Writer).Sync,
//     (net.Conn).Write, time.Sleep. (The WAL append itself is
//     deliberately under the lock — commit order is the log order —
//     and the cheap manifest publish steps are too; neither is in the
//     deny set.)
//   - no re-acquisition of Engine.mu (self-deadlock) and no call to an
//     Engine method that itself acquires mu (the analyzer derives that
//     set from the package's own bodies);
//   - no acquisition of the checkpoint mutex (ckptMu is ordered BEFORE
//     mu; taking it under mu inverts the documented order);
//
// and — in any context — a function literal passed into a
// storage/lists/wal API must not acquire Engine.mu: callbacks run
// below the engine layer, where taking the outermost lock inverts the
// order (the PR 3 class of deadlock).
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc:  "no blocking syscalls, lock re-entry or lock-order inversion under the engine write lock",
	Run:  runLockSafe,
}

const rewriteUnderLock = "the checkpoint rewrite belongs in the unlocked phase (see durable.go checkpoint())"

// lockDenyFuncs are package-level functions that block on disk or the
// clock: pkg path (repo-suffix matched) → function → why.
var lockDenyFuncs = map[string]map[string]string{
	"internal/lists":   {"SaveIndex": rewriteUnderLock, "SaveDataset": rewriteUnderLock, "SaveDatasetTimed": rewriteUnderLock},
	"internal/wal":     {"SyncFile": "fsync blocks every queued query", "SyncDir": "fsync blocks every queued query"},
	"internal/storage": {"VerifyChecksum": "a full-file scan blocks every queued query"},
	"os":               {"WriteFile": "file writes block every queued query", "Rename": "directory syscalls block every queued query"},
	"time":             {"Sleep": "sleeping under the engine lock stalls all queries"},
}

// lockDenyMethods are methods that block: pkg path → type → method →
// why.
var lockDenyMethods = map[string]map[string]map[string]string{
	"os": {"File": {
		"Sync":        "fsync blocks every queued query",
		"Write":       "file writes block every queued query",
		"WriteAt":     "file writes block every queued query",
		"WriteString": "file writes block every queued query",
	}},
	"internal/wal": {"Writer": {
		"Sync": "an explicit WAL fsync belongs outside the lock (Append's own sync policy is the documented exception)",
	}},
	"net": {"Conn": {
		"Write": "network sends under the engine lock stall all queries on a slow peer",
	}},
}

// belowEnginePkgs are the layers below the engine: a callback passed
// into them must never take the engine lock.
var belowEnginePkgs = []string{"internal/storage", "internal/lists", "internal/wal"}

// muKind classifies an Engine.mu method call.
type muKind int

const (
	muNone muKind = iota
	muLock
	muRLock
	muUnlock
	muRUnlock
)

func runLockSafe(pass *Pass) error {
	if !pathIs(pass.Pkg, "internal/engine") {
		return nil
	}
	ls := &lockSafe{pass: pass, lockTakers: map[string]bool{}}
	// Pre-pass: Engine methods that acquire mu themselves. Calling one
	// while holding mu deadlocks (Lock) or risks it (RLock behind a
	// queued writer).
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil && ls.isEngineMethod(fn) {
				if ls.acquiresMu(fn.Body) {
					ls.lockTakers[fn.Name.Name] = true
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				held := strings.HasSuffix(fn.Name.Name, "Locked")
				ls.walkStmts(fn.Body.List, held)
				ls.checkCallbacks(fn.Body)
			}
		}
	}
	return nil
}

type lockSafe struct {
	pass       *Pass
	lockTakers map[string]bool
}

// isEngineMethod reports whether fn's receiver is (a pointer to) the
// package's Engine type.
func (ls *lockSafe) isEngineMethod(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	t := ls.pass.TypesInfo.TypeOf(fn.Recv.List[0].Type)
	return ls.isEngineType(t)
}

func (ls *lockSafe) isEngineType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Engine" && named.Obj().Pkg() == ls.pass.Pkg
}

// engineMuCall classifies expr as an Engine.mu lock-method call.
func (ls *lockSafe) engineMuCall(call *ast.CallExpr) muKind {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return muNone
	}
	muSel, ok := sel.X.(*ast.SelectorExpr)
	if !ok || muSel.Sel.Name != "mu" {
		return muNone
	}
	if !ls.isEngineType(ls.pass.TypesInfo.TypeOf(muSel.X)) {
		return muNone
	}
	switch sel.Sel.Name {
	case "Lock":
		return muLock
	case "RLock":
		return muRLock
	case "Unlock":
		return muUnlock
	case "RUnlock":
		return muRUnlock
	}
	return muNone
}

// acquiresMu reports whether the body lexically acquires Engine.mu
// (function literals excluded: a closure acquires when called, not
// when defined).
func (ls *lockSafe) acquiresMu(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if k := ls.engineMuCall(call); k == muLock || k == muRLock {
				found = true
			}
		}
		return !found
	})
	return found
}

// walkStmts scans a statement list tracking whether Engine.mu is held.
// Branch bodies get a value copy of the state: a branch that unlocks
// and returns does not clear the fall-through path's hold.
func (ls *lockSafe) walkStmts(stmts []ast.Stmt, held bool) {
	for _, stmt := range stmts {
		held = ls.walkStmt(stmt, held)
	}
}

func (ls *lockSafe) walkStmt(stmt ast.Stmt, held bool) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			switch ls.engineMuCall(call) {
			case muLock, muRLock:
				if held {
					ls.pass.Reportf(call.Pos(), "Engine.mu acquired while already held: self-deadlock (Lock) or writer-starvation deadlock (RLock behind a queued writer)")
				}
				return true
			case muUnlock, muRUnlock:
				return false
			}
		}
		ls.scanExpr(s.X, held)
	case *ast.DeferStmt:
		switch ls.engineMuCall(s.Call) {
		case muUnlock, muRUnlock:
			// Held until return; deferred calls scheduled AFTER this
			// one run before the unlock, so scanning continues with
			// held state unchanged.
			return held
		}
		ls.scanExpr(s.Call, held)
	case *ast.BlockStmt:
		ls.walkStmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			ls.walkStmt(s.Init, held)
		}
		ls.scanExpr(s.Cond, held)
		ls.walkStmts(s.Body.List, held)
		if s.Else != nil {
			ls.walkStmt(s.Else, held)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			ls.walkStmt(s.Init, held)
		}
		ls.scanExpr(s.Cond, held)
		if s.Post != nil {
			ls.walkStmt(s.Post, held)
		}
		ls.walkStmts(s.Body.List, held)
	case *ast.RangeStmt:
		ls.scanExpr(s.X, held)
		ls.walkStmts(s.Body.List, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			ls.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			ls.scanExpr(s.Tag, held)
		}
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				ls.walkStmts(clause.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			ls.walkStmt(s.Init, held)
		}
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				ls.walkStmts(clause.Body, held)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CommClause); ok {
				ls.walkStmts(clause.Body, held)
			}
		}
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			ls.scanExpr(rhs, held)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			ls.scanExpr(r, held)
		}
	case *ast.GoStmt:
		// A goroutine launched under the lock runs concurrently, not
		// under it; its body is covered by the callback rule only.
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt,
		*ast.LabeledStmt, *ast.SendStmt:
		if l, ok := stmt.(*ast.LabeledStmt); ok {
			return ls.walkStmt(l.Stmt, held)
		}
	}
	return held
}

// scanExpr reports deny-set calls, mu re-entry and ckptMu inversion
// inside an expression evaluated while mu is held. Function literals
// are skipped: they run when called, not where written.
func (ls *lockSafe) scanExpr(e ast.Expr, held bool) {
	if !held || e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch ls.engineMuCall(call) {
		case muLock, muRLock:
			ls.pass.Reportf(call.Pos(), "Engine.mu acquired while already held: self-deadlock (Lock) or writer-starvation deadlock (RLock behind a queued writer)")
			return true
		case muUnlock, muRUnlock:
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if inner, ok := sel.X.(*ast.SelectorExpr); ok && inner.Sel.Name == "ckptMu" &&
				(sel.Sel.Name == "Lock" || sel.Sel.Name == "Unlock") {
				if sel.Sel.Name == "Lock" {
					ls.pass.Reportf(call.Pos(), "ckptMu acquired under Engine.mu: the documented order is ckptMu BEFORE mu (checkpoints span lock regions)")
				}
				return true
			}
		}
		ls.checkDenyCall(call)
		return true
	})
}

// checkDenyCall reports a call that must not run under the lock.
func (ls *lockSafe) checkDenyCall(call *ast.CallExpr) {
	obj := calleeObject(ls.pass, call)
	if obj == nil {
		return
	}
	// Engine methods that take mu themselves.
	if ls.lockTakers[obj.Name()] {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && ls.isEngineType(ls.pass.TypesInfo.TypeOf(sel.X)) {
			ls.pass.Reportf(call.Pos(), "Engine.%s acquires Engine.mu itself; calling it with mu held deadlocks", obj.Name())
			return
		}
	}
	if obj.Pkg() == nil {
		return
	}
	// Package-level deny functions.
	for pkgPath, funcs := range lockDenyFuncs {
		if !pathIs(obj.Pkg(), pkgPath) {
			continue
		}
		if why, ok := funcs[obj.Name()]; ok {
			ls.pass.Reportf(call.Pos(), "%s.%s under the engine lock: %s", obj.Pkg().Name(), obj.Name(), why)
			return
		}
	}
	// Deny methods, matched by receiver type.
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection := ls.pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return
	}
	rt := selection.Recv()
	if ptr, isPtr := rt.(*types.Pointer); isPtr {
		rt = ptr.Elem()
	}
	named, isNamed := rt.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return
	}
	for pkgPath, typeMap := range lockDenyMethods {
		if !pathIs(named.Obj().Pkg(), pkgPath) {
			continue
		}
		if why, ok := typeMap[named.Obj().Name()][sel.Sel.Name]; ok {
			ls.pass.Reportf(call.Pos(), "(%s.%s).%s under the engine lock: %s", named.Obj().Pkg().Name(), named.Obj().Name(), sel.Sel.Name, why)
			return
		}
	}
}

// checkCallbacks flags function literals passed into the storage/
// lists/wal layer that acquire Engine.mu: code running below the
// engine must not take the outermost lock (inverted order).
func (ls *lockSafe) checkCallbacks(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObject(ls.pass, call)
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		below := false
		for _, p := range belowEnginePkgs {
			if pathIs(obj.Pkg(), p) {
				below = true
				break
			}
		}
		if !below {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := ast.Unparen(arg).(*ast.FuncLit)
			if !ok {
				continue
			}
			if ls.acquiresMuInLit(lit) {
				ls.pass.Reportf(lit.Pos(), "callback passed into %s acquires Engine.mu: callbacks run below the engine layer, and mu is the outermost lock (inverted lock order)", obj.Pkg().Name())
			}
		}
		return true
	})
}

// acquiresMuInLit reports whether the literal's body acquires
// Engine.mu (nested literals included — they still run below).
func (ls *lockSafe) acquiresMuInLit(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if k := ls.engineMuCall(call); k == muLock || k == muRLock {
				found = true
			}
		}
		return !found
	})
	return found
}
