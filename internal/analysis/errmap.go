package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// ErrMap enforces the sentinel-error discipline the transport layer's
// typed-error→HTTP-status mapping rests on (engine godoc,
// docs/operations.md): ErrInvalid→400, ErrFenced/ErrImmutable→409,
// ErrQuorum→503. Every layer wraps sentinels with fmt.Errorf("...: %w"),
// so:
//
//   - comparing an error against a package-level Err* sentinel (or a
//     syscall.Errno constant) with == or != silently stops matching the
//     moment anyone adds context; errors.Is is required. Switch
//     statements over an error value are the same bug in other clothes.
//   - in internal/server, ad-hoc status writing (net/http's http.Error,
//     or a literal 500 WriteHeader) outside the central
//     httpError/engineError/writeJSON helpers bypasses the mapping
//     table entirely, which is exactly how PR 3's panic-through-
//     httptest class of bug survives.
//
// The table covers the shard coordinator's front too: it is served by
// internal/server over an adapter (shard.NewHandler), which tags shard
// unavailability server.ErrUpstream→502, so internal/shard has no
// status writer of its own left to guard.
var ErrMap = &Analyzer{
	Name: "errmap",
	Doc:  "require errors.Is for wrapped sentinels and route server statuses through the central error mapping",
	Run:  runErrMap,
}

// serverErrorHelpers are internal/server's designated status writers;
// status plumbing inside them is the mapping, not a bypass of it.
var serverErrorHelpers = map[string]bool{"httpError": true, "engineError": true, "writeJSON": true}

func runErrMap(pass *Pass) error {
	inServer := pathIs(pass.Pkg, "internal/server")
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok {
				errMapFunc(pass, fn, inServer)
			}
		}
	}
	return nil
}

func errMapFunc(pass *Pass, fn *ast.FuncDecl, inServer bool) {
	if fn.Body == nil {
		return
	}
	inHelper := serverErrorHelpers[fn.Name.Name]
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return true
			}
			checkSentinelCompare(pass, n.Pos(), n.X, n.Y)
			checkSentinelCompare(pass, n.Pos(), n.Y, n.X)
		case *ast.SwitchStmt:
			if n.Tag == nil {
				return true
			}
			if t := pass.TypesInfo.TypeOf(n.Tag); t == nil || !isErrorType(t) {
				return true
			}
			for _, cl := range n.Body.List {
				cc, ok := cl.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					if name, ok := sentinelErrorVar(pass, e); ok {
						pass.Reportf(e.Pos(), "switch over an error value matches %s by identity; wrapped sentinels require errors.Is", name)
					}
				}
			}
		case *ast.CallExpr:
			if !inServer {
				return true
			}
			if obj := calleeObject(pass, n); obj != nil && obj.Pkg() != nil &&
				obj.Pkg().Path() == "net/http" && obj.Name() == "Error" {
				pass.Reportf(n.Pos(), "net/http.Error bypasses the JSON error body and the typed-error→status mapping; use httpError or engineError")
				return true
			}
			if inHelper {
				return true
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "WriteHeader" && len(n.Args) == 1 {
				if tv, ok := pass.TypesInfo.Types[n.Args[0]]; ok && tv.Value != nil {
					if code, ok := constant.Int64Val(tv.Value); ok && code >= 500 {
						pass.Reportf(n.Pos(), "literal %d status outside the error-mapping helpers; engine failures must flow through engineError so sentinel types keep their documented statuses", code)
					}
				}
			}
		}
		return true
	})
}

// checkSentinelCompare reports x ==/!= y when x is a sentinel error and
// y is not the nil literal. An Errno constant is only a sentinel when
// the other side is interface-typed (two raw Errno values compare
// fine); an Err* variable always is.
func checkSentinelCompare(pass *Pass, pos token.Pos, x, y ast.Expr) {
	name, ok := sentinelErrorVar(pass, x)
	if !ok {
		return
	}
	if tv, ok := pass.TypesInfo.Types[y]; ok && tv.IsNil() {
		return
	}
	if strings.HasPrefix(name, "syscall.") {
		if t := pass.TypesInfo.TypeOf(y); t == nil || !isErrorType(t) {
			return
		}
	}
	pass.Reportf(pos, "comparison with sentinel %s by identity; every layer wraps sentinels (%%w), so use errors.Is", name)
}

// sentinelErrorVar reports whether e names a sentinel: a package-level
// error variable named Err*, or a syscall.Errno constant (EWOULDBLOCK
// and friends — wrappable the same way).
func sentinelErrorVar(pass *Pass, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	switch obj := obj.(type) {
	case *types.Var:
		if obj.Parent() == obj.Pkg().Scope() && strings.HasPrefix(obj.Name(), "Err") && isErrorType(obj.Type()) {
			return obj.Name(), true
		}
	case *types.Const:
		if named, ok := obj.Type().(*types.Named); ok {
			if named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "syscall" && named.Obj().Name() == "Errno" {
				return "syscall." + obj.Name(), true
			}
		}
	}
	return "", false
}

// isErrorType reports whether t is the error interface.
func isErrorType(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	return ok && iface.NumMethods() == 1 && iface.Method(0).Name() == "Error"
}

// calleeObject resolves a call's static callee, if any.
func calleeObject(pass *Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}
