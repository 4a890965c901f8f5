package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Metered enforces the per-query I/O metering contract: every index
// read made on behalf of a query must flow through an IOStats child
// meter (storage godoc, docs/architecture.md "per-query I/O meters").
// The paper's Fig. 10/Fig. 12 evaluation counts — and the property
// tests asserting "evaluated/op bit-identical" across cache hits,
// concurrent queries and replicas — are only meaningful if no read
// slips past the meter. Concretely, in internal/core, internal/topk,
// internal/engine and internal/shard:
//
//   - (*storage.TupleFile).Get and (*storage.ListFile).Cursor charge
//     the file-wide meter, not the query's; the *With variants (or a
//     lists.Index WithStats view) are required;
//   - (*storage.Pager).Slice sits below the logical meter entirely and
//     is storage-internal;
//   - (*storage.TupleFile).Prefetch charges no meter at all: it only
//     overlaps memory misses, and the lists cursor that issues it for
//     the postings it is about to return is its one caller — one issued
//     from above would read records outside every count unnoticed;
//   - in internal/engine and internal/shard, a TA constructor
//     (topk.New / NewMulti / NewNRA) must receive the index the
//     engine's funnel (Engine.run) hands the …Locked function it is
//     called from — that function's own parameter — or a
//     .WithStats(...) view, never a raw index. The shard coordinator
//     merges per-shard metrics into the distributed answer's cost
//     report, so a coordinator-side read outside a child meter would
//     silently undercount exactly like an engine-side one.
var Metered = &Analyzer{
	Name: "metered",
	Doc:  "index reads in core/topk/engine/shard must flow through an IOStats child meter",
	Run:  runMetered,
}

// unmeteredMethods maps storage receiver types to their file-wide-meter
// (or meter-bypassing) read methods and the required replacement.
var unmeteredMethods = map[string]map[string]string{
	"TupleFile": {"Get": "GetWith(id, st) with the query's child meter"},
	"ListFile":  {"Cursor": "CursorWith(dim, st) with the query's child meter"},
	"Pager":     {"Slice": "a TupleFile/ListFile accessor that charges the logical meter"},
}

// unchargedMethods are storage reads that charge no meter by design,
// with the one place that may issue them.
var unchargedMethods = map[string]map[string]string{
	"TupleFile": {"Prefetch": "the lists cursor prefetches the records of its own next postings"},
}

// taConstructors are the topk entry points whose index argument must be
// metered.
var taConstructors = map[string]bool{"New": true, "NewMulti": true, "NewNRA": true}

func runMetered(pass *Pass) error {
	if !pathIsAny(pass.Pkg, "internal/core", "internal/topk", "internal/engine", "internal/shard") {
		return nil
	}
	checkTA := pathIsAny(pass.Pkg, "internal/engine", "internal/shard")
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				meteredFunc(pass, fn, checkTA)
			}
		}
	}
	return nil
}

func meteredFunc(pass *Pass, fn *ast.FuncDecl, checkTA bool) {
	// The parameters of a …Locked function are what the funnel handed
	// it, and locals assigned from .WithStats(...) are metered views;
	// collected first so later uses anywhere in the body count
	// (assignment order is checked by the compiler, not us).
	meteredVars := map[types.Object]bool{}
	if strings.HasSuffix(fn.Name.Name, "Locked") {
		for _, field := range fn.Type.Params.List {
			for _, name := range field.Names {
				meteredVars[pass.TypesInfo.Defs[name]] = true
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			if !isMeteredIndexExpr(pass, rhs, nil) {
				continue
			}
			if id, ok := assign.Lhs[i].(*ast.Ident); ok {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					meteredVars[obj] = true
				} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
					meteredVars[obj] = true
				}
			}
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, method, ok := storageMethodCall(pass, call); ok {
			if fix, bad := unmeteredMethods[recv][method]; bad {
				pass.Reportf(call.Pos(), "(*storage.%s).%s charges the file-wide meter, not this query's: use %s", recv, method, fix)
			}
			if owner, bad := unchargedMethods[recv][method]; bad {
				pass.Reportf(call.Pos(), "(*storage.%s).%s charges no meter: only %s", recv, method, owner)
			}
			return true
		}
		if checkTA {
			if obj := calleeObject(pass, call); obj != nil && obj.Pkg() != nil &&
				pathIs(obj.Pkg(), "internal/topk") && taConstructors[obj.Name()] && len(call.Args) > 0 {
				if !isMeteredIndexExpr(pass, call.Args[0], meteredVars) {
					pass.Reportf(call.Args[0].Pos(), "topk.%s over an unmetered index: pass the index Engine.run hands a …Locked function (or a .WithStats child-meter view) so the query's I/O is metered in isolation", obj.Name())
				}
			}
		}
		return true
	})
}

// storageMethodCall resolves a call to a method whose receiver is a
// named type of internal/storage, returning the receiver type name and
// method name.
func storageMethodCall(pass *Pass, call *ast.CallExpr) (recv, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return "", "", false
	}
	rt := selection.Recv()
	if ptr, isPtr := rt.(*types.Pointer); isPtr {
		rt = ptr.Elem()
	}
	named, isNamed := rt.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || !pathIs(named.Obj().Pkg(), "internal/storage") {
		return "", "", false
	}
	return named.Obj().Name(), sel.Sel.Name, true
}

// isMeteredIndexExpr reports whether e evidently carries a per-query
// meter: a direct .WithStats(...) call, or a variable known to hold a
// metered view.
func isMeteredIndexExpr(pass *Pass, e ast.Expr, meteredVars map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if fun, ok := e.Fun.(*ast.SelectorExpr); ok {
			return fun.Sel.Name == "WithStats"
		}
	case *ast.Ident:
		if meteredVars == nil {
			return false
		}
		if obj := pass.TypesInfo.Uses[e]; obj != nil {
			return meteredVars[obj]
		}
	}
	return false
}
