package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// DetCore enforces the determinism contract of the computation core.
// Cached immutable regions are validity certificates precisely because
// recomputing an analysis yields bit-identical output (the replication
// and cache property tests assert it); docs/architecture.md and the
// engine godoc argue the invariant. Three things break it silently:
//
//   - ranging over a map where the iteration order can feed score
//     accumulation or result ordering (Go randomizes map order);
//   - wall-clock reads (time.Now and friends) influencing computation;
//   - math/rand anywhere in the core.
//
// The analyzer forbids all three in internal/core, internal/geom and
// internal/topk. Uses that provably cannot affect answers (metrics
// timing, a map range whose elements are fully re-sorted with a total
// order) are deliberate exceptions: suppress with
// //lint:allow detcore <reason>.
//
// A fourth differs by architecture: a compiler may fuse x*y + z into one
// rounding (gc does on arm64, ppc64le, riscv64 and loong64). In
// detFMAPkgs, make check-fma's packages, a float product under + or -
// must be rounded on its own by float64(...): check-fma sees what gc
// fuses today, this rule what a later compiler may fuse.
var DetCore = &Analyzer{
	Name: "detcore",
	Doc:  "forbid nondeterminism sources (map range order, wall clock, math/rand, unconverted float products under + or -) in the computation core",
	Run:  runDetCore,
}

// detFMAPkgs are the packages make check-fma disassembles (FMA_PKGS).
var detFMAPkgs = []string{"internal/vec", "internal/geom", "internal/core", "internal/topk", "internal/oracle", "internal/stb", "internal/dataset"}

// detTimeFuncs are the time package reads that leak wall-clock state
// into a computation.
var detTimeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runDetCore(pass *Pass) error {
	if !pathIsAny(pass.Pkg, detFMAPkgs...) {
		return nil
	}
	inCore := pathIsAny(pass.Pkg, "internal/core", "internal/geom", "internal/topk")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.ADD || n.Op == token.SUB {
					reportFusable(pass, n.X, n.Y)
				}
			case *ast.AssignStmt:
				if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN {
					reportFusable(pass, n.Rhs[0])
				}
			case *ast.ImportSpec:
				if p, err := strconv.Unquote(n.Path.Value); err == nil && inCore {
					if p == "math/rand" || p == "math/rand/v2" {
						pass.Reportf(n.Pos(), "import of %s in a deterministic-core package: region certificates require bit-identical recomputation", p)
					}
				}
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil && inCore {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(), "range over a map: iteration order is randomized and must not feed score accumulation or result ordering")
					}
				}
			case *ast.SelectorExpr:
				obj := pass.TypesInfo.Uses[n.Sel]
				if obj == nil || obj.Pkg() == nil || !inCore {
					return true
				}
				if obj.Pkg().Path() == "time" && detTimeFuncs[obj.Name()] {
					if _, isFunc := obj.(*types.Func); isFunc {
						pass.Reportf(n.Pos(), "time.%s in a deterministic-core package: wall-clock reads must not influence computation", obj.Name())
					}
				}
			}
			return true
		})
	}
	return nil
}

// reportFusable reports each operand that is a non-constant float
// product, parenthesized or negated or not: a compiler may fuse it with
// the sum it feeds.
func reportFusable(pass *Pass, operands ...ast.Expr) {
	for _, e := range operands {
		e = ast.Unparen(e)
		for u, ok := e.(*ast.UnaryExpr); ok && (u.Op == token.SUB || u.Op == token.ADD); u, ok = e.(*ast.UnaryExpr) {
			e = ast.Unparen(u.X)
		}
		if mul, ok := e.(*ast.BinaryExpr); ok && mul.Op == token.MUL {
			tv := pass.TypesInfo.Types[mul]
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 && tv.Value == nil {
				pass.Reportf(mul.Pos(), "float product under + or -: wrap it in float64(...) so no architecture fuses it into a multiply-add")
			}
		}
	}
}
