package checkers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/paper-repro/pdsat-go/tools/pdsatlint/internal/analysis"
)

// Determinism enforces the repository's reproducibility contract inside
// the deterministic packages (internal/solver, internal/eval,
// internal/optimize, internal/decomp, internal/montecarlo): fixed-seed
// runs must be bit-identical across machines and schedules, so those
// packages may not read wall clocks, draw from ambient randomness,
// observe map iteration order, or race goroutines through a select.
//
// Flagged:
//   - time.Now / time.Since calls;
//   - top-level math/rand functions (ambient, globally seeded);
//   - rand.New / rand.NewSource whose seed expression does not mention a
//     seed (the sanctioned pattern is explicit derivation, e.g.
//     rand.New(rand.NewSource(opts.Seed)) or SubSeed(root, i));
//   - ranging over a map, unless the body only collects keys/values into
//     slices that are explicitly sorted later in the same function, or
//     only mutates the ranged map itself per key (order-invariant);
//   - select statements with two or more result-carrying (value-binding
//     receive) cases — whichever case wins injects scheduling order into
//     the data flow;
//   - a floating-point sum or difference with an unconverted product as an
//     operand (x*y + z, z + x*y, x*y - z, z += x*y): the Go spec lets a
//     compiler fuse it into one rounding, and the arm64, ppc64le, s390x and
//     riscv64 compilers do, so the last bit depends on the architecture.
//     float64(x*y) + z rounds the product on its own everywhere.  Only a
//     product written inside the sum is caught: the spec allows fusing
//     across statements too (t = x*y; r = t + z), which this syntactic rule
//     does not follow, so the complete check is CI's grep of the arm64
//     assembly for fused instructions.
//
// Genuine, justified nondeterminism is escaped with
// `//pdsat:nondeterministic <reason>` on the line, the line above, or
// the enclosing function's doc comment.  A bare directive without a
// justification is itself a diagnostic, in every package.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall clocks, ambient randomness, map-order and select races, and fusable float products in deterministic packages",
	Run:  runDeterminism,
}

// deterministicPkgs are the package-path suffixes the determinism
// analyzer applies to.
var deterministicPkgs = []string{
	"internal/solver",
	"internal/eval",
	"internal/optimize",
	"internal/decomp",
	"internal/montecarlo",
}

func isDeterministicPkg(path string) bool {
	for _, s := range deterministicPkgs {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

func runDeterminism(pass *analysis.Pass) (any, error) {
	dirs := collectNondet(pass)
	dirs.reportBare(pass)
	if !isDeterministicPkg(pass.Pkg.Path()) {
		return nil, nil
	}

	// rand.NewSource calls nested inside a rand.New argument are judged
	// as part of the rand.New call, not separately.
	covered := map[*ast.CallExpr]bool{}

	withEnclosingFunc(pass, func(n ast.Node, enclosing *ast.FuncDecl) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pass.TypesInfo, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn on an owned rng) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" || fn.Name() == "Since" {
					if !dirs.suppressed(pass.Fset, n.Pos(), enclosing) {
						pass.Reportf(n.Pos(), "time.%s in deterministic package %s (escape with %q if the clock read is justified)",
							fn.Name(), pass.Pkg.Path(), nondetPrefix+" <reason>")
					}
				}
			case "math/rand", "math/rand/v2":
				switch fn.Name() {
				case "New", "NewSource":
					if n2, ok := n.Fun.(*ast.SelectorExpr); ok && n2.Sel.Name == "New" {
						ast.Inspect(n, func(m ast.Node) bool {
							if c, ok := m.(*ast.CallExpr); ok && c != n {
								if inner := calleeFunc(pass.TypesInfo, c); inner != nil && inner.Name() == "NewSource" {
									covered[c] = true
								}
							}
							return true
						})
					}
					if covered[n] {
						return true
					}
					if !mentionsSeed(n) && !dirs.suppressed(pass.Fset, n.Pos(), enclosing) {
						pass.Reportf(n.Pos(), "rand.%s outside the sanctioned seed-derivation pattern in deterministic package %s (seed the source from an explicit seed, e.g. SubSeed)",
							fn.Name(), pass.Pkg.Path())
					}
				default:
					if !dirs.suppressed(pass.Fset, n.Pos(), enclosing) {
						pass.Reportf(n.Pos(), "top-level math/rand function rand.%s in deterministic package %s (use an explicitly seeded *rand.Rand)",
							fn.Name(), pass.Pkg.Path())
					}
				}
			}
		case *ast.RangeStmt:
			t := pass.TypesInfo.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, ok := t.Underlying().(*types.Map); !ok {
				return true
			}
			if mapRangeOrderInvariant(pass, n, enclosing) {
				return true
			}
			if !dirs.suppressed(pass.Fset, n.Pos(), enclosing) {
				pass.Reportf(n.Pos(), "map iteration order feeds unsorted sink in deterministic package %s (sort the keys first, or make every ranged write order-invariant)",
					pass.Pkg.Path())
			}
		case *ast.BinaryExpr:
			if (n.Op == token.ADD || n.Op == token.SUB) &&
				(isFloatProduct(pass.TypesInfo, n.X) || isFloatProduct(pass.TypesInfo, n.Y)) &&
				!dirs.suppressed(pass.Fset, n.Pos(), enclosing) {
				reportFusable(pass, n.Pos())
			}
		case *ast.AssignStmt:
			if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && isFloatProduct(pass.TypesInfo, n.Rhs[0]) &&
				!dirs.suppressed(pass.Fset, n.Pos(), enclosing) {
				reportFusable(pass, n.Pos())
			}
		case *ast.SelectStmt:
			carrying := 0
			for _, clause := range n.Body.List {
				comm, ok := clause.(*ast.CommClause)
				if !ok || comm.Comm == nil {
					continue
				}
				if assign, ok := comm.Comm.(*ast.AssignStmt); ok && len(assign.Rhs) == 1 {
					if u, ok := assign.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						carrying++
					}
				}
			}
			if carrying >= 2 && !dirs.suppressed(pass.Fset, n.Pos(), enclosing) {
				pass.Reportf(n.Pos(), "select with %d result-carrying cases in deterministic package %s (whichever case wins injects scheduling order into the data flow)",
					carrying, pass.Pkg.Path())
			}
		}
		return true
	})
	return nil, nil
}

// isFloatProduct reports whether e is a non-constant floating-point
// multiplication with no explicit conversion around it, which a compiler
// may fuse with the sum it is an operand of.
func isFloatProduct(info *types.Info, e ast.Expr) bool {
	m, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || m.Op != token.MUL {
		return false
	}
	tv := info.Types[m]
	if tv.Type == nil || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func reportFusable(pass *analysis.Pass, pos token.Pos) {
	pass.Reportf(pos, "float product added without an explicit conversion in deterministic package %s (a compiler may fuse it into one rounding on some architectures; write float64(x*y))",
		pass.Pkg.Path())
}

// calleeFunc resolves a call's static callee, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// mentionsSeed reports whether any identifier inside the expression
// contains "seed" (case-insensitive) — the sanctioned way to construct a
// *rand.Rand is from an explicitly derived seed.
func mentionsSeed(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && strings.Contains(strings.ToLower(id.Name), "seed") {
			found = true
		}
		return !found
	})
	return found
}

// mapRangeOrderInvariant recognizes the two order-invariant map-range
// shapes: (a) every body statement appends the key/value to slices that
// are later passed to a sort call in the same function (the explicit
// sorted-sink pattern), or (b) every body statement writes only to the
// ranged map itself per key (clearing / per-key updates commute).
func mapRangeOrderInvariant(pass *analysis.Pass, rs *ast.RangeStmt, enclosing *ast.FuncDecl) bool {
	rangedStr := types.ExprString(rs.X)
	var sinks []string
	allAppends, allSelfWrites := true, true
	for _, stmt := range rs.Body.List {
		switch stmt := stmt.(type) {
		case *ast.AssignStmt:
			if len(stmt.Lhs) != 1 || len(stmt.Rhs) != 1 {
				return false
			}
			// s = append(s, ...)
			if lhs, ok := stmt.Lhs[0].(*ast.Ident); ok {
				if call, ok := stmt.Rhs[0].(*ast.CallExpr); ok {
					if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" && len(call.Args) > 0 {
						if arg0, ok := call.Args[0].(*ast.Ident); ok && arg0.Name == lhs.Name {
							sinks = append(sinks, lhs.Name)
							allSelfWrites = false
							continue
						}
					}
				}
			}
			// m[k] = v on the ranged map
			if idx, ok := stmt.Lhs[0].(*ast.IndexExpr); ok && types.ExprString(idx.X) == rangedStr {
				allAppends = false
				continue
			}
			return false
		case *ast.ExprStmt:
			// delete(m, k) on the ranged map
			if call, ok := stmt.X.(*ast.CallExpr); ok {
				if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "delete" && len(call.Args) == 2 {
					if types.ExprString(call.Args[0]) == rangedStr {
						allAppends = false
						continue
					}
				}
			}
			return false
		default:
			return false
		}
	}
	if allSelfWrites && len(rs.Body.List) > 0 && !allAppends {
		return true
	}
	if len(sinks) == 0 || enclosing == nil {
		return false
	}
	// Every sink must reach a sort call after the range statement.
	sorted := map[string]bool{}
	ast.Inspect(enclosing.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		isSort := (pkg.Name == "sort") || (pkg.Name == "slices" && strings.HasPrefix(sel.Sel.Name, "Sort"))
		if !isSort || len(call.Args) == 0 {
			return true
		}
		if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			sorted[arg.Name] = true
		}
		return true
	})
	for _, s := range sinks {
		if !sorted[s] {
			return false
		}
	}
	return true
}
