package checkers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/paper-repro/pdsat-go/tools/pdsatlint/internal/analysis"
)

// Ledger protects the sample-accounting invariant
//
//	SamplesPlanned == SubproblemsSolved + SubproblemsAborted + SamplesSkipped
//
// by demanding that every function mutating one of the paired counters of
// a Counters table (writing the field, or taking its address) is reachable,
// through the package-local call graph, from a method of the one accounting
// root type, ledger.  A new helper that bumps a counter directly —
// bypassing the note/absorb bookkeeping that also rolls the update up — is
// flagged at its declaration.
var Ledger = &analysis.Analyzer{
	Name: "ledger",
	Doc:  "accounting counters may only be mutated on paths reachable from a ledger method",
	Run:  runLedger,
}

// ledgerTable and ledgerRoot name the accounting table and the type whose
// methods constitute the sanctioned accounting surface; ledgerCounters are
// the table's paired fields.
const (
	ledgerTable = "Counters"
	ledgerRoot  = "ledger"
)

var ledgerCounters = map[string]bool{
	"SamplesPlanned":     true,
	"SubproblemsSolved":  true,
	"SubproblemsAborted": true,
	"SamplesSkipped":     true,
}

// isLedgerCounter reports whether the field is one of the paired counters
// of its package's accounting table, however it was reached: a report or
// an event that merely has a field of the same name is not the ledger.
func isLedgerCounter(field *types.Var) bool {
	if !ledgerCounters[field.Name()] || field.Pkg() == nil {
		return false
	}
	table, ok := field.Pkg().Scope().Lookup(ledgerTable).(*types.TypeName)
	if !ok {
		return false
	}
	st, ok := table.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == field {
			return true
		}
	}
	return false
}

func runLedger(pass *analysis.Pass) (any, error) {
	type funcInfo struct {
		decl      *ast.FuncDecl
		obj       *types.Func
		mutates   []string // counter fields this function writes
		calls     map[*types.Func]bool
		isRoot    bool
		mutatePos token.Pos
	}
	var funcs []*funcInfo
	byObj := map[*types.Func]*funcInfo{}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{decl: fd, obj: obj, calls: map[*types.Func]bool{}}
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				fi.isRoot = namedStructName(pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)) == ledgerRoot
			}
			counterField := func(e ast.Expr) (string, bool) {
				sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
				if !ok {
					return "", false
				}
				selection, ok := pass.TypesInfo.Selections[sel]
				if !ok || selection.Kind() != types.FieldVal || !isLedgerCounter(selection.Obj().(*types.Var)) {
					return "", false
				}
				return sel.Sel.Name, true
			}
			note := func(field string, pos token.Pos) {
				fi.mutates = append(fi.mutates, field)
				if fi.mutatePos == token.NoPos {
					fi.mutatePos = pos
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IncDecStmt:
					if f, ok := counterField(n.X); ok {
						note(f, n.Pos())
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if f, ok := counterField(lhs); ok {
							note(f, n.Pos())
						}
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						if f, ok := counterField(n.X); ok {
							note(f, n.Pos())
						}
					}
				case *ast.CallExpr:
					if callee := calleeFunc(pass.TypesInfo, n); callee != nil && callee.Pkg() == pass.Pkg {
						fi.calls[callee] = true
					}
				}
				return true
			})
			funcs = append(funcs, fi)
			byObj[obj] = fi
		}
	}

	// BFS from the accounting roots through the package-local call graph.
	reachable := map[*types.Func]bool{}
	var queue []*funcInfo
	for _, fi := range funcs {
		if fi.isRoot {
			reachable[fi.obj] = true
			queue = append(queue, fi)
		}
	}
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		for callee := range fi.calls {
			if reachable[callee] {
				continue
			}
			reachable[callee] = true
			if cfi := byObj[callee]; cfi != nil {
				queue = append(queue, cfi)
			}
		}
	}

	for _, fi := range funcs {
		if len(fi.mutates) == 0 || reachable[fi.obj] {
			continue
		}
		fields := uniqueSorted(fi.mutates)
		pass.Reportf(fi.mutatePos, "%s mutates ledger counter(s) %s but is not reachable from a ledger method; route the accounting through the ledger",
			funcName(fi.decl), strings.Join(fields, ", "))
	}
	return nil, nil
}

func uniqueSorted(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
