// Package mapiter defines an analyzer that flags ranging over a map
// where the loop body's effects escape in iteration order — the exact
// bug class PR 1 fixed in OLSR and SRP, where map-iteration order leaked
// into BFS seeding and successor sets and broke byte-identical replay.
package mapiter

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"slr/internal/analysis/slrlint"
)

const doc = `flag map iteration whose order escapes into output or scheduling

Go randomizes map iteration order, so any observable effect of a
"for k := range m" body that depends on that order breaks the repo's
byte-identical-per-seed contract. The analyzer reports two escape shapes:

 1. an order-sensitive call inside the loop body: an emitter (Emit,
    Broadcast*, UnicastControl, fmt print functions) or a scheduling call
    (Schedule*, Reschedule*, and At/After on the simulator/node clock,
    which consume a FIFO tie-break sequence number per call);
 2. appending values derived from the range variables to a slice that is
    never sorted later in the same function — the PR 1 OLSR BFS-seeding
    bug.

Iterations whose outcome is genuinely order-independent (set membership,
commutative folds) are excused with //slrlint:allow mapiter <reason>.`

// schedRecvs names the types whose At/After methods consume the kernel's
// FIFO sequence numbers, making bare call order observable.
var schedRecvs = slrlint.List{"slr/internal/sim.Simulator", "slr/internal/netstack.Node"}

// Analyzer is the mapiter analyzer.
var Analyzer = &slrlint.Analyzer{Name: "mapiter", Doc: doc, Run: run}

// accum is one slice the loop body appends range-derived values to.
type accum struct {
	obj types.Object // root object of the target, nil if unresolvable
	str string       // rendered target expression, e.g. "p.symList"
	pos token.Pos    // first offending append
}

func run(pass *slrlint.Pass) {
	sup := slrlint.NewSuppressor(pass)
	reported := map[token.Pos]bool{}

	pass.Walk(func(n ast.Node, stack []ast.Node) {
		if rs, ok := n.(*ast.RangeStmt); ok && isMap(pass.TypesInfo.TypeOf(rs.X)) {
			checkRange(pass, sup, rs, stack, reported)
		}
	})
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := types.Unalias(t).Underlying().(*types.Map)
	return ok
}

func checkRange(pass *slrlint.Pass, sup *slrlint.Suppressor, rs *ast.RangeStmt, stack []ast.Node, reported map[token.Pos]bool) {
	loopVars := rangeVars(pass, rs)
	var accums []accum

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if why := sinkCall(pass, n); why != "" && !reported[n.Pos()] {
				reported[n.Pos()] = true
				sup.Reportf(n.Pos(), "%s inside range over a map runs in map-iteration order; iterate a sorted copy or annotate with //slrlint:allow mapiter <reason>", why)
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || len(call.Args) < 2 {
					continue
				}
				if !refsAny(pass, call.Args[1:], loopVars) {
					continue
				}
				if a, ok := appendTarget(pass, n.Lhs[i], rs); ok {
					accums = append(accums, accum{obj: a.obj, str: a.str, pos: call.Pos()})
				}
			}
		}
		return true
	})

	body, _ := slrlint.EnclosingFunc(stack)
	for _, a := range accums {
		if reported[a.pos] {
			continue
		}
		if body != nil && sortedAfter(pass, body, a) {
			continue
		}
		reported[a.pos] = true
		sup.Reportf(a.pos, "%s accumulates range-over-map values in map-iteration order and is never sorted in this function; sort before it escapes or annotate with //slrlint:allow mapiter <reason>", a.str)
	}
}

// rangeVars collects the objects of the range statement's key and value
// variables.
func rangeVars(pass *slrlint.Pass, rs *ast.RangeStmt) []types.Object {
	var out []types.Object
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if o := pass.TypesInfo.Defs[id]; o != nil {
			out = append(out, o)
		} else if o := pass.TypesInfo.Uses[id]; o != nil {
			out = append(out, o)
		}
	}
	return out
}

// sinkCall classifies a call as order-sensitive: an emitter or a
// scheduling call. It returns a short description, or "".
func sinkCall(pass *slrlint.Pass, call *ast.CallExpr) string {
	fn := slrlint.Callee(pass.TypesInfo, call)
	if fn == nil {
		return ""
	}
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return ""
	}
	if sig.Recv() == nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
			(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
			return "fmt." + name + " emits"
		}
		return ""
	}
	switch {
	case name == "Emit" || strings.HasPrefix(name, "Broadcast") || name == "UnicastControl":
		return "emitter call " + name
	case strings.HasPrefix(name, "Schedule") || name == "Reschedule" || name == "RescheduleAfter":
		return "scheduling call " + name
	case name == "At" || name == "After":
		for _, p := range schedRecvs {
			if slrlint.MatchNamed(sig.Recv().Type(), p) {
				return "scheduling call " + name
			}
		}
	}
	return ""
}

func isBuiltinAppend(pass *slrlint.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// refsAny reports whether any expression references one of the objects.
func refsAny(pass *slrlint.Pass, exprs []ast.Expr, objs []types.Object) bool {
	found := false
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || found {
				return !found
			}
			use := pass.TypesInfo.Uses[id]
			for _, o := range objs {
				if use == o {
					found = true
				}
			}
			return !found
		})
	}
	return found
}

// appendTarget resolves an append assignment's destination to a trackable
// accumulator: an identifier declared outside the loop, or a selector
// path (struct field), both of which outlive the iteration.
func appendTarget(pass *slrlint.Pass, lhs ast.Expr, rs *ast.RangeStmt) (accum, bool) {
	switch l := lhs.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[l]
		if obj == nil {
			obj = pass.TypesInfo.Defs[l]
		}
		if obj == nil || insideLoop(obj.Pos(), rs) {
			return accum{}, false
		}
		return accum{obj: obj, str: l.Name}, true
	case *ast.SelectorExpr:
		return accum{obj: rootObj(pass, l), str: types.ExprString(l)}, true
	}
	return accum{}, false
}

func insideLoop(pos token.Pos, rs *ast.RangeStmt) bool {
	return pos >= rs.Pos() && pos <= rs.End()
}

func rootObj(pass *slrlint.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			return pass.TypesInfo.Uses[x]
		default:
			return nil
		}
	}
}

// sortedAfter reports whether, lexically after the offending append, the
// enclosing function passes the accumulator to a sort: any sort.* or
// slices.Sort* call, or a Sort method, mentioning the accumulator in its
// arguments (including wrapped forms like sort.Sort(byID(x))).
func sortedAfter(pass *slrlint.Pass, body *ast.BlockStmt, a accum) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < a.pos || found {
			return !found
		}
		if !isSortCall(pass, call) {
			return true
		}
		args := call.Args
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			args = append(args[:len(args):len(args)], sel.X)
		}
		for _, arg := range args {
			ast.Inspect(arg, func(m ast.Node) bool {
				e, ok := m.(ast.Expr)
				if !ok || found {
					return !found
				}
				if id, ok := e.(*ast.Ident); ok && a.obj != nil && pass.TypesInfo.Uses[id] == a.obj && a.str == id.Name {
					found = true
				}
				if _, ok := e.(*ast.SelectorExpr); ok && types.ExprString(e) == a.str {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

func isSortCall(pass *slrlint.Pass, call *ast.CallExpr) bool {
	fn := slrlint.Callee(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		return fn.Name() != "Search" && fn.Name() != "SearchInts" &&
			fn.Name() != "SearchStrings" && fn.Name() != "SearchFloat64s"
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	// A local helper whose name says it sorts (sortNodeIDs, SortBySeq)
	// restores order too; SRP's RERR path relies on exactly this shape.
	return strings.HasPrefix(fn.Name(), "Sort") || strings.HasPrefix(fn.Name(), "sort")
}
