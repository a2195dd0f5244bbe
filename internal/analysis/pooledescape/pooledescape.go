// Package pooledescape defines an analyzer that flags retaining a pooled
// value past the callback that received it. *sim.Event and netstack's
// control envelopes are recycled storage: the kernel reuses an event the
// moment its callback returns, and a node reuses an envelope the moment
// its send completes (a delayed broadcast takes its envelope early, but
// only the node and the kernel event that will send it hold the box until
// then). A copy parked in a struct field, package variable or channel is a
// use-after-recycle bug that manifests as another event's data. The
// sanctioned way to keep a reference is a generation-checked handle
// (sim.Timer), which turns stale use into a no-op.
package pooledescape

import (
	"go/ast"
	"go/types"

	"slr/internal/analysis/slrlint"
)

const doc = `flag pooled values retained past the callback that received them

Reports storing a pointer to a pooled type (pooledTypes: *sim.Event,
netstack's control envelopes) into a struct field, package variable,
element of either, or a channel. Local variables and
direct use inside the receiving callback are fine; so is each pool's own
package, whose freelists legitimately retain their nodes. Deliberate
retention elsewhere annotates with //slrlint:allow pooledescape <reason>.

The check is shallow by design: it sees the pointer itself escape, not a
struct that wraps one. Wrapping a pooled pointer in a new struct is
exactly what sim.Timer is for — a generation-checked handle that makes
stale use a safe no-op — so reach for that instead of a bare copy.`

// pooledTypes names the recycled types whose pointers must not outlive
// their callback.
var pooledTypes = slrlint.List{
	"slr/internal/sim.Event",
	"slr/internal/netstack.controlEnvelope",
}

// Analyzer is the pooledescape analyzer.
var Analyzer = &slrlint.Analyzer{Name: "pooledescape", Doc: doc, Run: run}

func run(pass *slrlint.Pass) {
	sup := slrlint.NewSuppressor(pass)

	pass.Walk(func(n ast.Node, _ []ast.Node) {
		switch n := n.(type) {
		case *ast.SendStmt:
			if name, ok := pooled(pass, pass.TypesInfo.TypeOf(n.Value)); ok {
				sup.Reportf(n.Value.Pos(), "pooled *%s sent on a channel outlives the callback that received it; the owner recycles it on return (use a generation-checked handle like sim.Timer, or //slrlint:allow pooledescape <reason>)", name)
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return
			}
			for i, rhs := range n.Rhs {
				lhs := n.Lhs[i]
				if !persistent(pass, lhs) {
					continue
				}
				if name, ok := pooled(pass, pass.TypesInfo.TypeOf(rhs)); ok {
					sup.Reportf(rhs.Pos(), "pooled *%s stored in %s outlives the callback that received it; the owner recycles it on return (use a generation-checked handle like sim.Timer, or //slrlint:allow pooledescape <reason>)", name, types.ExprString(lhs))
					continue
				}
				// x.evs = append(x.evs, ev): the appended element is what
				// escapes into the persistent slice.
				if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(pass, call) {
					for _, arg := range call.Args[1:] {
						if name, ok := pooled(pass, pass.TypesInfo.TypeOf(arg)); ok {
							sup.Reportf(arg.Pos(), "pooled *%s appended to %s outlives the callback that received it; the owner recycles it on return (use a generation-checked handle like sim.Timer, or //slrlint:allow pooledescape <reason>)", name, types.ExprString(lhs))
						}
					}
				}
			}
		}
	})
}

// pooled reports whether t is a pointer to a configured pooled type and
// the current package is not the pool's own.
func pooled(pass *slrlint.Pass, t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	if _, ok := types.Unalias(t).(*types.Pointer); !ok {
		return "", false
	}
	for _, pat := range pooledTypes {
		if !slrlint.MatchNamed(t, pat) {
			continue
		}
		// The defining package is the pool owner: its freelists and queue
		// tiers retain nodes by construction.
		pkgPat, _ := slrlint.SplitSymbol(pat)
		if slrlint.MatchPkg(pkgPat, pass.Pkg.Path()) {
			return "", false
		}
		n := slrlint.Named(t)
		return n.Obj().Name(), true
	}
	return "", false
}

// persistent reports whether an assignment destination outlives the
// enclosing call: a struct field, a package-level variable, or an element
// reached through one.
func persistent(pass *slrlint.Pass, lhs ast.Expr) bool {
	switch l := lhs.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[l]; ok {
			return sel.Kind() == types.FieldVal
		}
		// Qualified identifier: pkg.Var.
		return pkgLevelVar(pass.TypesInfo.Uses[l.Sel])
	case *ast.Ident:
		return pkgLevelVar(pass.TypesInfo.Uses[l])
	case *ast.IndexExpr:
		return persistent(pass, l.X)
	case *ast.ParenExpr:
		return persistent(pass, l.X)
	}
	return false
}

func pkgLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func isBuiltinAppend(pass *slrlint.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}
