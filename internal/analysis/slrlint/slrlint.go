// Package slrlint holds the machinery shared by the repo's determinism
// analyzers (internal/analysis/...): the Analyzer/Pass types and the
// standard-library-only `go vet -vettool` driver that runs them
// (driver.go), the //slrlint:allow suppression contract, and package-path
// and symbol matching for the analyzers' fixed configuration.
//
// Suppression contract: a diagnostic is silenced by a comment of the form
//
//	//slrlint:allow <analyzer> <reason>
//
// placed on the flagged line (trailing) or on the line directly above it.
// The reason is mandatory — an allow without one is itself reported — so
// every deliberate exception to the determinism discipline carries its
// justification in the source, next to the code it excuses.
package slrlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AllowPrefix is the comment directive that suppresses one diagnostic.
const AllowPrefix = "slrlint:allow"

// wantMarker starts an in-fixture expectation comment (see atest); an
// allow reason never extends into one.
const wantMarker = "// want "

// Suppressor filters one analyzer's diagnostics through the pass's
// //slrlint:allow comments and drops findings in _test.go files (test
// code may use wall clocks and unordered iteration freely — golden
// comparisons, not source hygiene, gate its determinism).
type Suppressor struct {
	pass *Pass
	// allowed marks file:line coordinates excused for this analyzer: the
	// allow comment's own line and the line below it.
	allowed map[string]map[int]bool
}

// NewSuppressor scans the pass's files for allow comments naming
// pass.Analyzer and reports any that lack a reason.
func NewSuppressor(pass *Pass) *Suppressor {
	s := &Suppressor{pass: pass, allowed: map[string]map[int]bool{}}
	name := pass.Analyzer.Name
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, AllowPrefix) {
					continue
				}
				text = strings.TrimSpace(strings.TrimPrefix(text, AllowPrefix))
				// Fixture expectation comments ride on the same line;
				// they are not part of the reason.
				if i := strings.Index(text, wantMarker); i >= 0 {
					text = strings.TrimSpace(text[:i])
				}
				allowName, reason, _ := strings.Cut(text, " ")
				if allowName != name {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				if isTestFile(p.Filename) {
					continue
				}
				if strings.TrimSpace(reason) == "" {
					pass.Reportf(c.Pos(), "%s %s needs a non-empty reason", AllowPrefix, name)
					continue
				}
				lines := s.allowed[p.Filename]
				if lines == nil {
					lines = map[int]bool{}
					s.allowed[p.Filename] = lines
				}
				lines[p.Line] = true
				lines[p.Line+1] = true
			}
		}
	}
	return s
}

func isTestFile(filename string) bool {
	return strings.HasSuffix(filename, "_test.go")
}

// Reportf reports a diagnostic at pos unless an allow comment for this
// analyzer covers the line or the finding is in a test file.
func (s *Suppressor) Reportf(pos token.Pos, format string, args ...any) {
	p := s.pass.Fset.Position(pos)
	if isTestFile(p.Filename) || s.allowed[p.Filename][p.Line] {
		return
	}
	s.pass.Reportf(pos, format, args...)
}

// MatchPkg reports whether package path matches pattern. A pattern
// matches its exact path and any suffix alignment on a '/' boundary in
// either direction, so the analyzer defaults written against this repo's
// full import paths ("slr/internal/sim") also match the short fixture
// paths the analyzer tests typecheck ("sim"). A trailing "/..." matches
// any package under the pattern, with the same suffix tolerance
// ("slr/cmd/..." covers both "slr/cmd/slrsim" and a fixture's
// "cmd/slrsim").
func MatchPkg(pattern, path string) bool {
	if sub, ok := strings.CutSuffix(pattern, "/..."); ok {
		for {
			if path == sub || strings.HasPrefix(path, sub+"/") {
				return true
			}
			i := strings.Index(sub, "/")
			if i < 0 {
				return false
			}
			sub = sub[i+1:]
		}
	}
	return pattern == path ||
		strings.HasSuffix(pattern, "/"+path) ||
		strings.HasSuffix(path, "/"+pattern)
}

// List is an analyzer's fixed list of package or symbol patterns, matched
// with MatchPkg semantics.
type List []string

// MatchPath reports whether any pattern in the list matches the package
// path.
func (l List) MatchPath(path string) bool {
	for _, p := range l {
		if MatchPkg(p, path) {
			return true
		}
	}
	return false
}

// SplitSymbol splits a "pkg/path.Rest.OfName" pattern into its package
// path and the dotted symbol after it: the package part runs through the
// first '.' past the last '/'.
func SplitSymbol(pattern string) (pkg, sym string) {
	slash := strings.LastIndex(pattern, "/")
	dot := strings.Index(pattern[slash+1:], ".")
	if dot < 0 {
		return pattern, ""
	}
	dot += slash + 1
	return pattern[:dot], pattern[dot+1:]
}

// MatchNamed reports whether t (through pointers and aliases) is the
// named type a "pkg/path.Name" pattern describes.
func MatchNamed(t types.Type, pattern string) bool {
	pkgPat, name := SplitSymbol(pattern)
	n := Named(t)
	if n == nil || n.Obj().Name() != name || n.Obj().Pkg() == nil {
		return false
	}
	return MatchPkg(pkgPat, n.Obj().Pkg().Path())
}

// Named unwraps pointers and aliases down to a named type, or nil.
func Named(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// DeclSym renders the symbol part of a function declaration's allow-list
// identity: "Name" for functions, "Recv.Name" for methods.
func DeclSym(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

// recvTypeName extracts the bare receiver type name from its AST form.
func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr: // generic receiver
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// MatchFunc reports whether the function identity (pkgPath the pass's
// package path, declSym as DeclSym renders it) matches any
// "pkg/path.Sym.Bol" pattern in the list.
func (l List) MatchFunc(pkgPath, declSym string) bool {
	for _, p := range l {
		pkgPat, sym := SplitSymbol(p)
		if sym == declSym && MatchPkg(pkgPat, pkgPath) {
			return true
		}
	}
	return false
}

// EnclosingFunc returns the innermost function declaration or literal in
// a Pass.Walk stack, and the enclosing FuncDecl if the innermost function
// is a declaration (nil inside a closure).
func EnclosingFunc(stack []ast.Node) (body *ast.BlockStmt, decl *ast.FuncDecl) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f.Body, f
		case *ast.FuncLit:
			return f.Body, nil
		}
	}
	return nil, nil
}

// TopDecl returns the top-level function declaration a Pass.Walk stack is
// inside, regardless of intervening closures.
func TopDecl(stack []ast.Node) *ast.FuncDecl {
	for _, n := range stack {
		if fd, ok := n.(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}
