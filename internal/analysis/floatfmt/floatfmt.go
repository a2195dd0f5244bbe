// Package floatfmt defines an analyzer that flags shortest-form float
// formatting outside the canonical runner.Key codec. PR 6 made
// Key.String the single source of shortest-float truth: its
// strconv.FormatFloat(v, 'g', -1, 64) rendering is what makes identity
// keys injective and equal to the JSON encoder's semantics, so dedup
// maps and resume skip-sets agree.
// A second, drifting float-to-string path (a %v verb, an fmt.Sprint, a
// stray FormatFloat) can silently disagree with that codec — two
// renderings of one pause value stop comparing equal — so every such
// site must either be the codec or explain itself.
package floatfmt

import (
	"go/ast"
	"go/constant"
	"go/types"

	"slr/internal/analysis/slrlint"
)

const doc = `flag shortest-float formatting outside the canonical runner.Key codec

Reports float arguments formatted with %v (fmt's shortest-form rendering,
the same rule the JSON encoder and Key.String apply), floats passed to
the non-verb fmt functions (Sprint, Print, Fprintln, ...), and direct
strconv.FormatFloat/AppendFloat calls. Fixed-precision verbs (%.4f, %g
with an explicit precision) are report formatting, not identity encoding,
and stay legal; so is fmt.Errorf, whose output is human-facing error
text that never participates in identity comparison.

allowFuncs lists the sanctioned codec functions (runner.Key.String);
other deliberate sites annotate with
//slrlint:allow floatfmt <reason>.`

// allowFuncs are the functions allowed to format floats shortest-form.
var allowFuncs = slrlint.List{"slr/internal/runner.Key.String"}

// Analyzer is the floatfmt analyzer.
var Analyzer = &slrlint.Analyzer{Name: "floatfmt", Doc: doc, Run: run}

// nonFormat maps fmt's non-verb print functions to the index of their
// first value argument.
var nonFormat = map[string]int{
	"Sprint": 0, "Sprintln": 0, "Print": 0, "Println": 0,
	"Fprint": 1, "Fprintln": 1, "Append": 1, "Appendln": 1,
}

// withFormat maps fmt's verb-driven functions to their format-string
// argument index. Errorf is deliberately absent: error text is
// human-facing diagnostics, never compared against the Key codec.
var withFormat = map[string]int{
	"Sprintf": 0, "Printf": 0, "Fprintf": 1, "Appendf": 1,
}

func run(pass *slrlint.Pass) {
	sup := slrlint.NewSuppressor(pass)

	pass.Walk(func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := slrlint.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		if fd := slrlint.TopDecl(stack); fd != nil &&
			allowFuncs.MatchFunc(pass.Pkg.Path(), slrlint.DeclSym(fd)) {
			return
		}
		name := fn.Name()
		switch fn.Pkg().Path() {
		case "strconv":
			if name == "FormatFloat" || name == "AppendFloat" {
				sup.Reportf(call.Pos(), "strconv.%s formats a float outside the canonical runner.Key codec; route identity-sensitive floats through Key.String or annotate with //slrlint:allow floatfmt <reason>", name)
			}
		case "fmt":
			if call.Ellipsis.IsValid() {
				return // a spread argument list cannot be paired with verbs
			}
			if start, ok := nonFormat[name]; ok {
				for _, arg := range call.Args[min(start, len(call.Args)):] {
					if isFloat(pass.TypesInfo.TypeOf(arg)) {
						sup.Reportf(arg.Pos(), "float passed to fmt.%s renders shortest-form like the Key codec; use an explicit precision verb or annotate with //slrlint:allow floatfmt <reason>", name)
					}
				}
			}
			if fi, ok := withFormat[name]; ok && fi < len(call.Args) {
				checkFormat(pass, sup, name, call, fi)
			}
		}
	})
}

// checkFormat pairs a constant format string's verbs with the call's
// variadic arguments and reports float arguments formatted with %v.
func checkFormat(pass *slrlint.Pass, sup *slrlint.Suppressor, name string, call *ast.CallExpr, fi int) {
	tv := pass.TypesInfo.Types[call.Args[fi]]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		return // dynamic format string: nothing to pair against
	}
	verbs, ok := parseVerbs(constant.StringVal(tv.Value))
	if !ok {
		return // *-widths or explicit indexes: pairing would be a guess
	}
	args := call.Args[fi+1:]
	for i, v := range verbs {
		if i >= len(args) {
			break
		}
		if v == 'v' && isFloat(pass.TypesInfo.TypeOf(args[i])) {
			sup.Reportf(args[i].Pos(), "float formatted with %%v in fmt.%s renders shortest-form like the Key codec; use an explicit precision verb or annotate with //slrlint:allow floatfmt <reason>", name)
		}
	}
}

// parseVerbs extracts the verb letters of a format string in argument
// order. It reports !ok for formats it cannot pair positionally
// (* width/precision, %[n] indexes).
func parseVerbs(s string) ([]byte, bool) {
	var verbs []byte
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			continue
		}
		i++
		if i < len(s) && s[i] == '%' {
			continue
		}
		for i < len(s) {
			c := s[i]
			if c == '*' || c == '[' {
				return nil, false
			}
			// flags, width, precision
			if c == '+' || c == '-' || c == '#' || c == ' ' || c == '0' ||
				c == '.' || (c >= '1' && c <= '9') {
				i++
				continue
			}
			verbs = append(verbs, c)
			break
		}
	}
	return verbs, true
}

// isFloat reports whether t's core type is a floating-point kind,
// including named float types and untyped float constants.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
