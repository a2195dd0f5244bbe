// Package atest runs one slrlint analyzer over fixture packages and
// checks what it reports, with the standard library only: parse
// testdata/src/<pkg>, typecheck against the source importer (stdlib) plus
// a recursive fixture importer (local imports like "sim"), run the
// analyzer over a hand-built slrlint.Pass, and match diagnostics against
// the fixtures' "// want" comments.
//
// The expectation syntax: a comment containing
//
//	// want `regexp` `another`
//
// (backquoted or double-quoted Go strings) expects each regexp to match
// one diagnostic message reported on that comment's line. Unmatched
// diagnostics and unmet expectations both fail the test.
package atest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"slr/internal/analysis/slrlint"
)

// Run loads each named package from testdata/src/<pkg>, runs a over it,
// and checks the diagnostics against the fixtures' want comments.
func Run(t *testing.T, testdata string, a *slrlint.Analyzer, pkgs ...string) {
	t.Helper()
	ld := newLoader(filepath.Join(testdata, "src"))
	for _, pkg := range pkgs {
		runPkg(t, ld, a, pkg)
	}
}

func runPkg(t *testing.T, ld *loader, a *slrlint.Analyzer, pkgPath string) {
	t.Helper()
	lp, err := ld.load(pkgPath)
	if err != nil {
		t.Fatalf("loading fixture package %s: %v", pkgPath, err)
	}

	var diags []slrlint.Diagnostic
	a.Run(&slrlint.Pass{
		Analyzer:  a,
		Fset:      ld.fset,
		Files:     lp.files,
		Pkg:       lp.pkg,
		TypesInfo: lp.info,
		Report:    func(d slrlint.Diagnostic) { diags = append(diags, d) },
	})

	wants := collectWants(t, ld.fset, lp.files)
	for _, d := range diags {
		p := ld.fset.Position(d.Pos)
		key := posKey{file: filepath.Base(p.Filename), line: p.Line}
		if !wants.match(key, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", p, d.Message)
		}
	}
	wants.reportUnmet(t, pkgPath)
}

type posKey struct {
	file string
	line int
}

type want struct {
	key posKey
	re  *regexp.Regexp
	met bool
}

type wantSet struct{ wants []*want }

// match consumes one unmet expectation at key whose regexp matches msg.
func (ws *wantSet) match(key posKey, msg string) bool {
	for _, w := range ws.wants {
		if !w.met && w.key == key && w.re.MatchString(msg) {
			w.met = true
			return true
		}
	}
	return false
}

func (ws *wantSet) reportUnmet(t *testing.T, pkgPath string) {
	t.Helper()
	for _, w := range ws.wants {
		if !w.met {
			t.Errorf("%s: %s:%d: expected diagnostic matching %q, got none",
				pkgPath, w.key.file, w.key.line, w.re)
		}
	}
}

// collectWants parses every "// want" comment in the package's files.
// The expectation binds to the line the comment starts on.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) *wantSet {
	t.Helper()
	ws := &wantSet{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				p := fset.Position(c.Pos())
				key := posKey{file: filepath.Base(p.Filename), line: p.Line}
				for _, pat := range splitPatterns(t, p, c.Text[i+len("// want "):]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", p, pat, err)
					}
					ws.wants = append(ws.wants, &want{key: key, re: re})
				}
			}
		}
	}
	return ws
}

// splitPatterns scans a want comment's payload as a sequence of Go
// string literals (backquoted or double-quoted).
func splitPatterns(t *testing.T, p token.Position, s string) []string {
	t.Helper()
	var pats []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return pats
		}
		quote := s[0]
		if quote != '`' && quote != '"' {
			t.Fatalf("%s: want pattern must be a quoted or backquoted string, got %q", p, s)
		}
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == quote && (quote == '`' || s[i-1] != '\\') {
				end = i
				break
			}
		}
		if end < 0 {
			t.Fatalf("%s: unterminated want pattern in %q", p, s)
		}
		lit := s[:end+1]
		pat, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: bad want pattern %s: %v", p, lit, err)
		}
		pats = append(pats, pat)
		s = s[end+1:]
	}
}

// loader parses and typechecks fixture packages under srcDir, resolving
// local imports recursively and everything else through the source
// importer (which reads the standard library from GOROOT source, so no
// compiled export data is needed).
type loader struct {
	fset   *token.FileSet
	srcDir string
	std    types.Importer
	cache  map[string]*loadedPkg
}

type loadedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newLoader(srcDir string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:   fset,
		srcDir: srcDir,
		std:    importer.ForCompiler(fset, "source", nil),
		cache:  map[string]*loadedPkg{},
	}
}

// Import implements types.Importer: fixture directories win, the
// standard library backs everything else.
func (ld *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(ld.srcDir, path); isDir(dir) {
		lp, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return lp.pkg, nil
	}
	return ld.std.Import(path)
}

func (ld *loader) load(path string) (*loadedPkg, error) {
	if lp, ok := ld.cache[path]; ok {
		return lp, nil
	}
	dir := filepath.Join(ld.srcDir, path)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}

	info := slrlint.NewInfo()
	conf := types.Config{Importer: ld}
	pkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking %s: %w", path, err)
	}
	lp := &loadedPkg{pkg: pkg, files: files, info: info}
	ld.cache[path] = lp
	return lp, nil
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}
