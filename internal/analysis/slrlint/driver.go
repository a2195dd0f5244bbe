package slrlint

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// An Analyzer is one determinism check: a name (the word after
// //slrlint:allow), its documentation, and a function run once per
// type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a finding at pos, bypassing //slrlint:allow (analyzers
// report through a Suppressor).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Walk visits every node of every file in depth-first source order.
// stack holds the path from the file down to n, n itself last.
func (p *Pass) Walk(visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			visit(n, stack)
			return true
		})
	}
}

// Callee returns the function or method a call statically names, looking
// through parentheses and explicit instantiation, or nil for builtins,
// conversions and calls of function values.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj() // method or field
		} else {
			obj = info.Uses[fun.Sel] // qualified identifier
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// NewInfo returns a types.Info with every map the analyzers read.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// unitConfig is the part of cmd/go's vet.cfg (one compilation unit,
// written by `go vet` next to the package's build artefacts) the driver
// reads.
type unitConfig struct {
	Compiler    string
	ImportPath  string
	GoVersion   string
	GoFiles     []string
	ImportMap   map[string]string // import path in source -> package path
	PackageFile map[string]string // package path -> compiler export data
	VetxOnly    bool              // dependency visited for facts only
	VetxOutput  string            // facts file cmd/go caches; slrlint has none
}

// Main is the main function of a `go vet -vettool` binary running
// analyzers. cmd/go drives such a tool three ways: `-flags` asks for its
// flags as JSON (there are none), `-V=full` for a line identifying the
// executable to the build cache, and a lone `*.cfg` argument describes
// one package to analyze. Findings go to stderr as file:line:col:
// message, and any finding makes the exit status 1.
func Main(analyzers ...*Analyzer) {
	log.SetFlags(0)
	log.SetPrefix(filepath.Base(os.Args[0]) + ": ")
	if len(os.Args) != 2 {
		log.Fatalf(`run through "go vet -vettool=%s"`, os.Args[0])
	}
	switch arg := os.Args[1]; {
	case arg == "-flags":
		fmt.Println("[]")
	case arg == "-V=full":
		if err := printVersion(); err != nil {
			log.Fatal(err)
		}
	case strings.HasSuffix(arg, ".cfg"):
		findings, err := runUnit(arg, analyzers)
		if err != nil {
			log.Fatal(err)
		}
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
		if len(findings) > 0 {
			os.Exit(1)
		}
	default:
		log.Fatalf(`unsupported argument %q; run through "go vet -vettool=%s"`, arg, os.Args[0])
	}
}

// printVersion prints the line cmd/go's toolID parses: a "devel" version
// must end in buildID=<content hash>, which keys vet's result cache to
// this exact binary.
func printVersion() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	fmt.Printf("%s version devel comments-go-here buildID=%x\n", filepath.Base(exe), h.Sum(nil))
	return nil
}

// runUnit analyzes the package a vet.cfg file describes and returns its
// findings as "file:line:col: message" lines in source order.
func runUnit(cfgFile string, analyzers []*Analyzer) ([]string, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, err
	}
	var cfg unitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", cfgFile, err)
	}
	// cmd/go caches VetxOutput and hands it to dependents; it must exist.
	if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
		return nil, err
	}
	if cfg.VetxOnly {
		return nil, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	export := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	tc := types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			path, ok := cfg.ImportMap[importPath]
			if !ok {
				return nil, fmt.Errorf("can't resolve import %q", importPath)
			}
			return export.Import(path)
		}),
		Sizes:     types.SizesFor(cfg.Compiler, build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := NewInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, err
	}

	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
		})
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	findings := make([]string, len(diags))
	for i, d := range diags {
		findings[i] = fmt.Sprintf("%s: %s", fset.Position(d.Pos), d.Message)
	}
	return findings, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
