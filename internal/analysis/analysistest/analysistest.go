// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against `// want` expectations, mirroring the API and
// fixture conventions of golang.org/x/tools/go/analysis/analysistest.
//
// The upstream harness depends on go/packages, which is not part of the
// toolchain-vendored subset of x/tools this repo builds against (the
// build must work with no module proxy), so this is a self-contained
// reimplementation on the stdlib source importer. Fixtures live under
// <testdata>/src/<pkg>/ and annotate expected diagnostics as
//
//	rand.Intn(5) // want `global math/rand`
//
// where the backquoted (or double-quoted) text is a regular expression
// matched against diagnostics reported on that line. Lines without a
// want comment must produce no diagnostic.
package analysistest

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
	"runtime"
	"sort"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// Run analyzes each fixture package under dir/src with a, comparing
// reported diagnostics to the // want expectations in the fixtures.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		runPackage(t, filepath.Join(dir, "src", pkg), a)
	}
}

// TestData returns the canonical testdata directory of the calling
// test's package, like the upstream helper.
func TestData() string {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return testdata
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

func runPackage(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	if len(files) == 0 {
		t.Fatalf("%s: no Go files", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(files[0].Name.Name, fset, files, info)
	if err != nil {
		t.Fatalf("%s: type error in fixture: %v", dir, err)
	}

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:          a,
		Fset:              fset,
		Files:             files,
		Pkg:               pkg,
		TypesInfo:         info,
		TypesSizes:        types.SizesFor("gc", runtime.GOARCH),
		ResultOf:          map[*analysis.Analyzer]interface{}{},
		Report:            func(d analysis.Diagnostic) { diags = append(diags, d) },
		ImportPackageFact: func(*types.Package, analysis.Fact) bool { return false },
		ImportObjectFact:  func(types.Object, analysis.Fact) bool { return false },
		ExportPackageFact: func(analysis.Fact) {},
		ExportObjectFact:  func(types.Object, analysis.Fact) {},
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s: %s: %v", dir, a.Name, err)
	}

	checkExpectations(t, fset, files, diags)
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

var wantRe = regexp.MustCompile("// want (.*)$")

// checkExpectations matches diagnostics to // want comments line by line.
func checkExpectations(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	// file -> line -> expectations
	wants := map[string]map[int][]*expectation{}
	for _, f := range files {
		filename := fset.Position(f.Pos()).Filename
		wants[filename] = map[int][]*expectation{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := fset.Position(c.Pos()).Line
				exps, err := parseWants(m[1])
				if err != nil {
					t.Fatalf("%s:%d: %v", filename, line, err)
				}
				wants[filename][line] = append(wants[filename][line], exps...)
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, exp := range wants[pos.Filename][pos.Line] {
			if !exp.matched && exp.re.MatchString(d.Message) {
				exp.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for filename, lines := range wants {
		for line, exps := range lines {
			for _, exp := range exps {
				if !exp.matched {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", filename, line, exp.re)
				}
			}
		}
	}
}

// parseWants parses the payload of a want comment: one or more regexps,
// each in backquotes or double quotes.
func parseWants(s string) ([]*expectation, error) {
	var out []*expectation
	s = strings.TrimSpace(s)
	for s != "" {
		quote := s[0]
		if quote != '`' && quote != '"' {
			return nil, fmt.Errorf("want payload must be backquoted or quoted, got %q", s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return nil, fmt.Errorf("unterminated want pattern in %q", s)
		}
		pat := s[1 : 1+end]
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, fmt.Errorf("bad want pattern %q: %v", pat, err)
		}
		out = append(out, &expectation{re: re})
		s = strings.TrimSpace(s[2+end:])
	}
	return out, nil
}
