// Package analysistest type-checks packages against real export data and
// runs the suite's analyzers over them, for two kinds of test: fixture
// packages whose `// want "regexp"` comments name the expected diagnostics
// (x/tools' analysistest contract, with the stdlib only), and production
// packages with one file's source swapped in memory (the seeded-defect test).
//
// Fixtures live in testdata/src/<pkg>/ next to each analyzer's test. They
// may import the repo's own packages, so a fixture exercises an analyzer
// exactly the way production code does. Export data comes from one
// `go list -deps -export -json` per test.
//
// An expectation comment names one or more patterns on the line the
// diagnostic is reported on:
//
//	total += v // want `writes to captured driver-side variable`
//
// Every pattern must match exactly one diagnostic on its line and every
// diagnostic must be matched by a pattern; anything unmatched on either side
// fails the test.
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"distenc/internal/analysis/framework"
)

// Package is one package as `go list -json` describes it.
type Package struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
}

// List resolves paths and everything they import, in one go command, to
// their directories, non-test files and compiled export data.
func List(t testing.TB, paths ...string) map[string]*Package {
	t.Helper()
	out := make(map[string]*Package)
	if len(paths) == 0 {
		return out
	}
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export"}, paths...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go list -export failed: %v\n%s", err, stderr.String())
	}
	for dec := json.NewDecoder(&stdout); ; {
		p := new(Package)
		if err := dec.Decode(p); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		out[p.ImportPath] = p
	}
}

// Check type-checks files as package path against the export data in pkgs
// and returns the analyzers' diagnostics, sorted by position. A type error
// fails the test.
func Check(t testing.TB, fset *token.FileSet, path string, files []*ast.File, pkgs map[string]*Package, analyzers ...*framework.Analyzer) []framework.Diagnostic {
	t.Helper()
	conf := &types.Config{
		Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if p := pkgs[path]; p != nil && p.Export != "" {
				return os.Open(p.Export)
			}
			return nil, fmt.Errorf("no export data for %q", path)
		}),
		Sizes: types.SizesFor("gc", build.Default.GOARCH),
	}
	info := framework.NewTypesInfo()
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking %s: %v", path, err)
	}
	diags, err := framework.RunAnalyzers(analyzers, &framework.Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info})
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", path, err)
	}
	return diags
}

// Run analyzes each fixture package under testdata/src with a and verifies
// the diagnostics against the fixtures' want comments.
func Run(t *testing.T, a *framework.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		t.Run(pkg, func(t *testing.T) { runOne(t, a, pkg) })
	}
}

func runOne(t *testing.T, a *framework.Analyzer, pkg string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join("testdata", "src", pkg, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no fixture files for %s (%v)", pkg, err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var imports []string
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			imports = append(imports, p)
		}
	}
	diags := Check(t, fset, pkg, files, List(t, imports...), a)

	wants := expectations(t, fset, files)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := posKey{pos.Filename, pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: no diagnostic matched %q", key.file, key.line, w.re)
			}
		}
	}
}

type posKey struct {
	file string
	line int
}

type want struct {
	re   *regexp.Regexp
	used bool
}

// wantRE pulls the expectation patterns out of a want comment: backquoted or
// double-quoted strings after the marker.
var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// expectations indexes the fixtures' want comments by file and line.
func expectations(t *testing.T, fset *token.FileSet, files []*ast.File) map[posKey][]*want {
	t.Helper()
	out := make(map[posKey][]*want)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
					pat := m[1]
					if m[2] != "" {
						if unq, err := strconv.Unquote(`"` + m[2] + `"`); err == nil {
							pat = unq
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					key := posKey{pos.Filename, pos.Line}
					out[key] = append(out[key], &want{re: re})
				}
			}
		}
	}
	return out
}
