package rdd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// surfaceVehicles are the RDD operators no production file calls but a
// surviving engine test needs to drive the scheduler. Nothing else may be
// listed: an operator without a caller is deleted, not exempted.
var surfaceVehicles = map[string]string{
	"Parallelize":      "builds the input of nearly every fault, speculation and trace test",
	"ForeachPartition": "the side-effecting action of the exactly-once, killed-machine and speculation-loss tests",
}

// TestEngineSurfaceIsReached keeps the engine the size of its callers: every
// exported function of this package that takes or returns an *RDD, and every
// exported RDD method, must be referenced by a non-test file of the root
// module or of benchmark/ outside this package. Matching is by name on the
// syntax tree (rdd.F for functions, x.M for methods), which can only err
// towards "reached".
func TestEngineSurfaceIsReached(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	source := func(name string) bool {
		return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
	}

	funcs, methods := map[string]bool{}, map[string]bool{} // name → reached
	own, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range own {
		if !source(path) {
			continue
		}
		for _, decl := range parse(path).Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			switch {
			case fn.Recv != nil && mentionsRDD(fn.Recv):
				methods[fn.Name.Name] = false
			case fn.Recv == nil && (mentionsRDD(fn.Type.Params) || mentionsRDD(fn.Type.Results)):
				funcs[fn.Name.Name] = false
			}
		}
	}
	if len(funcs) == 0 || len(methods) == 0 {
		t.Fatalf("found %d functions and %d methods over RDD: the scan is broken", len(funcs), len(methods))
	}

	root := filepath.Join("..", "..")
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" || path == filepath.Join(root, "internal", "rdd") {
				return filepath.SkipDir
			}
			return nil
		}
		if !source(d.Name()) {
			return nil
		}
		file := parse(path)
		pkg := ""
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "distenc/internal/rdd" {
				pkg = "rdd"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && pkg != "" && x.Name == pkg {
				if _, ok := funcs[sel.Sel.Name]; ok {
					funcs[sel.Sel.Name] = true
				}
			} else if _, ok := methods[sel.Sel.Name]; ok {
				methods[sel.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for kind, set := range map[string]map[string]bool{"function": funcs, "RDD method": methods} {
		for name, reached := range set {
			_, vehicle := surfaceVehicles[name]
			switch {
			case !reached && !vehicle:
				t.Errorf("exported %s %s has no caller outside internal/rdd: delete it", kind, name)
			case reached && vehicle:
				t.Errorf("%s %s now has a production caller: drop it from surfaceVehicles", kind, name)
			}
		}
	}
}

// mentionsRDD reports whether any type in fields names RDD.
func mentionsRDD(fields *ast.FieldList) bool {
	found := false
	if fields != nil {
		ast.Inspect(fields, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "RDD" {
				found = true
			}
			return !found
		})
	}
	return found
}
