package distenc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceVehicles are the exported names under internal/ that no production
// file reaches but surviving tests need: to drive the code under test, to
// observe it, or as the reference several packages' tests hold it to. Nothing
// else may be listed: a name without a caller is deleted, not exempted, and a
// name that gains a production caller leaves the list.
var surfaceVehicles = map[string]string{
	"rdd.Parallelize":                "builds the input of nearly every fault, speculation and trace test",
	"rdd.RDD.ForeachPartition":       "the side-effecting action of the exactly-once, killed-machine and speculation-loss tests",
	"rdd.Cluster.InjectTaskFailures": "the deterministic fault hook of the retry, lineage and chaos tests",
	"rdd.Cluster.UsedMemory":         "how tests see that every charge was released, machine by machine",
	"rdd.Cluster.HealthyMachines":    "how the kill tests see that a kill of the last machine was refused",
	"framerpc.Server.Accepted":       "lets the transport tests wait for a connection count instead of sleeping",
	"core.Objective":                 "the Eq. 4 oracle the solver tests hold the iterates to",
	"mat.MulVec":                     "the reference matrix-vector product of the solver, Lanczos and Laplacian tests",
	"mat.MaxAbsDiff":                 "the distance every package's numerical tests report",
}

// fieldVehicles are struct fields, as "pkg.Type.Field", that no code of the
// root module sets or reads any more but benchmark/ still reads; they go when
// benchmark/ may change (ROADMAP item 2). A listed field must be declared,
// named by a non-test file of benchmark/, and named by no other non-test
// file. Matching is by field name on the syntax tree, which can only err
// towards "named".
var fieldVehicles = map[string]string{
	"metrics.PhaseTimes.Gram": "always zero since the Grams are accumulated inside the driver pass; benchmark/child.go and probes.go read it",
	"core.PackedRows.Wire":    "inert since every frame is rdd.WireVarint; benchmark/probes.go sets it",
}

// TestModuleSurfaceIsReached keeps every package the size of its callers:
// each exported function, method and type declared in a non-test file under
// internal/ (the analyzers and leakcheck, which exist for the tests, aside)
// must be named by a non-test file of the root module or of benchmark/
// somewhere other than its own declaration, or be a surfaceVehicles entry.
// Matching is on the syntax tree — pkg.Name across packages, the bare name
// inside the declaring package, x.Name for methods whatever x is — which can
// only err towards "reached".
func TestModuleSurfaceIsReached(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	dirOf := map[*ast.File]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		dirOf[f] = filepath.ToSlash(filepath.Dir(path))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// gated reports whether dir's exported names are held to the rule.
	gated := func(dir string) bool {
		return strings.HasPrefix(dir, "internal/") &&
			!strings.HasPrefix(dir, "internal/analysis") && dir != "internal/leakcheck"
	}

	// Declarations: dir → name → display key for functions and types, method
	// name → display keys for methods (matched by name alone).
	named := map[string]map[string]string{}
	methods := map[string][]string{}
	for _, f := range files {
		dir := dirOf[f]
		if !gated(dir) {
			continue
		}
		if named[dir] == nil {
			named[dir] = map[string]string{}
		}
		pkg := f.Name.Name
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					named[dir][d.Name.Name] = pkg + "." + d.Name.Name
				} else {
					methods[d.Name.Name] = append(methods[d.Name.Name], pkg+"."+receiverName(d.Recv)+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
						named[dir][ts.Name.Name] = pkg + "." + ts.Name.Name
					}
				}
			}
		}
	}
	if len(named) < 10 || len(methods) < 50 {
		t.Fatalf("found %d gated packages and %d method names: the scan is broken", len(named), len(methods))
	}

	// References.
	reached := map[string]bool{}
	for _, f := range files {
		imports := map[string]string{} // local package name → gated dir
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(p, "distenc/")
			if !ok || !gated(dir) {
				continue
			}
			local := dir[strings.LastIndex(dir, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = dir
		}
		own := named[dirOf[f]]
		// visit marks what a node names. self is the name being declared:
		// a declaration may use it (recursion, a self-referential type)
		// without that making it reached.
		self := ""
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					if key, ok := named[imports[x.Name]][n.Sel.Name]; ok {
						reached[key] = true
					}
					return false
				}
				for _, key := range methods[n.Sel.Name] {
					reached[key] = true
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if key, ok := own[n.Name]; ok && n.Name != self {
					reached[key] = true
				}
			}
			return true
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl: // the name and the receiver are the declaration, not a use
				self = ""
				if d.Recv == nil {
					self = d.Name.Name
				}
				ast.Inspect(d.Type, visit)
				if d.Body != nil {
					ast.Inspect(d.Body, visit)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					self = ""
					if ts, ok := spec.(*ast.TypeSpec); ok {
						self = ts.Name.Name
					}
					ast.Inspect(spec, visit)
				}
			}
		}
	}

	var all []string
	for _, names := range named {
		for _, key := range names {
			all = append(all, key)
		}
	}
	for _, keys := range methods {
		all = append(all, keys...)
	}
	sort.Strings(all)
	declared := map[string]bool{}
	for _, key := range all {
		declared[key] = true
		_, vehicle := surfaceVehicles[key]
		switch {
		case !reached[key] && !vehicle:
			t.Errorf("exported %s is named by no non-test file: delete it", key)
		case reached[key] && vehicle:
			t.Errorf("%s now has a production caller: drop it from surfaceVehicles", key)
		}
	}
	for key := range surfaceVehicles {
		if !declared[key] {
			t.Errorf("surfaceVehicles lists %s, which is not declared", key)
		}
	}

	for key := range fieldVehicles {
		parts := strings.Split(key, ".")
		pkg, typ, field := parts[0], parts[1], parts[2]
		found, benchUse := false, false
		for _, f := range files {
			if f.Name.Name == pkg && gated(dirOf[f]) {
				ast.Inspect(f, func(n ast.Node) bool {
					if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == typ {
						if st, ok := ts.Type.(*ast.StructType); ok {
							for _, fl := range st.Fields.List {
								for _, name := range fl.Names {
									found = found || name.Name == field
								}
							}
						}
					}
					return true
				})
			}
			imported := map[string]bool{}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				local := p[strings.LastIndex(p, "/")+1:]
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imported[local] = true
			}
			ast.Inspect(f, func(n ast.Node) bool {
				named := false
				switch n := n.(type) {
				case *ast.SelectorExpr:
					x, ok := n.X.(*ast.Ident)
					named = n.Sel.Name == field && !(ok && imported[x.Name])
				case *ast.KeyValueExpr:
					k, ok := n.Key.(*ast.Ident)
					named = ok && k.Name == field
				}
				switch {
				case !named:
				case strings.HasPrefix(dirOf[f], "benchmark"):
					benchUse = true
				default:
					t.Errorf("%s is a field vehicle but %s names it: drop it from fieldVehicles", key, fset.Position(n.Pos()))
				}
				return true
			})
		}
		if !found {
			t.Errorf("fieldVehicles lists %s, which is not declared", key)
		}
		if !benchUse {
			t.Errorf("fieldVehicles lists %s, which benchmark/ no longer reads: delete the field", key)
		}
	}
}

// receiverName returns the receiver's type name without pointer or type
// parameters.
func receiverName(recv *ast.FieldList) string {
	expr := recv.List[0].Type
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
