package distenc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
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
	fset, files, dirOf := parseNonTestFiles(t)

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

// parseNonTestFiles parses every non-test Go file of the root module and of
// benchmark/ (testdata aside), and returns each file's directory relative to
// the root.
func parseNonTestFiles(t *testing.T) (*token.FileSet, []*ast.File, map[*ast.File]string) {
	t.Helper()
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
	return fset, files, dirOf
}

// typeKey names a struct type by its declaring directory and its name.
type typeKey struct{ dir, typ string }

// knobStructs are the option and configuration structs whose exported
// fields TestOptionFieldsAreSet holds to a caller.
var knobStructs = []typeKey{
	{"internal/core", "Options"},
	{"internal/core", "DistOptions"},
	{"internal/rdd", "Config"},
	{"internal/serve", "Config"},
	{"internal/serve", "RefreshConfig"},
	{"internal/transport", "Options"},
}

// knobVehicles are the fields of knobStructs, as "pkg.Type.Field", that no
// non-test file sets outside the declaring package but that stay: settings
// a deployment embedding the package would set, a test hook, and a field
// benchmark/ reads. Nothing else may be listed: a knob nobody sets is
// deleted, not exempted, and a listed field that gains a setter leaves the
// list.
var knobVehicles = map[string]string{
	"transport.Options.MaxFrame":     "deployment setting: the frame cap of a client whose workers run with a larger rdd frame limit",
	"transport.Options.DialTimeout":  "deployment setting: the dial bound on a network slower than the default's",
	"transport.Options.CallTimeout":  "deployment setting: the round-trip bound past which a stalled worker counts as unreachable",
	"serve.Config.MaxFrame":          "deployment setting: the request frame cap of a daemon serving larger batches",
	"serve.RefreshConfig.ScratchDir": "deployment setting: where refresh checkpoints go when the OS temp dir is too small",
	"serve.RefreshConfig.OnRefresh":  "test hook: the refresh tests wait on it instead of sleeping",
	"core.Options.Eta0":              "benchmark/probes.go reads it (ROADMAP item 2); the solvers start η from it",
}

// TestOptionFieldsAreSet keeps every knob the size of its callers: each
// exported field of knobStructs must be set by a non-test file of the root
// module or of benchmark/ outside the declaring package — as the key of a
// composite literal of that type, of an alias of it or of an elided type, or
// as the field of an assignment or increment target — or be a knobVehicles
// entry. Matching is on the syntax tree. Assignment targets match by field
// name, except inside a package that declares a knob struct with a field of
// that name, where they are taken as that package defaulting its own field.
func TestOptionFieldsAreSet(t *testing.T) {
	_, files, dirOf := parseNonTestFiles(t)

	// Declarations: "pkg.Type.Field" → declared, for the exported fields of
	// each knob struct (an embedded struct is the field of its type's name).
	declared := map[string]bool{}
	fieldsOf := map[typeKey][]string{}
	pkgOf := map[string]string{}
	for _, k := range knobStructs {
		for _, f := range files {
			if dirOf[f] != k.dir {
				continue
			}
			pkgOf[k.dir] = f.Name.Name
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != k.typ {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return false
				}
				for _, fl := range st.Fields.List {
					names := fl.Names
					if len(names) == 0 { // embedded: the field is named by its type
						typ := fl.Type
						if star, ok := typ.(*ast.StarExpr); ok {
							typ = star.X
						}
						switch e := typ.(type) {
						case *ast.Ident:
							names = []*ast.Ident{e}
						case *ast.SelectorExpr:
							names = []*ast.Ident{e.Sel}
						}
					}
					for _, name := range names {
						if name.IsExported() {
							fieldsOf[k] = append(fieldsOf[k], name.Name)
						}
					}
				}
				return false
			})
		}
		if len(fieldsOf[k]) == 0 {
			t.Fatalf("found no exported fields of %s.%s: the scan is broken", k.dir, k.typ)
		}
		for _, field := range fieldsOf[k] {
			declared[pkgOf[k.dir]+"."+k.typ+"."+field] = true
		}
	}

	// importsOf maps f's local package names to directories of this module.
	importsOf := func(f *ast.File) map[string]string {
		imports := map[string]string{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			d, ok := strings.CutPrefix(p, "distenc/")
			if p == "distenc" {
				d, ok = ".", true
			}
			if !ok {
				continue
			}
			local := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = d
		}
		return imports
	}
	// Aliases of knob structs (the root package re-exports core's options).
	alias := map[typeKey]typeKey{}
	for _, f := range files {
		imports := importsOf(f)
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Assign.IsValid() {
				if sel, ok := ts.Type.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
						alias[typeKey{dirOf[f], ts.Name.Name}] = typeKey{imports[x.Name], sel.Sel.Name}
					}
				}
			}
			return true
		})
	}
	// ownField reports whether dir declares a knob struct with the field.
	ownField := func(dir, field string) bool {
		for k, fields := range fieldsOf {
			if k.dir == dir && slices.Contains(fields, field) {
				return true
			}
		}
		return false
	}

	// Setters: per field name, the directory of each file that sets a field
	// of that name and the composite literal's type (zero for an assignment
	// or an elided literal type, which match any struct).
	type setter struct {
		from string
		lit  typeKey
	}
	sets := map[string][]setter{}
	for _, f := range files {
		dir := dirOf[f]
		imports := importsOf(f)
		markTarget := func(e ast.Expr) {
			if sel, ok := e.(*ast.SelectorExpr); ok && !ownField(dir, sel.Sel.Name) {
				sets[sel.Sel.Name] = append(sets[sel.Sel.Name], setter{from: dir})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				var lit typeKey
				switch e := n.Type.(type) {
				case *ast.Ident:
					lit = typeKey{dir, e.Name}
				case *ast.SelectorExpr:
					if x, ok := e.X.(*ast.Ident); ok {
						lit = typeKey{imports[x.Name], e.Sel.Name}
					}
				}
				if to, ok := alias[lit]; ok {
					lit = to
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							sets[k.Name] = append(sets[k.Name], setter{dir, lit})
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markTarget(lhs)
				}
			case *ast.IncDecStmt:
				markTarget(n.X)
			}
			return true
		})
	}
	setOutside := func(k typeKey, field string) bool {
		for _, s := range sets[field] {
			if s.from != k.dir && (s.lit == typeKey{} || s.lit == k) {
				return true
			}
		}
		return false
	}

	for _, k := range knobStructs {
		for _, field := range fieldsOf[k] {
			key := pkgOf[k.dir] + "." + k.typ + "." + field
			_, vehicle := knobVehicles[key]
			switch set := setOutside(k, field); {
			case !set && !vehicle:
				t.Errorf("%s is set by no non-test file outside %s: delete it, or give it a caller", key, k.dir)
			case set && vehicle:
				t.Errorf("%s is set outside %s now: drop it from knobVehicles", key, k.dir)
			}
		}
	}
	for key := range knobVehicles {
		if !declared[key] {
			t.Errorf("knobVehicles lists %s, which is not a declared field of a knob struct", key)
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
