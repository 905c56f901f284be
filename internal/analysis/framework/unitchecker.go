package framework

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
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
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// unitConfig is the part of the JSON compilation-unit description 'go vet'
// hands the tool via a *.cfg file that this driver reads. Field names and
// semantics follow the protocol implemented by x/tools' unitchecker (and
// consumed by cmd/go).
type unitConfig struct {
	Compiler                  string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string // import path -> canonical package path
	PackageFile               map[string]string // package path -> export data file
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point of a vet-compatible analysis tool, which always
// runs the whole suite. It speaks the 'go vet -vettool' protocol:
//
//	-V=full    print a content-addressed version line (for build caching)
//	-flags     describe supported flags as JSON
//	foo.cfg    analyze the single compilation unit described by the file
//
// As a convenience, invoking the tool with package patterns instead of a
// .cfg file re-executes `go vet -vettool=<self> <patterns>`, so
// `go run ./cmd/distenc-lint ./...` works directly.
func Main(analyzers ...*Analyzer) {
	progname := filepath.Base(os.Args[0])
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")
	if err := Validate(analyzers); err != nil {
		log.Fatal(err)
	}

	var versionFlag string
	printFlags := flag.Bool("flags", false, "print analyzer flags in JSON")
	flag.StringVar(&versionFlag, "V", "", "print version and exit (-V=full)")
	flag.Parse()

	if versionFlag != "" {
		if versionFlag != "full" {
			log.Fatalf("unsupported flag value: -V=%s", versionFlag)
		}
		printVersion(progname)
		return
	}
	if *printFlags {
		describeFlags()
		return
	}

	args := flag.Args()
	switch {
	case len(args) == 0:
		fmt.Fprintf(os.Stderr, "usage: %s [-flags] [package pattern... | unit.cfg]\n", progname)
		os.Exit(2)
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		runUnit(args[0], analyzers)
	default:
		reexecGoVet(args)
	}
}

// printVersion emits the version line cmd/go hashes into its build cache
// key. Hashing the executable makes the line change whenever the analyzers
// do, so stale vet verdicts are never reused.
func printVersion(progname string) {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%02x\n", progname, h.Sum(nil))
}

// describeFlags prints the flag inventory cmd/go queries before forwarding
// user-supplied vet flags.
func describeFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		if f.Name == "V" {
			return
		}
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

// reexecGoVet turns `distenc-lint ./...` into `go vet -vettool=<self> ./...`
// so the standalone and build-integrated modes share one code path.
func reexecGoVet(patterns []string) {
	self, err := os.Executable()
	if err != nil {
		log.Fatalf("cannot locate own executable for -vettool: %v", err)
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			os.Exit(exit.ExitCode())
		}
		log.Fatal(err)
	}
}

// runUnit analyzes one compilation unit and exits: 0 when clean, 1 when any
// diagnostics were reported (matching unitchecker's convention).
func runUnit(configFile string, analyzers []*Analyzer) {
	cfg, err := readUnitConfig(configFile)
	if err != nil {
		log.Fatal(err)
	}
	// The go command always materializes the facts file for downstream
	// units; none of the suite's analyzers exchange facts, so an empty file
	// both satisfies the protocol and short-circuits VetxOnly dependency
	// units without parsing a line of their source.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			log.Fatalf("failed to write facts output: %v", err)
		}
	}
	if cfg.VetxOnly {
		os.Exit(0)
	}

	fset := token.NewFileSet()
	diags, err := analyzeUnit(fset, cfg, analyzers)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
	os.Exit(0)
}

func readUnitConfig(filename string) (*unitConfig, error) {
	data, err := os.ReadFile(filename)
	if err != nil {
		return nil, err
	}
	cfg := new(unitConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("cannot decode JSON config file %s: %v", filename, err)
	}
	if len(cfg.GoFiles) == 0 {
		return nil, fmt.Errorf("package has no files: %s", cfg.ImportPath)
	}
	return cfg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// analyzeUnit parses and type-checks the unit against the compiler-produced
// export data named in the config, then runs every analyzer over it.
func analyzeUnit(fset *token.FileSet, cfg *unitConfig, analyzers []*Analyzer) ([]Diagnostic, error) {
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil // the compiler will report it
			}
			return nil, err
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	tc := &types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			path, ok := cfg.ImportMap[importPath]
			if !ok {
				return nil, fmt.Errorf("can't resolve import %q", importPath)
			}
			return compilerImporter.Import(path)
		}),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := NewTypesInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, err
	}
	return RunAnalyzers(analyzers, &Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info})
}

// NewTypesInfo returns a types.Info with every map the analyzers rely on
// populated, shared by the vet driver and the analysistest harness.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:        make(map[ast.Expr]types.TypeAndValue),
		Defs:         make(map[*ast.Ident]types.Object),
		Uses:         make(map[*ast.Ident]types.Object),
		Implicits:    make(map[ast.Node]types.Object),
		Instances:    make(map[*ast.Ident]types.Instance),
		Scopes:       make(map[ast.Node]*types.Scope),
		Selections:   make(map[*ast.SelectorExpr]*types.Selection),
		FileVersions: make(map[*ast.File]string),
	}
}

// RunAnalyzers executes each analyzer over the pass template (Analyzer and
// Report are filled per run) and returns all diagnostics sorted by position.
func RunAnalyzers(analyzers []*Analyzer, template *Pass) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := *template
		pass.Analyzer = a
		name := a.Name
		pass.Report = func(d Diagnostic) {
			d.Message = name + ": " + d.Message
			diags = append(diags, d)
		}
		if _, err := a.Run(&pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
