package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"distenc/internal/analysis"
	"distenc/internal/analysis/analysistest"
	"distenc/internal/analysis/framework"
)

// seededDefect is a small edit to one production file that exactly one
// analyzer of the suite exists to catch. old must occur exactly once in the
// file, so a row breaks loudly when the code it names moves.
type seededDefect struct {
	name     string
	pkg      string // import path
	file     string // base name within the package
	old, new string
	analyzer string
	want     string // regexp over the diagnostic message
}

// seededDefects pins every rule of the suite to edits of the real tree. Each
// row's edit is recorded in EXPERIMENTS.md ("The analyzer census") with what
// else — go build, go vet, a Tier-1 test — catches it; DESIGN.md §8 keeps one
// line per rule.
var seededDefects = []seededDefect{
	// rddcapture: the Spark task boundary.
	{
		name: "als-task-captures-cluster",
		pkg:  "distenc/internal/baselines", file: "als.go",
		old:      "\t\t\ttc.CountShuffled(replica)\n",
		new:      "\t\t\tc.Metrics().BytesShuffled.Add(replica)\n",
		analyzer: "rddcapture", want: `captures driver-side mutable state "c" \(\*distenc/internal/rdd\.Cluster\)`,
	},
	{
		name: "flexifact-task-writes-epoch-sum",
		pkg:  "distenc/internal/baselines", file: "flexifact.go",
		old:      "\t\t\t\t\t\tsq += err * err\n",
		new:      "\t\t\t\t\t\tepochSq += err * err\n",
		analyzer: "rddcapture", want: `writes to captured driver-side variable "epochSq"`,
	},
	{
		name: "flexifact-task-reads-driver-strata",
		pkg:  "distenc/internal/baselines", file: "flexifact.go",
		old:      "\t\t\t\tfor _, blk := range in {\n",
		new:      "\t\t\t\tfor _, blk := range strata[b] {\n",
		analyzer: "rddcapture", want: `captures driver-side mutable state "strata"`,
	},

	// hotalloc: Algorithm 3's allocation-free kernel and its stage.
	{
		name: "bstep-copies-rows",
		pkg:  "distenc/internal/graph", file: "graph.go",
		old:      "\t\tai, yi := a[i*rank:][:len(out)], y[i*rank:][:len(out)]\n",
		new:      "\t\tai, yi := append([]float64(nil), a[i*rank:][:len(out)]...), y[i*rank:][:len(out)]\n",
		analyzer: "hotalloc", want: `append inside a hot-path loop`,
	},
	{
		name: "fused-kernel-heap-suffix",
		pkg:  "distenc/internal/core", file: "mttkrp.go",
		old:      "\tleft, suf, rows := s.left, s.suf[:rank], s.rows\n",
		new:      "\tleft, suf, rows := s.left, make([]float64, rank), s.rows\n",
		analyzer: "hotalloc", want: `make allocates from the heap in a //distenc:hotpath body`,
	},
	{
		name: "vector-kernel-heap-prefix",
		pkg:  "distenc/internal/core", file: "kernel_amd64.go",
		old:      "s.left[rank:3*rank],\n",
		new:      "make([]float64, 2*rank),\n",
		analyzer: "hotalloc", want: `make inside a hot-path loop`,
	},
	{
		name: "map-task-heap-accumulators",
		pkg:  "distenc/internal/core", file: "mttkrp.go",
		old:      "\t\tacc := ms.acc\n",
		new:      "\t\tacc := make([][]float64, l.order)\n",
		analyzer: "hotalloc", want: `make allocates from the heap in a //distenc:hotpath body`,
	},
	{
		name: "reduce-task-heap-records",
		pkg:  "distenc/internal/core", file: "mttkrp.go",
		old:      "\t\tout := rs.out[:l.order]\n",
		new:      "\t\tout := make([]HRows, l.order, l.order+1)\n",
		analyzer: "hotalloc", want: `make allocates from the heap in a //distenc:hotpath body`,
	},

	// bytecount: Lemma 3's byte accounting.
	{
		name: "als-replica-poked-into-metrics",
		pkg:  "distenc/internal/baselines", file: "als.go",
		old:      "\t\t\ttc.CountShuffled(replica)\n",
		new:      "\t\t\tc.Metrics().BytesShuffled.Add(replica)\n",
		analyzer: "bytecount", want: `direct Add on rdd.Metrics.BytesShuffled`,
	},
	{
		name: "flexifact-rows-poked-into-metrics",
		pkg:  "distenc/internal/baselines", file: "flexifact.go",
		old:      "\t\t\t\ttc.CountShuffled(2 * shipped)\n",
		new:      "\t\t\t\tc.Metrics().BytesShuffled.Add(2 * shipped)\n",
		analyzer: "bytecount", want: `direct Add on rdd.Metrics.BytesShuffled`,
	},
	{
		name: "mttkrp-rows-poked-into-metrics",
		pkg:  "distenc/internal/core", file: "mttkrp.go",
		old:      "\t\ttc.CountShuffled(shipSizes[p])\n",
		new:      "\t\tc.Metrics().BytesShuffled.Add(shipSizes[p])\n",
		analyzer: "bytecount", want: `direct Add on rdd.Metrics.BytesShuffled`,
	},

	// floatcmp: tolerance-based convergence (Eq. 17).
	{
		name: "solver-stops-on-exact-delta",
		pkg:  "distenc/internal/core", file: "serial.go",
		old:      "\tif delta < st.opt.Tol {\n",
		new:      "\tif delta == st.opt.Tol {\n",
		analyzer: "floatcmp", want: `exact == between floats`,
	},
	{
		name: "als-stops-on-exact-delta",
		pkg:  "distenc/internal/baselines", file: "als.go",
		old:      "\t\tif maxDelta < opt.Tol {\n",
		new:      "\t\tif maxDelta == opt.Tol {\n",
		analyzer: "floatcmp", want: `exact == between floats`,
	},
	{
		name: "validate-misses-nan",
		pkg:  "distenc/internal/sptensor", file: "sptensor.go",
		old:      "\t\tif !(math.Abs(v) <= math.MaxFloat64) { // false for ±Inf and NaN\n",
		new:      "\t\tif math.Abs(v) == math.Inf(1) {\n",
		analyzer: "floatcmp", want: `exact == between floats`,
	},

	// lockorder: no blocking under a mutex, no lock-order cycles.
	{
		name: "close-quiesces-under-cluster-lock",
		pkg:  "distenc/internal/rdd", file: "cluster.go",
		old:      "\tc.Quiesce()\n\tc.mu.Lock()\n",
		new:      "\tc.mu.Lock()\n\tc.Quiesce()\n",
		analyzer: "lockorder", want: `blocking call to Quiesce while holding Cluster\.mu`,
	},
	{
		name: "retire-drops-remote-blocks-under-exchange-lock",
		pkg:  "distenc/internal/rdd", file: "shuffle.go",
		old:      "\te.blocks, e.lens = nil, nil\n\te.mu.Unlock()\n",
		new:      "\te.blocks, e.lens = nil, nil\n\tdefer e.mu.Unlock()\n",
		analyzer: "lockorder", want: `blocking call to dropRemoteBlocks while holding exchange\.mu`,
	},
	{
		name: "shutdown-waits-under-server-lock",
		pkg:  "distenc/internal/framerpc", file: "server.go",
		old:      "\ts.mu.Unlock()\n\ts.wg.Wait()\n",
		new:      "\ts.wg.Wait()\n\ts.mu.Unlock()\n",
		analyzer: "lockorder", want: `sync\.WaitGroup\.Wait while holding Server\.mu`,
	},
	{
		name: "accept-under-server-lock",
		pkg:  "distenc/internal/framerpc", file: "server.go",
		old:      "\t\tconn, err := s.ln.Accept()\n\t\ts.mu.Lock()\n",
		new:      "\t\ts.mu.Lock()\n\t\tconn, err := s.ln.Accept()\n",
		analyzer: "lockorder", want: `net Listener\.Accept I/O while holding Server\.mu`,
	},
	{
		name: "cache-recheck-under-part-lock",
		pkg:  "distenc/internal/rdd", file: "rdd.go",
		old:      "\tif cp.done {\n\t\treturn cp.items, nil\n\t}\n",
		new:      "\tr.cacheMu.Lock()\n\tcached = r.cached\n\tr.cacheMu.Unlock()\n\tif cp.done && cached {\n\t\treturn cp.items, nil\n\t}\n",
		analyzer: "lockorder", want: `lock-order cycle: RDD\.cacheMu is acquired while cachedPart\.mu is held`,
	},

	// goroutineowner: every go statement has a lifetime.
	{
		name: "spec-launch-recorded-async",
		pkg:  "distenc/internal/rdd", file: "speculation.go",
		old:      "\t\t\tst.addSpecLaunch(p, m, elapsed, cutoff)\n",
		new:      "\t\t\tgo st.addSpecLaunch(p, m, elapsed, cutoff)\n",
		analyzer: "goroutineowner", want: `unowned goroutine`,
	},
	{
		name: "rdd-eviction-recorded-async",
		pkg:  "distenc/internal/rdd", file: "rdd.go",
		old:      "\t\tr.c.recordRecovery(RecoveryEvent{\n",
		new:      "\t\tgo r.c.recordRecovery(RecoveryEvent{\n",
		analyzer: "goroutineowner", want: `unowned goroutine`,
	},
	{
		name: "accept-loop-drops-wg-add",
		pkg:  "distenc/internal/framerpc", file: "server.go",
		old:      "\t\ts.wg.Add(1)\n",
		new:      "\n",
		analyzer: "goroutineowner", want: `unowned goroutine`,
	},
	{
		name: "unpersist-cleans-up-async",
		pkg:  "distenc/internal/rdd", file: "rdd.go",
		old:      "\t\tcleanup()\n",
		new:      "\t\tgo cleanup()\n",
		analyzer: "goroutineowner", want: `unowned goroutine`,
	},
	{
		name: "close-retires-async",
		pkg:  "distenc/internal/rdd", file: "cluster.go",
		old:      "\t\t\tex.retire()\n",
		new:      "\t\t\tgo ex.retire()\n",
		analyzer: "goroutineowner", want: `unowned goroutine`,
	},
}

// TestAnalyzersCatchSeededDefects applies each seeded defect to its package
// in memory and checks that the package still type-checks and that the row's
// analyzer flags it — and that the untouched packages draw no diagnostic from
// any analyzer.
func TestAnalyzersCatchSeededDefects(t *testing.T) {
	byName := map[string]*framework.Analyzer{}
	for _, a := range analysis.All() {
		byName[a.Name] = a
	}
	var paths []string
	for _, d := range seededDefects {
		if byName[d.analyzer] == nil {
			t.Fatalf("%s: no analyzer named %s", d.name, d.analyzer)
		}
		paths = append(paths, d.pkg)
	}
	pkgs := analysistest.List(t, paths...)

	// load parses pkg's non-test files, with file's source replaced by src
	// when src is not nil.
	sources := map[string]string{}
	load := func(pkg *analysistest.Package, file string, src []byte) (*token.FileSet, []*ast.File) {
		fset := token.NewFileSet()
		var files []*ast.File
		for _, name := range pkg.GoFiles {
			path := filepath.Join(pkg.Dir, name)
			var text any
			if name == file && src != nil {
				text = src
			}
			f, err := parser.ParseFile(fset, path, text, parser.ParseComments)
			if err != nil {
				t.Fatalf("parsing %s: %v", path, err)
			}
			files = append(files, f)
		}
		return fset, files
	}
	clean := map[string]bool{}
	for _, d := range seededDefects {
		pkg := pkgs[d.pkg]
		if pkg == nil {
			t.Fatalf("%s: go list did not report %s", d.name, d.pkg)
		}
		if !clean[d.pkg] {
			clean[d.pkg] = true
			fset, files := load(pkg, "", nil)
			for _, diag := range analysistest.Check(t, fset, d.pkg, files, pkgs, analysis.All()...) {
				t.Errorf("untouched %s: %s: %s", d.pkg, fset.Position(diag.Pos), diag.Message)
			}
		}
		key := filepath.Join(pkg.Dir, d.file)
		if _, ok := sources[key]; !ok {
			b, err := os.ReadFile(key)
			if err != nil {
				t.Fatal(err)
			}
			sources[key] = string(b)
		}
	}

	for _, d := range seededDefects {
		t.Run(d.analyzer+"/"+d.name, func(t *testing.T) {
			pkg := pkgs[d.pkg]
			src := sources[filepath.Join(pkg.Dir, d.file)]
			if n := strings.Count(src, d.old); n != 1 {
				t.Fatalf("%s: the seeded text occurs %d times in %s, want exactly once:\n%s", d.name, n, d.file, d.old)
			}
			fset, files := load(pkg, d.file, []byte(strings.Replace(src, d.old, d.new, 1)))
			want := regexp.MustCompile(d.want)
			diags := analysistest.Check(t, fset, d.pkg, files, pkgs, byName[d.analyzer])
			for _, diag := range diags {
				if want.MatchString(diag.Message) {
					return
				}
			}
			for _, diag := range diags {
				t.Logf("%s: %s", fset.Position(diag.Pos), diag.Message)
			}
			t.Errorf("%s in %s draws no %s diagnostic matching %q", d.name, d.file, d.analyzer, d.want)
		})
	}
}
