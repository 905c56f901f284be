package rdd

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMapReduceExchangeTouchesNoFiles: a ModeMapReduce exchange is durable
// and in memory. Its disk traffic is a count — every block written once and
// read once, so both counters equal the bytes shuffled — and nothing lands in
// the temporary directory, before or after Close. A machine killed between
// the map and the reduce stage evicts nothing, and the reduce side reads the
// same bits an in-memory run folds.
func TestMapReduceExchangeTouchesNoFiles(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	const parts = 6
	empty := func(when string) {
		t.Helper()
		entries, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("%s: the temporary directory holds %d entries, want none (first %q)", when, len(entries), entries[0].Name())
		}
	}

	mem := testCluster(t, Config{Machines: 3})
	want, err := foldRound(mem, parts, 3).Collect()
	if err != nil {
		t.Fatal(err)
	}

	c := testCluster(t, Config{Machines: 3, Mode: ModeMapReduce})
	r := foldRound(c, parts, 3)
	if err := r.ensureDeps(); err != nil {
		t.Fatal(err)
	}
	empty("after the map stage")
	c.KillMachine(2)
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	assertBits(t, "MapReduce after a kill against in-memory", got, want)
	empty("while the exchange lives")
	m := c.Metrics().Snapshot()
	if m.BytesShuffled == 0 || m.DiskBytesWrite != m.BytesShuffled || m.DiskBytesRead != m.BytesShuffled {
		t.Errorf("DiskBytesWrite %d, DiskBytesRead %d, BytesShuffled %d: want all three equal and non-zero",
			m.DiskBytesWrite, m.DiskBytesRead, m.BytesShuffled)
	}
	if n := countRecoveries(c, RecoveryShuffleEvict, RecoveryShuffleRecompute); n != 0 {
		t.Errorf("the kill recorded %d shuffle recovery event(s): a durable exchange loses nothing", n)
	}
	r.Unpersist()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	empty("after Close")
}

// TestEngineImportsNoFilesystem keeps the engine off the filesystem: no
// non-test file of the package imports os or path/filepath. Durable state
// belongs to the checkpoint writers in internal/core.
func TestEngineImportsNoFilesystem(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "os" || p == "path/filepath" {
				t.Errorf("%s imports %q", fset.Position(imp.Pos()), p)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("checked %d files: the scan is broken", checked)
	}
}
