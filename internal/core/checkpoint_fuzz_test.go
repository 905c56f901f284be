package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzReadCheckpoint feeds arbitrary files to the checkpoint reader, the
// decoder an operator-named path reaches through the serving plane's admin
// API. It must never panic; what it accepts must be exactly what
// writeCheckpoint writes for the state it decoded, and the factors-only
// reader must accept the same files and decode the same factors bit for bit.
// Both must refuse an image whose factors hold a NaN or ±Inf, naming the
// mode and row refNonFiniteFactor finds in the bytes, and accept none it
// finds one in. Seeded with a tiny solve's image, its truncations at every
// structural boundary, the image with a NaN in its last factor row, and a
// 36-byte header whose matrix size wraps uint64. CI runs this target for a
// 30-second smoke on every push.
func FuzzReadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	ts := randomTensor([]int{4, 3, 2}, 12, rand.New(rand.NewPCG(3, 4)))
	ts.Dedupe()
	if _, err := Complete(ts, nil, Options{Rank: 2, MaxIter: 2, Tol: -1, CheckpointEvery: 1, CheckpointDir: dir}); err != nil {
		f.Fatal(err)
	}
	img, err := os.ReadFile(CheckpointPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	for _, n := range []int{0, 4, 8, 24, 31, 32, 36, 44, len(img) - 8, len(img) - 1} {
		f.Add(img[:n])
	}
	f.Add(wrappingCheckpointHeader())
	nan := append([]byte(nil), img...)
	// The order-3 header and its mode sizes; three equal groups follow.
	head := 32 + 4*3
	binary.LittleEndian.PutUint64(nan[head+(len(nan)-head)/3-8:], 0x7ff8000000000001) // the last factor entry
	f.Add(nan)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.ckpt")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		ck, err := ReadCheckpoint(path)
		fck, ferr := ReadCheckpointFactors(path)
		if (err == nil) != (ferr == nil) {
			t.Fatalf("ReadCheckpoint err = %v, ReadCheckpointFactors err = %v", err, ferr)
		}
		if err != nil {
			if strings.Contains(err.Error(), "non-finite") {
				n, row, found := refNonFiniteFactor(data)
				at := fmt.Sprintf("mode %d, row %d ", n, row)
				if !found || !strings.Contains(err.Error(), at) || !strings.Contains(ferr.Error(), at) {
					t.Fatalf("refused with %q and %q; the reference finds a non-finite factor: %v, at %s", err, ferr, found, at)
				}
			}
			return
		}
		if n, row, found := refNonFiniteFactor(data); found {
			t.Fatalf("accepted an image whose factor mode %d row %d holds a non-finite entry", n, row)
		}
		out := filepath.Join(dir, "out")
		if err := writeCheckpoint(out, &checkpointState{iter: ck.Iter, eta: ck.Eta, factors: ck.Factors, aux: ck.Aux, mult: ck.Duals}); err != nil {
			t.Fatal(err)
		}
		again, err := os.ReadFile(CheckpointPath(out))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes that re-encode to %d different bytes", len(data), len(again))
		}
		if fck.Aux != nil || fck.Duals != nil || len(fck.Factors) != len(ck.Factors) {
			t.Fatalf("factors-only read holds %d factors, aux %v, duals %v", len(fck.Factors), fck.Aux != nil, fck.Duals != nil)
		}
		for n, a := range ck.Factors {
			b := fck.Factors[n]
			if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
				t.Fatalf("mode %d: %d×%d against %d×%d", n, a.Rows(), a.Cols(), b.Rows(), b.Cols())
			}
			for i, v := range a.Data() {
				if math.Float64bits(v) != math.Float64bits(b.Data()[i]) {
					t.Fatalf("mode %d entry %d: %x against %x", n, i, math.Float64bits(v), math.Float64bits(b.Data()[i]))
				}
			}
		}
	})
}

// refNonFiniteFactor is the readers' finiteness rule written against the
// image bytes of a well-formed image: the mode and row of the first factor
// entry, in file order, that is NaN or ±Inf.
func refNonFiniteFactor(img []byte) (mode, row int, found bool) {
	le := binary.LittleEndian
	order, rank := int(le.Uint32(img[24:])), int(le.Uint32(img[28:]))
	off := 32 + 4*order
	for n := 0; n < order; n++ {
		rows := int(le.Uint32(img[32+4*n:]))
		for i := 0; i < rows*rank; i++ {
			v := math.Float64frombits(le.Uint64(img[off:]))
			off += 8
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return n, i / rank, true
			}
		}
	}
	return 0, 0, false
}
