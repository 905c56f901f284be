package core

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distenc/internal/mat"
)

// writeTestCheckpoint persists a small known solver image and returns its
// path and state.
func writeTestCheckpoint(t *testing.T) (string, *checkpointState) {
	t.Helper()
	dir := t.TempDir()
	st := &checkpointState{
		iter: 7,
		eta:  1.5,
		factors: []*mat.Dense{
			mat.NewDenseData(3, 2, []float64{1, 2, 3, 4, 5, 6}),
			mat.NewDenseData(2, 2, []float64{7, 8, 9, 10}),
		},
		aux: []*mat.Dense{
			mat.NewDenseData(3, 2, []float64{11, 12, 13, 14, 15, 16}),
			mat.NewDenseData(2, 2, []float64{17, 18, 19, 20}),
		},
		mult: []*mat.Dense{
			mat.NewDenseData(3, 2, []float64{21, 22, 23, 24, 25, 26}),
			mat.NewDenseData(2, 2, []float64{27, 28, 29, 30}),
		},
	}
	if err := writeCheckpoint(dir, st); err != nil {
		t.Fatal(err)
	}
	return CheckpointPath(dir), st
}

// wrappingCheckpointHeader is a 36-byte image: magic, version 1, order 1,
// rank 2³¹, one mode of 2³¹ rows, and no matrix data.
func wrappingCheckpointHeader() []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, ckptMagic)
	b = le.AppendUint32(b, ckptVersion)
	b = le.AppendUint64(b, 0) // iter
	b = le.AppendUint64(b, 0) // eta
	b = le.AppendUint32(b, 1) // order
	b = le.AppendUint32(b, 1<<31)
	return le.AppendUint32(b, 1<<31)
}

func TestReadCheckpointRoundTrip(t *testing.T) {
	path, st := writeTestCheckpoint(t)
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Iter != st.iter || math.Float64bits(ck.Eta) != math.Float64bits(st.eta) {
		t.Fatalf("got iter=%d eta=%v, want iter=%d eta=%v", ck.Iter, ck.Eta, st.iter, st.eta)
	}
	if ck.Rank() != 2 {
		t.Fatalf("rank = %d, want 2", ck.Rank())
	}
	if d := ck.Dims(); len(d) != 2 || d[0] != 3 || d[1] != 2 {
		t.Fatalf("dims = %v, want [3 2]", d)
	}
	for gi, pair := range [][2][]*mat.Dense{{ck.Factors, st.factors}, {ck.Aux, st.aux}, {ck.Duals, st.mult}} {
		got, want := pair[0], pair[1]
		for n := range want {
			gd, wd := got[n].Data(), want[n].Data()
			for i := range wd {
				if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
					t.Fatalf("group %d mode %d entry %d = %v, want %v", gi, n, i, gd[i], wd[i])
				}
			}
		}
	}
	// The Kruskal view must evaluate exactly as a hand-built one.
	want := ck.Factors[0].At(1, 0)*ck.Factors[1].At(1, 0) + ck.Factors[0].At(1, 1)*ck.Factors[1].At(1, 1)
	if got := ck.Model().At([]int32{1, 1}); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Model().At = %v, want %v", got, want)
	}
}

// TestReadCheckpointRefusesNonFiniteFactors: a NaN or +Inf in a factor
// matrix makes both readers refuse the image, naming the group, the mode
// and the row, so a diverged model can never be loaded for serving or
// resumed.
func TestReadCheckpointRefusesNonFiniteFactors(t *testing.T) {
	for _, tc := range []struct {
		name      string
		mode, row int
		v         float64
		want      string
	}{
		{"NaN", 0, 2, math.NaN(), "group factors, mode 0, row 2 holds the non-finite entry NaN"},
		{"+Inf", 1, 1, math.Inf(1), "group factors, mode 1, row 1 holds the non-finite entry +Inf"},
	} {
		path, st := writeTestCheckpoint(t)
		st.factors[tc.mode].Set(tc.row, 1, tc.v)
		if err := writeCheckpoint(filepath.Dir(path), st); err != nil {
			t.Fatal(err)
		}
		for name, read := range map[string]func(string) (*Checkpoint, error){"ReadCheckpoint": ReadCheckpoint, "ReadCheckpointFactors": ReadCheckpointFactors} {
			if _, err := read(path); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %s: %v, want an error naming %q", tc.name, name, err, tc.want)
			}
		}
	}
}

// TestReadCheckpointRejectsCorruptImages drives the loader through the
// corruption classes an untrusted admin-API path can present: wrong file
// type, wrong version, truncations at every structural boundary, and
// geometry that disagrees with the byte count. Every rejection must name the
// file and say got/want — these errors surface verbatim to serving
// operators.
func TestReadCheckpointRejectsCorruptImages(t *testing.T) {
	path, _ := writeTestCheckpoint(t)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Header layout: magic u32 | version u32 | iter u64 | eta f64 | order u32
	// | rank u32 | dims u32×order | matrices.
	const (
		offMagic   = 0
		offVersion = 4
		offOrder   = 24
		offRank    = 28
		offDims    = 32
	)

	corrupt := func(mutate func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return mutate(b)
	}
	for _, tc := range []struct {
		name string
		img  []byte
		want []string // substrings the error must carry
	}{
		{
			name: "empty file",
			img:  nil,
			want: []string{"truncated checkpoint header", "0 bytes"},
		},
		{
			name: "truncated inside header",
			img:  good[:offOrder-3],
			want: []string{"truncated checkpoint header"},
		},
		{
			name: "bad magic",
			img: corrupt(func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[offMagic:], 0x50444621) // "!FDP"
				return b
			}),
			want: []string{"bad checkpoint magic 0x50444621", "want 0x4454434b", `"DTCK"`},
		},
		{
			name: "not a checkpoint at all",
			img:  []byte("# factors-mode0.txt is not a checkpoint image\n1.5 2.5 3.5\n"),
			want: []string{"bad checkpoint magic", "want 0x4454434b"},
		},
		{
			name: "future version",
			img: corrupt(func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[offVersion:], 99)
				return b
			}),
			want: []string{"version 99", "want 1"},
		},
		{
			name: "zero order",
			img: corrupt(func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[offOrder:], 0)
				return b
			}),
			want: []string{"corrupt checkpoint header", "order=0"},
		},
		{
			name: "absurd order",
			img: corrupt(func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[offOrder:], 4096)
				return b
			}),
			want: []string{"corrupt checkpoint header", "order=4096"},
		},
		{
			name: "zero rank",
			img: corrupt(func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[offRank:], 0)
				return b
			}),
			want: []string{"corrupt checkpoint header", "rank=0"},
		},
		{
			name: "truncated inside dims",
			img:  good[:offDims+2],
			want: []string{"file ends inside"},
		},
		{
			name: "truncated matrix data",
			img:  good[:len(good)-9],
			want: []string{"bytes of matrix data", "truncated or corrupt"},
		},
		{
			name: "trailing garbage",
			img:  append(append([]byte(nil), good...), 0xde, 0xad),
			want: []string{"bytes of matrix data", "want 240"},
		},
		{
			name: "rank inflated past the data",
			img: corrupt(func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[offRank:], 1<<20)
				return b
			}),
			want: []string{"bytes of matrix data", "truncated or corrupt"},
		},
		{
			name: "dim inflated past the data",
			img: corrupt(func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[offDims:], 1<<30)
				return b
			}),
			want: []string{"bytes of matrix data"},
		},
		{
			// 2³¹ rows at rank 2³¹ is 6·2⁶⁴ bytes of matrices: counted in
			// uint64 it wraps to the 0 bytes present and used to reach
			// make([]float64, 2⁶²).
			name: "geometry that wraps uint64",
			img:  wrappingCheckpointHeader(),
			want: []string{"holds 0 bytes of matrix data", "want 110680464442257309696", "truncated or corrupt"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "solver.ckpt")
			if err := os.WriteFile(p, tc.img, 0o600); err != nil {
				t.Fatal(err)
			}
			_, err := ReadCheckpoint(p)
			if err == nil {
				t.Fatal("corrupt checkpoint accepted")
			}
			if !strings.Contains(err.Error(), p) {
				t.Fatalf("error does not name the file:\n%v", err)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("error missing %q:\n%v", w, err)
				}
			}
		})
	}
}

func TestReadCheckpointMissingFile(t *testing.T) {
	_, err := ReadCheckpoint(filepath.Join(t.TempDir(), "nope.ckpt"))
	if err == nil || !os.IsNotExist(err) {
		t.Fatalf("want os.ErrNotExist, got %v", err)
	}
}
