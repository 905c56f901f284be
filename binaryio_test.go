package distenc

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	ts := GenerateScalability([]int{30, 40, 50}, 500, 9)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ts); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != ts.NNZ() || len(back.Dims) != 3 {
		t.Fatalf("round trip mangled shape: %v", back)
	}
	for e := 0; e < ts.NNZ(); e++ {
		// The codec must be lossless, so compare bit patterns, not values.
		if math.Float64bits(back.Val[e]) != math.Float64bits(ts.Val[e]) {
			t.Fatalf("value %d mismatch", e)
		}
		a, b := ts.Index(e), back.Index(e)
		for m := range a {
			if a[m] != b[m] {
				t.Fatalf("index %d mode %d mismatch", e, m)
			}
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		ts := GenerateScalability([]int{5 + int(n%20), 7, 9}, 1+int(n), seed)
		var buf bytes.Buffer
		if WriteBinary(&buf, ts) != nil {
			return false
		}
		back, err := ReadBinary(&buf)
		if err != nil || back.NNZ() != ts.NNZ() {
			return false
		}
		// Bit-exact round trip implies bit-identical norms.
		return math.Float64bits(back.NormF()) == math.Float64bits(ts.NormF())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("DTZ1"),                           // truncated after magic
		append([]byte("DTZ1"), 0, 0, 0, 0),       // order 0
		append([]byte("DTZ1"), 0xFF, 0xFF, 0, 0), // huge order
		append([]byte("DTZ1"), 2, 0, 0, 0, 0, 0, 0), // truncated dims
		oomHeader, // 2³³ entries promised, none present: must fail at EOF, not allocate
	}
	for i, c := range cases {
		if _, err := ReadBinary(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	// Out-of-range index payload must fail Validate.
	ts := NewTensor(2, 2)
	ts.Append([]int32{1, 1}, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ts); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt the first index to 9 (little-endian int32 right after header:
	// 4 magic + 4 order + 16 dims + 8 nnz = 32).
	raw[32] = 9
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "invalid") {
		t.Fatalf("corrupted payload accepted: %v", err)
	}
}
