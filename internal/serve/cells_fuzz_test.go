package serve

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

// refCells is the cell-query language stated plainly: lines split on '\n',
// blank and #-comment lines skipped, every other line exactly order fields
// of an optionally signed decimal integer in [0, 2³¹).
func refCells(data []byte, order int) ([]int32, bool) {
	var out []int32
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != order {
			return nil, false
		}
		for _, f := range fields {
			neg := f[0] == '-'
			if f[0] == '+' || neg {
				f = f[1:]
			}
			var v int64
			for _, c := range []byte(f) {
				if c < '0' || c > '9' || v*10+int64(c-'0') > math.MaxInt32 {
					return nil, false
				}
				v = v*10 + int64(c-'0')
			}
			if f == "" || neg && v != 0 {
				return nil, false
			}
			out = append(out, int32(v))
		}
	}
	return out, true
}

// FuzzForEachCell checks the cell-file reader behind the CLI's and the
// admin API's predict input against refCells: the same accept/reject
// decision on any bytes and, on accept, the same cells in the same order.
// CI runs this target for a 30-second smoke on every push.
func FuzzForEachCell(f *testing.F) {
	for _, s := range []string{
		"0 1 2\n3 4 5\n",
		"# header\n\n  7\t8 9  \r\n",
		"1 2\n",
		"1 2 3 4\n",
		"-0 +5 2147483647\n",
		"-1 0 0\n",
		"0 0 2147483648\n",
		"1 2 x\n",
		"1 2 3",
		"1 2 3\n 4 5 6\n",
		"+ 1 2\n",
	} {
		f.Add([]byte(s), uint8(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, order uint8) {
		if order == 0 || order > 8 {
			return
		}
		var got []int32
		err := ForEachCell(bytes.NewReader(data), int(order), func(_ int, idx []int32) error {
			got = append(got, idx...)
			return nil
		})
		want, ok := refCells(data, int(order))
		if (err == nil) != ok {
			t.Fatalf("ForEachCell err = %v, reference accepts: %v", err, ok)
		}
		if ok && !slices.Equal(got, want) {
			t.Fatalf("ForEachCell read %v, reference %v", got, want)
		}
	})
}
