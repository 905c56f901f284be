package serve

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzMaxReply is the reply limit FuzzParsePredictBody decodes under.
const fuzzMaxReply = 1 << 12

// FuzzParsePredictBody feeds arbitrary bytes to the one decoder a predict
// client's socket reaches. It must never panic, and what it accepts it must
// have sized from the bytes that are really there — never from the count or
// the name length the body merely claims —, must fit its reply in the limit
// (fuzzMaxReply), and must re-encode to the same bytes. The indices decode
// into a handler's scratch, here one that holds a previous request's four
// indices, which must not show through.
func FuzzParsePredictBody(f *testing.F) {
	body := func(nameLen uint16, name string, order uint16, count uint32, idx ...uint32) []byte {
		b := binary.LittleEndian.AppendUint16(nil, nameLen)
		b = append(b, name...)
		b = binary.LittleEndian.AppendUint16(b, order)
		b = binary.LittleEndian.AppendUint32(b, count)
		for _, v := range idx {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	f.Add(body(1, "m", 3, 2, 1, 2, 3, 4, 5, 6)) // well-formed
	f.Add(body(0, "", 1, 0))                    // no name, no cells
	f.Add(body(500, "m", 3, 1, 1, 2, 3))        // name length past the body
	f.Add(body(1, "m", 0, 2, 1, 2))             // order 0
	f.Add(body(1, "m", 3, 2, 1, 2, 3, 4, 5))    // count·order·4 above the bytes that follow
	f.Add(body(1, "m", 3, 1, 1, 2, 3, 4))       // and below them
	f.Add(body(1, "m", 1, 1<<30))               // count·order·4 wraps 32 bits to 0
	f.Add(body(1, "m", 4, 1<<28+1, 1, 2, 3, 4)) // … and to 16
	f.Add(body(1, "m", 0xFFFF, 0xFFFFFFFF))     // the largest product
	f.Add([]byte{1})                            // no name length
	f.Add(body(0, "", 1, fuzzMaxReply/8+1))     // one cell past the reply limit

	f.Fuzz(func(t *testing.T, data []byte) {
		name, order, flat, err := parsePredictBody(data, []int32{-1, -1, -1, -1}, fuzzMaxReply)
		if err != nil {
			return
		}
		if order <= 0 || len(flat)%order != 0 || 2+len(name)+6+4*len(flat) != len(data) || 8*len(flat)/order > fuzzMaxReply {
			t.Fatalf("accepted a %d-byte body as name %q, order %d, %d indices", len(data), name, order, len(flat))
		}
		if reenc := appendPredictBody(nil, string(name), order, flat); !bytes.Equal(reenc, data) {
			t.Fatalf("body did not round-trip: %x -> %x", data, reenc)
		}
	})
}
