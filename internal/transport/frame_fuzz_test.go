package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"distenc/internal/framerpc"
	"distenc/internal/rdd"
)

// FuzzReadFrame hammers the transport's wire path with arbitrary byte
// streams: the length-prefixed frame reader must never panic, never allocate
// from a prefix beyond its limit, never return a payload longer than the
// prefix promised, and must classify every torn input as io.ErrUnexpectedEOF
// rather than handing a short frame to the header parser — framerpc's, which
// is run on every successfully read frame, since that is exactly what the
// server loop does with a request and a client connection with a response.
// CI runs this target for a 30-second smoke on every push, alongside
// FuzzDecodeRecord.
func FuzzReadFrame(f *testing.F) {
	// Well-formed seeds: a framed request, a framed response, a hello, an
	// empty frame, and back-to-back frames in one stream.
	req := putFrame(7, []rdd.BlockID{{Kind: rdd.BlockShuffle, Owner: 42, Map: 3, Reduce: -1}}, [][]byte{[]byte("block payload")})
	f.Add(rdd.AppendFrame(nil, req))
	resp := append(framerpc.AppendHeader(nil, 7, framerpc.StatusOK), "fetched bytes"...)
	f.Add(rdd.AppendFrame(nil, resp))
	f.Add(rdd.AppendFrame(nil, helloFrame))
	f.Add(rdd.AppendFrame(nil, nil))
	f.Add(rdd.AppendFrame(rdd.AppendFrame(nil, req), resp))

	// Torn-header seeds: every truncation point inside the length prefix.
	f.Add([]byte{})
	f.Add([]byte{0x05})
	f.Add([]byte{0x05, 0x00})
	f.Add([]byte{0x05, 0x00, 0x00})

	// Truncated payloads: prefix promises more than the stream carries.
	f.Add([]byte{0x05, 0x00, 0x00, 0x00})
	f.Add([]byte{0x05, 0x00, 0x00, 0x00, 'a', 'b'})
	short := rdd.AppendFrame(nil, req)
	f.Add(short[:len(short)-3])

	// Oversize prefixes: just above the fuzz limit, u32 max, and a prefix
	// that would pass a naive signed compare.
	oversize := binary.LittleEndian.AppendUint32(nil, fuzzMaxFrame+1)
	f.Add(append(oversize, make([]byte, 16)...))
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF))
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<31))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			payload, err := rdd.ReadFrame(r, fuzzMaxFrame)
			if err != nil {
				if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					return // clean end of stream at a frame boundary
				}
				if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, rdd.ErrFrameTooLarge) {
					return // torn or oversize input, correctly classified
				}
				t.Fatalf("ReadFrame returned unclassified error %v for %d-byte input", err, len(data))
			}
			if len(payload) > fuzzMaxFrame {
				t.Fatalf("ReadFrame returned %d bytes, above its %d limit", len(payload), fuzzMaxFrame)
			}
			// Feed every complete frame to the header parser, as the server
			// loop and a client connection would; it must reject a short
			// frame with an error, never slice out of bounds.
			id, code, body, err := framerpc.ParseHeader(payload)
			if err != nil {
				if len(payload) >= framerpc.HeaderLen {
					t.Fatalf("ParseHeader refused a %d-byte frame: %v", len(payload), err)
				}
				continue
			}
			if reenc := append(framerpc.AppendHeader(nil, id, code), body...); !bytes.Equal(reenc, payload) {
				t.Fatalf("header did not round-trip: %x -> %x", payload, reenc)
			}
		}
	})
}

// fuzzMaxFrame keeps fuzz allocations small while still exercising the
// limit check: oversize prefixes are cheap to craft below u32 max.
const fuzzMaxFrame = 1 << 16

// putFrame is a whole put request frame (sans length prefix): what a call
// writes as one writev, concatenated.
func putFrame(reqID uint64, ids []rdd.BlockID, images [][]byte) []byte {
	frame := appendRequest(framerpc.AppendHeader(nil, reqID, opPut), request{op: opPut, ids: ids, images: images})
	return append(frame, bytes.Join(images, nil)...)
}

// FuzzParseBlockTable feeds arbitrary bytes to the two readers of a block
// table — parseBlockTable, which the server runs on a put or get request body
// it holds whole, and readBlocks, which the client runs on a get response as
// it streams in — as the body of a frame of exactly that length. Neither may
// panic, allocate from a count or length the body cannot back, or accept a
// table whose lengths do not account for the body's image bytes exactly; and
// they must agree: what one accepts the other reads to the same images.
func FuzzParseBlockTable(f *testing.F) {
	ids := []rdd.BlockID{{Kind: rdd.BlockShuffle, Owner: 9, Map: 1, Reduce: 2}, {Kind: 2, Owner: 10}}
	body := func(lens []uint32, images string) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(lens)))
		for i, n := range lens {
			b = appendBlockEntry(b, ids[i%len(ids)], n)
		}
		return append(b, images...)
	}
	f.Add(body([]uint32{5, 3}, "helloabc"))                     // well-formed
	f.Add(body([]uint32{0, 8}, "helloabc"))                     // zero-length block
	f.Add(body([]uint32{lenNotHeld, 8}, "helloabc"))            // a block not held
	f.Add(body(nil, ""))                                        // empty table
	f.Add(body([]uint32{5, 3}, "helloabcX"))                    // trailing byte
	f.Add(body([]uint32{5, 4}, "helloabc"))                     // image bytes short
	f.Add(body([]uint32{1 << 31, 1 << 31, 8}, "helloabc"))      // length sum wraps u32 to 8
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF))    // count overflow
	f.Add(binary.LittleEndian.AppendUint32(nil, 0x0C30C30D))    // count × 21 wraps u32
	f.Add(body([]uint32{5, 3}, "helloabc")[:4+blockEntryLen+3]) // table longer than frame
	f.Add([]byte{2, 0})                                         // no count

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, images, err := parseBlockTable(data)
		var asked []rdd.BlockID
		if err == nil {
			sum := 0
			for i := 0; i < entries.count(); i++ {
				id, n := entries.at(i)
				asked = append(asked, id)
				if n != lenNotHeld {
					sum += int(n)
				}
			}
			if sum != len(images) || 4+len(entries)+len(images) != len(data) {
				t.Fatalf("accepted a table of %d entries accounting for %d image bytes over %d (body %d)", entries.count(), sum, len(images), len(data))
			}
		}
		// The streamed reader is asked for the blocks the table names (it
		// refuses any other answer), or for one block when there is no table.
		if err != nil {
			asked = []rdd.BlockID{{}}
		}
		got := make([][]byte, len(asked))
		_, rerr := readBlocks(bytes.NewReader(data), len(data), asked, got, nil)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("parseBlockTable: %v, readBlocks: %v", err, rerr)
		}
		if err != nil {
			return
		}
		for i := range asked {
			_, n := entries.at(i)
			if n == lenNotHeld {
				if got[i] != nil {
					t.Fatalf("block %d not held, yet read %d bytes", i, len(got[i]))
				}
				continue
			}
			if got[i] == nil || !bytes.Equal(got[i], images[:n]) {
				t.Fatalf("block %d read as %q, the body holds %q", i, got[i], images[:n])
			}
			images = images[n:]
		}
	})
}
