// Package transport is the TCP execution backend for the rdd engine: a block
// server that runs as a real worker process (cmd/distenc-worker, or any
// binary re-execing itself through WorkerHook) and a pooling client that
// implements rdd.Transport for the driver. Workers store bytes
// and compute nothing — tasks still execute on the driver — so the backend is
// a data plane and a fault-realism fixture (kills are process kills,
// "unreachable" is a refused connection), not yet a scale-out.
//
// The wire protocol is deliberately thin. Every message is one
// length-prefixed frame (rdd.WriteFrame / rdd.ReadFrame — u32 little-endian
// byte count, then the payload), and block payloads are carried verbatim:
// the bytes a worker stores and serves are exactly the rdd.BinaryRecord /
// PackedRows v2 block images the engine's codecs produce, so the engine's
// byte accounting and the chaos suite's bit-identical-factors property are
// independent of which backend moved the bytes.
//
// Frame layouts (all integers little-endian):
//
//	hello    (both directions, once per connection)
//	  "DTW" magic | version u8 (2)
//
//	request  reqID u64 | op u8 | body…
//	  put    block table (len = image length) | the images, in table order
//	  get    block table (every len 0)
//	  drop   owner i64
//	  ping, die: empty
//	response reqID u64 | status u8 | body…
//	  get    block table (len = image length, 0xFFFFFFFF = not held) | the images held, in table order
//	  error  the error text
//
//	block table  count u32 | count × (kind u8 | owner i64 | map i32 | reduce i32 | len u32)
//
// Put and get are vectored: a map task stores all of its buckets, and a reduce
// task reads all of its blocks that one worker holds, in one round trip. A
// block crosses each process boundary without a staging copy of the frame: the
// client writes header, table and images with one writev (net.Buffers) and
// reads each fetched image into the buffer its caller supplied; the server
// keeps the request frame it read as the backing store of the blocks in it
// and answers a get from the stored slices. (The 64 KB bufio readers still
// copy images smaller than themselves once; larger reads bypass them.)
//
// A connection carries one call at a time (internal/framerpc): the client
// holds as many connections to a worker as it has calls in flight, and the
// server answers each connection's requests in order, echoing the reqID. The
// framing, the hello exchange, the server loop and its graceful drain are
// framerpc's and shared with the serving plane; this package owns the ops,
// the block table and the block store.
//
// What a reduce task holds while it folds its partition is its own state, the
// partition's encoded input in pool images (rdd's block pool; returned when
// the fold ends) and one decoded block.
package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"distenc/internal/rdd"
)

// helloFrame opens every connection in both directions, so a mis-dialed port
// or a peer built for another protocol version fails loudly instead of
// hanging in the request loop. Version 2 is the vectored put/get protocol;
// version 1 moved one block per request.
var helloFrame = []byte{'D', 'T', 'W', 2}

// Request opcodes.
const (
	opPut  = 1 // store the images under the IDs of the block table
	opGet  = 2 // fetch the blocks of the table; the response carries table and images
	opDrop = 3 // forget every block of owner
	opPing = 4 // liveness probe
	opDie  = 5 // terminate the worker process immediately (no response)
)

var opNames = [...]string{opPut: "put", opGet: "get", opDrop: "drop", opPing: "ping", opDie: "die"}

// stError is the one failure status (framerpc.StatusOK is success); the body
// is the error text.
const stError = 1

// blockEntryLen is one block-table entry: kind(1) owner(8) map(4) reduce(4)
// len(4). lenNotHeld in a get response's len marks a block the worker does
// not hold (no image follows for it).
const (
	blockEntryLen = 21
	lenNotHeld    = math.MaxUint32
)

// request is one client request. Only the fields its op uses are set.
type request struct {
	op     uint8
	owner  int64         // opDrop
	ids    []rdd.BlockID // opPut, opGet
	images [][]byte      // opPut: the images to store; opGet: where to read them into
}

// appendRequest appends the request's body up to a put's images, which follow
// it on the wire from where they are.
func appendRequest(buf []byte, r request) []byte {
	switch r.op {
	case opPut, opGet:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.ids)))
		for i, id := range r.ids {
			n := 0
			if r.op == opPut {
				n = len(r.images[i])
			}
			buf = appendBlockEntry(buf, id, uint32(n))
		}
	case opDrop:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.owner))
	}
	return buf
}

func appendBlockEntry(buf []byte, id rdd.BlockID, n uint32) []byte {
	buf = append(buf, byte(id.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(id.Owner))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(id.Map))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(id.Reduce))
	return binary.LittleEndian.AppendUint32(buf, n)
}

// blockEntries is the entries of a block table (the count is their number),
// checked by the function that produced it.
type blockEntries []byte

func (t blockEntries) count() int { return len(t) / blockEntryLen }

// at returns entry i: the block's ID and its len field.
func (t blockEntries) at(i int) (rdd.BlockID, uint32) {
	e := t[i*blockEntryLen : (i+1)*blockEntryLen]
	return rdd.BlockID{
		Kind:   rdd.BlockKind(e[0]),
		Owner:  int64(binary.LittleEndian.Uint64(e[1:])),
		Map:    int32(binary.LittleEndian.Uint32(e[9:])),
		Reduce: int32(binary.LittleEndian.Uint32(e[13:])),
	}, binary.LittleEndian.Uint32(e[17:])
}

// blockEntriesLen returns the byte length of a table's count entries, refusing
// a count that the avail bytes behind it cannot hold — the bound a reader
// applies before it sizes anything from a count that came off a socket.
func blockEntriesLen(count uint32, avail int) (int, error) {
	if uint64(count)*blockEntryLen > uint64(max(avail, 0)) {
		return 0, fmt.Errorf("transport: block table claims %d entries in %d bytes", count, avail)
	}
	return int(count) * blockEntryLen, nil
}

// checkBlockLens verifies that the entries' lengths account for exactly the
// imageBytes that follow the table. The sum runs in 64 bits, so u32 lengths
// cannot wrap it, and a not-held marker counts for nothing.
func checkBlockLens(t blockEntries, imageBytes int) error {
	var sum uint64
	for i := 0; i < t.count(); i++ {
		if _, n := t.at(i); n != lenNotHeld {
			sum += uint64(n)
		}
	}
	if sum != uint64(imageBytes) {
		return fmt.Errorf("transport: block table accounts for %d image bytes, %d follow it", sum, imageBytes)
	}
	return nil
}

// parseBlockTable splits body — a put or get request's, or a get response's —
// into the table's entries and the image bytes behind it, with the count
// bounded and the lengths checked against what is really there before
// anything is allocated or stored from them.
func parseBlockTable(body []byte) (blockEntries, []byte, error) {
	if len(body) < 4 {
		return nil, nil, fmt.Errorf("transport: block table of %d bytes has no count", len(body))
	}
	n, err := blockEntriesLen(binary.LittleEndian.Uint32(body), len(body)-4)
	if err != nil {
		return nil, nil, err
	}
	t, images := blockEntries(body[4:4+n]), body[4+n:]
	if err := checkBlockLens(t, len(images)); err != nil {
		return nil, nil, err
	}
	return t, images, nil
}
