// Package transport is the TCP execution backend for the rdd engine: a block
// server that runs as a real worker process (cmd/distenc-worker, or any
// binary re-execing itself through WorkerHook) and a pooling, pipelining
// client that implements rdd.Transport for the driver.
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
//	  "DTW" magic | version u8
//
//	request  reqID u64 | op u8 | kind u8 | owner i64 | map i32 | reduce i32 | payload…
//	response reqID u64 | status u8 | payload…
//
// A connection carries pipelined requests: the client may have many requests
// in flight; the server handles each connection's requests sequentially and
// answers in order, so responses match requests FIFO (reqID is echoed and
// verified as a cross-check). The model is Codis's proxy↔backend connection:
// one goroutine per accepted connection, a writer that batches flushes while
// more input is buffered, and graceful drain on shutdown.
package transport

import (
	"encoding/binary"
	"fmt"
)

// protoMagic and protoVersion open every connection (hello frame) so a
// mis-dialed port fails loudly instead of hanging in the request loop.
var helloFrame = []byte{'D', 'T', 'W', 1}

// Request opcodes.
const (
	opPut  = 1 // store payload under (kind, owner, map, reduce)
	opGet  = 2 // fetch the block; response payload is the image
	opDrop = 3 // forget every block of owner
	opPing = 4 // liveness probe
	opDie  = 5 // terminate the worker process immediately (no response)
)

// Response status codes.
const (
	stOK       = 0
	stNotFound = 1
	stError    = 2 // payload is the error text
)

// reqHeaderLen is the fixed request header: reqID(8) op(1) kind(1) owner(8)
// map(4) reduce(4).
const reqHeaderLen = 26

// respHeaderLen is the fixed response header: reqID(8) status(1).
const respHeaderLen = 9

// request is one decoded request header; the payload rides separately.
type request struct {
	reqID  uint64
	op     uint8
	kind   uint8
	owner  int64
	mapP   int32
	reduce int32
}

// appendRequest appends the framed-payload-less request header and payload.
func appendRequest(buf []byte, r request, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, r.reqID)
	buf = append(buf, r.op, r.kind)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.owner))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.mapP))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.reduce))
	return append(buf, payload...)
}

// parseRequest splits a request frame into its header and payload.
func parseRequest(frame []byte) (request, []byte, error) {
	if len(frame) < reqHeaderLen {
		return request{}, nil, fmt.Errorf("transport: request frame of %d bytes, want >= %d", len(frame), reqHeaderLen)
	}
	r := request{
		reqID:  binary.LittleEndian.Uint64(frame),
		op:     frame[8],
		kind:   frame[9],
		owner:  int64(binary.LittleEndian.Uint64(frame[10:])),
		mapP:   int32(binary.LittleEndian.Uint32(frame[18:])),
		reduce: int32(binary.LittleEndian.Uint32(frame[22:])),
	}
	return r, frame[reqHeaderLen:], nil
}

// appendResponse appends a response header and payload.
func appendResponse(buf []byte, reqID uint64, status uint8, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, reqID)
	buf = append(buf, status)
	return append(buf, payload...)
}

// parseResponse splits a response frame into reqID, status and payload.
func parseResponse(frame []byte) (uint64, uint8, []byte, error) {
	if len(frame) < respHeaderLen {
		return 0, 0, nil, fmt.Errorf("transport: response frame of %d bytes, want >= %d", len(frame), respHeaderLen)
	}
	return binary.LittleEndian.Uint64(frame), frame[8], frame[respHeaderLen:], nil
}
