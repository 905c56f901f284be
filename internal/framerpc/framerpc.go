// Package framerpc is the framed request/response plumbing under both TCP
// planes of this repo — the worker block store (internal/transport, magic
// "DTW") and the predict daemon (internal/serve, magic "DTS"). It owns what
// the two share and nothing of what they carry: the hello exchange, the
// nine-byte header, one server loop (Server) and one client connection that
// carries one call at a time (Conn). Ops, statuses above StatusOK and every
// body layout belong to the plane.
//
// Every message is one rdd frame (u32 little-endian byte count, then the
// payload). All integers are little-endian:
//
//	hello     magic… | version u8          (both directions, once per connection)
//	request   id u64 | op u8 | body…
//	response  id u64 | status u8 | body…
//
// A server answers the requests of a connection strictly in order and echoes
// each id. A client connection has one request outstanding at most: the
// traffic both planes carry is a few bulk, synchronous exchanges whose
// concurrency the caller already bounds, so a caller that wants N calls in
// flight holds N connections, and no goroutine, lock or queue stands between
// a caller and its socket.
package framerpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"distenc/internal/rdd"
)

// HeaderLen is the fixed header that opens every request and response:
// id(8), then the op of a request or the status of a response (1).
const HeaderLen = 9

// StatusOK is success on every plane. A plane numbers its own failures from
// 1, and the body of a failed response is the error text.
const StatusOK = 0

// DialTimeout bounds a dial and its hello exchange for callers that have no
// reason to choose another bound.
const DialTimeout = 5 * time.Second

// AppendHeader appends a request or response header to buf.
func AppendHeader(buf []byte, id uint64, code uint8) []byte {
	return append(binary.LittleEndian.AppendUint64(buf, id), code)
}

// ParseHeader splits a request or response frame into id, op or status, and
// body.
func ParseHeader(frame []byte) (id uint64, code uint8, body []byte, err error) {
	if len(frame) < HeaderLen {
		return 0, 0, nil, fmt.Errorf("framerpc: frame of %d bytes, want >= %d", len(frame), HeaderLen)
	}
	return binary.LittleEndian.Uint64(frame), frame[8], frame[HeaderLen:], nil
}

// helloLimit caps the hello frame size; a magic is a handful of bytes, so
// anything larger is not a peer speaking one of our protocols.
const helloLimit = 16

// ExpectHello reads one frame and verifies it equals magic, so that a
// mis-dialed port — a predict client talking to a worker, a worker client
// talking to an HTTP server — fails at connection setup instead of in a
// request loop trusting hostile length prefixes. A peer that speaks the same
// protocol in another version (same magic, different last byte) is refused
// with both versions named.
func ExpectHello(r io.Reader, magic []byte) error {
	hello, err := rdd.ReadFrame(r, helloLimit)
	if err != nil {
		return fmt.Errorf("framerpc: reading hello: %w", err)
	}
	if bytes.Equal(hello, magic) {
		return nil
	}
	if v := len(magic) - 1; len(hello) == len(magic) && bytes.Equal(hello[:v], magic[:v]) {
		return fmt.Errorf("framerpc: peer speaks %s protocol version %d, this side version %d", magic[:v], hello[v], magic[v])
	}
	return fmt.Errorf("framerpc: bad hello %q, want %q", hello, magic)
}
