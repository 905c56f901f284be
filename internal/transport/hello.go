package transport

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"distenc/internal/rdd"
)

// The hello exchange is shared wire plumbing between the execution backend
// (worker protocol, magic "DTW") and the serving plane (internal/serve,
// magic "DTS"): both open every connection with one framed magic+version
// blob in each direction, so a mis-dialed port — a predict client talking to
// a worker, a worker client talking to an HTTP server — fails loudly at
// connection setup instead of hanging in a request loop trusting hostile
// length prefixes.

// helloLimit caps the hello frame size; a magic is a handful of bytes, so
// anything larger is not a peer speaking one of our protocols.
const helloLimit = 16

// SendHello writes magic as one frame and flushes it.
func SendHello(bw *bufio.Writer, magic []byte) error {
	if err := rdd.WriteFrame(bw, magic); err != nil {
		return err
	}
	return bw.Flush()
}

// ExpectHello reads one frame and verifies it equals magic. A peer that
// speaks the same protocol in another version (same magic, different last
// byte) is refused with both versions named.
func ExpectHello(r io.Reader, magic []byte) error {
	hello, err := rdd.ReadFrame(r, helloLimit)
	if err != nil {
		return fmt.Errorf("transport: reading hello: %w", err)
	}
	if bytes.Equal(hello, magic) {
		return nil
	}
	if v := len(magic) - 1; len(hello) == len(magic) && bytes.Equal(hello[:v], magic[:v]) {
		return fmt.Errorf("transport: peer speaks %s protocol version %d, this side version %d", magic[:v], hello[v], magic[v])
	}
	return fmt.Errorf("transport: bad hello %q, want %q", hello, magic)
}
