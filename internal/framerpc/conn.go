package framerpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"distenc/internal/rdd"
)

// Conn is a client connection that carries one call at a time: the calling
// goroutine writes the request and reads the response itself, so a Conn owns
// no goroutine, no lock and no channel, and whatever a call reads into is
// written by nobody once the call has returned. Only Close may be called
// while a Call is running; it fails a call blocked on the socket at once.
type Conn struct {
	nc       net.Conn
	br       *bufio.Reader
	maxFrame int
	id       uint64              // of the last request written
	hdr      [4 + HeaderLen]byte // frame length and header: of the request while it is written, then of the response
	bufs     [][]byte            // the request, as one writev
	small    []byte              // or, when small and without a tail, as one write
}

// smallRequest is the head size up to which a request without a tail is
// copied behind its header and leaves with one write: a second iovec costs
// more than copying a few hundred bytes (interleaved on loopback, one-cell
// predicts: 8.47 µs a round trip as a writev of two, 8.30 µs as a write).
const smallRequest = 4 << 10

// Dial connects to addr and completes the hello exchange, all within timeout.
// Frames over maxFrame bytes are refused in both directions.
func Dial(addr string, magic []byte, maxFrame int, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Conn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10), maxFrame: maxFrame}
	nc.SetDeadline(time.Now().Add(timeout))
	if _, err = nc.Write(rdd.AppendFrame(nil, magic)); err == nil {
		err = ExpectHello(c.br, magic)
	}
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("hello with %s: %w", addr, err)
	}
	nc.SetDeadline(time.Time{})
	return c, nil
}

// Close closes the connection.
func (c *Conn) Close() error { return c.nc.Close() }

// Call performs one round trip under one deadline (timeout 0: none). The
// request — header, head and tail — leaves as a single writev straight from
// the caller's slices (smallRequest is the one exception). A request over the
// frame limit is refused before anything is written, with an error wrapping
// rdd.ErrFrameTooLarge, and the connection stays good; after any other error
// it must be closed.
//
// The response's id is checked against the request's. Its body is returned
// whole, in an allocation of its own, unless the status is StatusOK and read
// is non-nil: then read consumes the body's n bytes from r itself, into
// wherever they belong.
func (c *Conn) Call(op uint8, head []byte, tail [][]byte, timeout time.Duration, read func(r io.Reader, n int) error) (status uint8, body []byte, err error) {
	size := int64(HeaderLen + len(head))
	for _, t := range tail {
		size += int64(len(t))
	}
	if size > int64(c.maxFrame) {
		return 0, nil, fmt.Errorf("framerpc: request: %w: %d bytes (limit %d)", rdd.ErrFrameTooLarge, size, c.maxFrame)
	}
	if timeout > 0 {
		c.nc.SetDeadline(time.Now().Add(timeout))
		defer c.nc.SetDeadline(time.Time{})
	}
	c.id++
	binary.LittleEndian.PutUint32(c.hdr[:], uint32(size))
	hdr := AppendHeader(c.hdr[:4], c.id, op)
	if len(tail) == 0 && len(head) <= smallRequest {
		c.small = append(append(c.small[:0], hdr...), head...)
		_, err = c.nc.Write(c.small)
	} else {
		c.bufs = append(append(c.bufs[:0], hdr, head), tail...)
		bufs := net.Buffers(c.bufs) // WriteTo nils each slot of c.bufs as it goes
		_, err = bufs.WriteTo(c.nc)
	}
	if err != nil {
		return 0, nil, fmt.Errorf("framerpc: writing request: %w", err)
	}

	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("framerpc: connection lost: %w", err)
	}
	n := binary.LittleEndian.Uint32(c.hdr[:])
	if int64(n) > int64(c.maxFrame) {
		// Not wrapped as rdd.ErrFrameTooLarge, which marks a connection that
		// is still good.
		return 0, nil, fmt.Errorf("framerpc: response frame of %d bytes exceeds the %d-byte limit", n, c.maxFrame)
	}
	id, status, _, err := ParseHeader(c.hdr[4 : 4+min(n, HeaderLen)]) // refuses a frame shorter than a header
	if err != nil {
		return 0, nil, err
	}
	if id != c.id {
		return 0, nil, fmt.Errorf("framerpc: response %d for request %d", id, c.id)
	}
	if n -= HeaderLen; status == StatusOK && read != nil {
		err = read(c.br, int(n))
	} else if n > 0 {
		body = make([]byte, n)
		_, err = io.ReadFull(c.br, body)
	}
	if err != nil {
		return 0, nil, fmt.Errorf("framerpc: reading response %d: %w", id, err)
	}
	return status, body, nil
}
