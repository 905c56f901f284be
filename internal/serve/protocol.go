package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"distenc/internal/framerpc"
	"distenc/internal/metrics"
	"distenc/internal/rdd"
)

// The serve wire protocol is internal/framerpc's — one length-prefixed frame
// per message, a framed hello in each direction at connection setup, requests
// answered in order — with its own magic so a predict client that dials a
// worker port (or vice versa) fails at the hello instead of misparsing
// frames.
//
// Frame layouts (integers little-endian):
//
//	hello     "DTS" magic | version u8
//	request   reqID u64 | op u8 | body…
//	response  reqID u64 | status u8 | payload…
//
// Request bodies:
//
//	opPredict  nameLen u16 | name | order u16 | count u32 | count·order × idx u32
//	opStats    (empty)
//	opPing     (empty)
//
// Response payloads: opPredict → count × f64 bits (the predictions, in cell
// order); opStats → the metrics.ServeSnapshot as JSON; errors → the error
// text.
var serveHello = []byte{'D', 'T', 'S', 1}

// Request opcodes.
const (
	opPredict = 1
	opStats   = 2
	opPing    = 3
)

// Response status codes.
const (
	stOK         = framerpc.StatusOK
	stNotFound   = 1 // unknown model; payload is the error text
	stBadRequest = 2 // malformed body or bad geometry; payload is the error text
	stError      = 3 // server-side failure; payload is the error text
)

// appendPredictBody appends the body of one predict request.
func appendPredictBody(buf []byte, name string, order int, flat []int32) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(order))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(flat)/order))
	for _, v := range flat {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// parsePredictBody decodes an opPredict body into (model, order, flat
// indices). The name aliases body; the indices are decoded into flat's backing
// array, grown only when the body outsizes it.
func parsePredictBody(body []byte, flat []int32) ([]byte, int, []int32, error) {
	if len(body) < 2 {
		return nil, 0, nil, fmt.Errorf("predict body of %d bytes, want >= 2", len(body))
	}
	nameLen := int(binary.LittleEndian.Uint16(body))
	body = body[2:]
	if len(body) < nameLen+6 {
		return nil, 0, nil, fmt.Errorf("predict body truncated inside name/geometry (have %d bytes, name is %d)", len(body), nameLen)
	}
	name := body[:nameLen]
	body = body[nameLen:]
	order := int(binary.LittleEndian.Uint16(body))
	count := binary.LittleEndian.Uint32(body[2:])
	body = body[6:]
	if order <= 0 {
		return nil, 0, nil, fmt.Errorf("predict body declares order %d", order)
	}
	// In 64 bits, so no count can wrap the product into agreeing with a short
	// body; the indices are then sized from the bytes that are really there.
	if want := uint64(count) * uint64(order) * 4; uint64(len(body)) != want {
		return nil, 0, nil, fmt.Errorf("predict body carries %d index bytes, want %d for count=%d order=%d", len(body), want, count, order)
	}
	flat = slices.Grow(flat[:0], len(body)/4)[:len(body)/4]
	for i := range flat {
		flat[i] = int32(binary.LittleEndian.Uint32(body[i*4:]))
	}
	return name, order, flat, nil
}

// Client is one connection to a serve endpoint. It performs sequential
// round trips and is NOT safe for concurrent use — concurrent callers each
// dial their own Client (connections are cheap; the server handles each on
// its own goroutine).
type Client struct {
	conn *framerpc.Conn
	buf  []byte
}

// Dial connects to a serve endpoint and completes the hello exchange, both
// within framerpc.DialTimeout.
func Dial(addr string) (*Client, error) {
	conn, err := framerpc.Dial(addr, serveHello, rdd.DefaultMaxFrame, framerpc.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	return &Client{conn: conn}, nil
}

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }

// call performs one round trip and returns the payload of an OK response. No
// deadline is armed: a predict is microseconds, and arming one per request
// costs a measurable share of that.
func (c *Client) call(op uint8, body []byte) ([]byte, error) {
	status, payload, err := c.conn.Call(op, body, nil, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if status != stOK {
		return nil, statusErr(status, payload)
	}
	return payload, nil
}

// statusErr converts a non-OK response into an error carrying the server's
// text.
func statusErr(status uint8, payload []byte) error {
	switch status {
	case stNotFound:
		return fmt.Errorf("serve: not found: %s", payload)
	case stBadRequest:
		return fmt.Errorf("serve: bad request: %s", payload)
	default:
		return fmt.Errorf("serve: server error (status %d): %s", status, payload)
	}
}

// Predict evaluates a batch of cells — flat row-major indices, order per
// cell — against the named model and returns one prediction per cell.
func (c *Client) Predict(model string, order int, flat []int32) ([]float64, error) {
	if order <= 0 || len(flat)%order != 0 {
		return nil, fmt.Errorf("serve: %d indices do not tile order %d", len(flat), order)
	}
	c.buf = appendPredictBody(c.buf[:0], model, order, flat)
	payload, err := c.call(opPredict, c.buf)
	if err != nil {
		return nil, err
	}
	count := len(flat) / order
	if len(payload) != count*8 {
		return nil, fmt.Errorf("serve: predict response carries %d bytes, want %d for %d cells", len(payload), count*8, count)
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	return out, nil
}

// Stats fetches the server's registry-wide rollup.
func (c *Client) Stats() (metrics.ServeSnapshot, error) {
	payload, err := c.call(opStats, nil)
	if err != nil {
		return nil, err
	}
	var snap metrics.ServeSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("serve: decoding stats: %w", err)
	}
	return snap, nil
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	_, err := c.call(opPing, nil)
	return err
}
