package framerpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"distenc/internal/leakcheck"
	"distenc/internal/rdd"
)

// TestMain holds the package to the drain contract: Shutdown and Close leave
// no connection handler behind.
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}

var testMagic = []byte{'D', 'T', 'X', 7}

const (
	opEcho  = 1 // answer the request body, as the response body
	opTail  = 2 // answer the request body, as a tail of one-byte slices
	opBig   = 3 // answer a megabyte, as tail
	opPark  = 4 // announce on parked, then wait for release before answering
	opFail  = 5 // answer status 9 with an error text
	testMax = 1 << 20
)

// testServer runs a Server whose handlers implement the ops above.
type testServer struct {
	*Server
	parked, release chan struct{}
}

func startServer(t *testing.T) *testServer {
	t.Helper()
	ts := &testServer{parked: make(chan struct{}, 16), release: make(chan struct{})}
	big := make([]byte, 1<<20)
	srv, err := Listen("127.0.0.1:0", testMagic, testMax, func() Handler {
		return func(op uint8, req, body []byte, tail [][]byte) (uint8, []byte, [][]byte) {
			switch op {
			case opTail:
				for i := range req {
					tail = append(tail, req[i:i+1])
				}
				return StatusOK, body, tail
			case opBig:
				return StatusOK, body, append(tail, big)
			case opPark:
				ts.parked <- struct{}{}
				<-ts.release
			case opFail:
				return 9, append(body, "no such thing"...), tail
			}
			return StatusOK, append(body, req...), tail
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ts.Server = srv
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ts
}

func dialTest(t *testing.T, addr string) *Conn {
	t.Helper()
	c, err := Dial(addr, testMagic, testMax, DialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// rawDial opens a socket that has completed the hello exchange by hand.
func rawDial(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := nc.Write(rdd.AppendFrame(nil, testMagic)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	if err := ExpectHello(br, testMagic); err != nil {
		t.Fatal(err)
	}
	return nc, br
}

func requestFrame(buf []byte, id uint64, op uint8, body string) []byte {
	return rdd.AppendFrame(buf, append(AppendHeader(nil, id, op), body...))
}

// TestCallRoundTrip: head and tail leave as one request; a response comes
// back whole, or — on StatusOK with a reader — is consumed by the caller from
// the stream; a failure status always comes back whole, as text.
func TestCallRoundTrip(t *testing.T) {
	ts := startServer(t)
	c := dialTest(t, ts.Addr())
	for i := 0; i < 3; i++ {
		status, body, err := c.Call(opEcho, []byte("head|"), [][]byte{[]byte("ta"), nil, []byte("il")}, time.Minute, nil)
		if err != nil || status != StatusOK || string(body) != "head|tail" {
			t.Fatalf("echo %d: status %d, body %q, %v", i, status, body, err)
		}
	}
	var streamed []byte
	read := func(r io.Reader, n int) error {
		streamed = make([]byte, n)
		_, err := io.ReadFull(r, streamed)
		return err
	}
	if status, body, err := c.Call(opTail, []byte("vectored"), nil, 0, read); err != nil || status != StatusOK || body != nil || string(streamed) != "vectored" {
		t.Fatalf("streamed read: status %d, body %q, streamed %q, %v", status, body, streamed, err)
	}
	if status, body, err := c.Call(opFail, nil, nil, 0, read); err != nil || status != 9 || string(body) != "no such thing" {
		t.Fatalf("failure status: status %d, body %q, %v", status, body, err)
	}
	if status, body, err := c.Call(opEcho, nil, nil, 0, nil); err != nil || status != StatusOK || len(body) != 0 {
		t.Fatalf("empty call: status %d, body %q, %v", status, body, err)
	}
	long := strings.Repeat("0123456789abcdef", smallRequest/8) // past smallRequest: a writev even without a tail
	if status, body, err := c.Call(opEcho, []byte(long), nil, 0, nil); err != nil || status != StatusOK || string(body) != long {
		t.Fatalf("long head: status %d, %d body bytes, %v", status, len(body), err)
	}
	if n := ts.Accepted(); n != 1 {
		t.Fatalf("server accepted %d connections, want 1", n)
	}
}

// TestOversizeRequestRefusedBeforeWrite: the connection never sees a request
// over the limit, so it is still good for the next call.
func TestOversizeRequestRefusedBeforeWrite(t *testing.T) {
	ts := startServer(t)
	c := dialTest(t, ts.Addr())
	half := make([]byte, testMax/2)
	if _, _, err := c.Call(opEcho, half, [][]byte{half}, 0, nil); !errors.Is(err, rdd.ErrFrameTooLarge) {
		t.Fatalf("got %v, want rdd.ErrFrameTooLarge", err)
	}
	if _, body, err := c.Call(opEcho, []byte("still good"), nil, 0, nil); err != nil || string(body) != "still good" {
		t.Fatalf("call after a refused request: %q, %v", body, err)
	}
}

// TestCallRejectsWhatItDidNotAskFor: a response with another id, one over the
// frame limit, one too short for a header and one cut short are errors, not
// payloads. (A client reads length and header together, so the two short
// streams are padded to that much.)
func TestCallRejectsWhatItDidNotAskFor(t *testing.T) {
	pad := make([]byte, HeaderLen)
	for name, tc := range map[string]struct {
		response []byte
		want     string
	}{
		"wrong id":  {requestFrame(nil, 2, StatusOK, "x"), "response 2 for request 1"},
		"oversize":  {append(binary.LittleEndian.AppendUint32(nil, testMax+1), pad...), "exceeds"},
		"no header": {append(rdd.AppendFrame(nil, []byte("tiny")), pad...), "want >= 9"},
		"torn body": {requestFrame(nil, 1, StatusOK, "full")[:4+HeaderLen+2], "unexpected EOF"},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close()
			nc.Write(rdd.AppendFrame(nil, testMagic))
			br := bufio.NewReader(nc)
			rdd.ReadFrame(br, helloLimit)
			rdd.ReadFrame(br, testMax)
			nc.Write(tc.response)
		}()
		c, err := Dial(ln.Addr().String(), testMagic, testMax, DialTimeout)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = c.Call(opEcho, nil, nil, 10*time.Second, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) || errors.Is(err, rdd.ErrFrameTooLarge) {
			t.Errorf("%s: got %v, want an error saying %q that does not mark the connection good", name, err, tc.want)
		}
		c.Close()
		ln.Close()
		<-done
	}
}

// TestCallTimeoutAndClose: a call blocked on a server that does not answer
// ends at its deadline, or at once when another goroutine closes the Conn.
func TestCallTimeoutAndClose(t *testing.T) {
	ts := startServer(t)
	defer close(ts.release)
	c := dialTest(t, ts.Addr())
	if _, _, err := c.Call(opPark, nil, nil, 100*time.Millisecond, nil); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("got %v, want a deadline error", err)
	}
	<-ts.parked

	c2 := dialTest(t, ts.Addr())
	done := make(chan error, 1)
	go func() {
		_, _, err := c2.Call(opPark, nil, nil, time.Minute, nil)
		done <- err
	}()
	<-ts.parked
	c2.Close()
	if err := <-done; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("call across Close: got %v, want net.ErrClosed", err)
	}
}

// TestPipelinedRequestsAnsweredInOrder: a peer may write many requests before
// reading; each is answered, in order, with its id.
func TestPipelinedRequestsAnsweredInOrder(t *testing.T) {
	ts := startServer(t)
	nc, br := rawDial(t, ts.Addr())
	var stream []byte
	for i := 1; i <= 200; i++ {
		stream = requestFrame(stream, uint64(i), uint8(1+i%2), strings.Repeat("x", i))
	}
	if _, err := nc.Write(stream); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		frame, err := rdd.ReadFrame(br, testMax)
		if err != nil {
			t.Fatal(err)
		}
		id, status, body, err := ParseHeader(frame)
		if err != nil || id != uint64(i) || status != StatusOK || len(body) != i {
			t.Fatalf("response %d: id %d, status %d, %d body bytes, %v", i, id, status, len(body), err)
		}
	}
}

// TestTornOrForeignInputClosesTheConnection: a frame cut short, one too small
// to carry a header, one over the limit and a stranger's hello each end their
// own connection — unanswered past the hello — and nobody else's.
func TestTornOrForeignInputClosesTheConnection(t *testing.T) {
	ts := startServer(t)
	bystander := dialTest(t, ts.Addr())
	for name, input := range map[string][]byte{
		"torn":      requestFrame(nil, 1, opEcho, "cut short")[:4+HeaderLen+3],
		"no header": rdd.AppendFrame(nil, []byte("tiny")),
		"oversize":  binary.LittleEndian.AppendUint32(nil, testMax+1),
	} {
		nc, br := rawDial(t, ts.Addr())
		if _, err := nc.Write(input); err != nil {
			t.Fatal(err)
		}
		nc.(*net.TCPConn).CloseWrite()
		if b, err := br.ReadByte(); err != io.EOF {
			t.Errorf("%s: server answered %#x, %v; want it to hang up", name, b, err)
		}
	}
	nc, err := net.Dial("tcp", ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	nc.Write(rdd.AppendFrame(nil, []byte{'D', 'T', 'X', 8}))
	br := bufio.NewReader(nc)
	if err := ExpectHello(br, []byte{'D', 'T', 'X', 8}); err == nil || !strings.Contains(err.Error(), "version 7") || !strings.Contains(err.Error(), "version 8") {
		t.Errorf("a version-8 peer's hello check: %v, want both versions named", err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Errorf("server kept talking to a stranger: %v", err)
	}
	if _, body, err := bystander.Call(opEcho, []byte("unharmed"), nil, 0, nil); err != nil || string(body) != "unharmed" {
		t.Fatalf("bystander connection: %q, %v", body, err)
	}
}

// TestShutdownDrains: Shutdown wakes a connection that is idle between
// requests, and lets one that is mid-request finish and deliver its response
// before it returns; afterwards the server is gone.
func TestShutdownDrains(t *testing.T) {
	ts := startServer(t)
	idle := dialTest(t, ts.Addr())
	if _, _, err := idle.Call(opEcho, nil, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	busy := dialTest(t, ts.Addr())
	answered := make(chan error, 1)
	go func() {
		_, body, err := busy.Call(opPark, []byte("in flight"), nil, time.Minute, nil)
		if err == nil && string(body) != "in flight" {
			err = errors.New("wrong body: " + string(body))
		}
		answered <- err
	}()
	<-ts.parked
	down := make(chan struct{})
	go func() {
		defer close(down)
		ts.Shutdown()
	}()
	select {
	case <-down:
		t.Fatal("Shutdown returned with a request still being handled")
	case <-time.After(50 * time.Millisecond):
	}
	close(ts.release)
	if err := <-answered; err != nil {
		t.Fatalf("request in flight across Shutdown: %v", err)
	}
	<-down
	if _, _, err := idle.Call(opEcho, nil, nil, 0, nil); err == nil {
		t.Fatal("idle connection still answered after Shutdown")
	}
	if _, err := Dial(ts.Addr(), testMagic, testMax, time.Second); err == nil {
		t.Fatal("Dial succeeded after Shutdown")
	}
}

// TestShutdownCutsOffStalledWriter: a peer that pipelines requests for far
// more than the socket buffers hold and reads nothing leaves its handler
// blocked in a write, which no read deadline wakes. Shutdown must return
// drainGrace later all the same.
func TestShutdownCutsOffStalledWriter(t *testing.T) {
	ts := startServer(t)
	nc, br := rawDial(t, ts.Addr())
	var stream []byte
	for i := 1; i <= 256; i++ { // small enough to reach the server's read buffer in one piece
		stream = requestFrame(stream, uint64(i), opBig, "")
	}
	if _, err := nc.Write(stream); err != nil {
		t.Fatal(err)
	}
	// The head of the first response: the server has the requests and is
	// answering them. Nothing is read from here on.
	if _, err := io.ReadFull(br, make([]byte, 4+HeaderLen)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ts.Shutdown()
	if took := time.Since(start); took > drainGrace+3*time.Second {
		t.Fatalf("Shutdown took %v behind a peer that stopped reading, want about %v", took, drainGrace)
	}
}
