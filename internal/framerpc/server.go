package framerpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"distenc/internal/rdd"
)

// A Handler answers the requests of one connection, one at a time and in
// arrival order. req is the request body, in an allocation of its own that the
// handler may keep. The response body is appended to body — scratch that
// comes back, emptied, with the next request — and bytes that should leave
// from where they already live are appended to tail; the loop frames status,
// body and tail as one response, and has written them when it calls again. A
// handler enforces its plane's frame limit on what it answers.
type Handler func(op uint8, req, body []byte, tail [][]byte) (status uint8, _ []byte, _ [][]byte)

// drainGrace is how long Shutdown lets a connection go on writing a response
// to a peer that is slow to read it. It is shorter than the five seconds
// transport.Client.Close waits between SIGTERM and SIGKILL, so a worker stuck
// behind a stalled reader still exits by draining.
const drainGrace = 2 * time.Second

// Server is the accept loop both planes run: one goroutine per accepted
// connection performs the hello exchange, then reads framed requests, hands
// each to the connection's Handler and writes the framed response, flushing
// only when no further request is already buffered — a peer that pipelines N
// requests costs one flush, not N.
type Server struct {
	ln         net.Listener
	magic      []byte
	maxFrame   int
	newHandler func() Handler

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	accepted int
	closed   bool

	wg sync.WaitGroup
}

// Listen binds addr (e.g. "127.0.0.1:0") for a plane that greets with magic,
// accepts request frames of up to maxFrame bytes and answers each connection
// with a Handler of its own from newHandler. Call Serve to start accepting.
func Listen(addr string, magic []byte, maxFrame int, newHandler func() Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	return &Server{ln: ln, magic: magic, maxFrame: maxFrame, newHandler: newHandler, conns: map[net.Conn]struct{}{}}, nil
}

// Addr returns the listener's address ("host:port").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Accepted reports how many connections the server has accepted so far.
func (s *Server) Accepted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accepted
}

// Serve accepts connections until Shutdown closes the listener. It returns
// nil after a graceful shutdown.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			if err == nil {
				conn.Close()
			}
			return nil
		}
		if err != nil {
			s.mu.Unlock()
			return fmt.Errorf("framerpc: accept: %w", err)
		}
		s.conns[conn] = struct{}{}
		s.accepted++
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Shutdown drains the server: it stops accepting, lets every connection
// finish the request it is handling and write its response, and returns when
// all have closed. A connection waiting for its next request is woken by a
// read deadline; one blocked writing to a peer that has stopped reading is
// cut off drainGrace later. Safe to call more than once.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.ln.Close()
		now := time.Now()
		for conn := range s.conns {
			// The read deadline interrupts only the wait for the NEXT request:
			// one mid-handling completes and its response is flushed before
			// the loop reads again.
			conn.SetReadDeadline(now)
			conn.SetWriteDeadline(now.Add(drainGrace))
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
	s.wg.Done()
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.dropConn(conn)
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)

	// Reject strangers before trusting their length prefixes. Our hello goes
	// out even to a peer about to be refused, so that one built for another
	// protocol version learns which version it dialed.
	refused := ExpectHello(br, s.magic)
	bw.Write(rdd.AppendFrame(nil, s.magic))
	if bw.Flush() != nil || refused != nil {
		return
	}

	handle := s.newHandler()
	var body []byte
	var tail [][]byte
	for {
		frame, err := rdd.ReadFrame(br, s.maxFrame)
		if err != nil {
			return // EOF, torn or oversize frame, or Shutdown's read deadline
		}
		id, op, req, err := ParseHeader(frame)
		if err != nil {
			return
		}
		var status uint8
		status, body, tail = handle(op, req, body[:0], tail[:0])
		size := HeaderLen + len(body)
		for _, t := range tail {
			size += len(t)
		}
		var hdr [4 + HeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(size))
		bw.Write(AppendHeader(hdr[:4], id, status))
		if _, err := bw.Write(body); err != nil { // a bufio error sticks: this reports the header's too
			return
		}
		if len(tail) > 0 {
			// The tail goes out from where it lives, after whatever is
			// buffered ahead of it.
			if bw.Flush() != nil {
				return
			}
			bufs := net.Buffers(tail) // WriteTo nils each slot of tail as it goes
			if _, err := bufs.WriteTo(conn); err != nil {
				return
			}
		}
		if br.Buffered() == 0 && bw.Flush() != nil {
			return
		}
	}
}
