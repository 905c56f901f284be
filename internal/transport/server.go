package transport

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"distenc/internal/rdd"
)

// blockKey identifies one stored block, mirroring rdd.BlockID.
type blockKey struct {
	kind   uint8
	owner  int64
	mapP   int32
	reduce int32
}

// Server is one worker's block store behind a TCP listener: blocks (shuffle
// buckets, broadcast replicas) live in memory and die with the process.
//
// Connection handling follows the Codis backend-connection shape: one
// goroutine per accepted connection reads framed requests in a loop, handles
// them in order, and writes framed responses through a buffered writer that
// is flushed only when no further request is already buffered — so a client
// that pipelines N requests pays one flush, not N.
type Server struct {
	ln       net.Listener
	maxFrame int
	// allowDie permits the opDie request to terminate the process; only
	// RunWorker (a dedicated worker process) enables it, so an in-process
	// Server in a test can never exit the test binary.
	allowDie bool

	mu     sync.Mutex
	mem    map[blockKey][]byte
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// NewServer listens on addr (e.g. "127.0.0.1:0") and serves a block store.
// Call Serve to start accepting.
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Server{
		ln:       ln,
		maxFrame: rdd.DefaultMaxFrame,
		mem:      map[blockKey][]byte{},
		conns:    map[net.Conn]struct{}{},
	}, nil
}

// Addr returns the listener's address ("host:port").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve accepts connections until Shutdown closes the listener. It returns
// nil after a graceful shutdown.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("transport: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Shutdown drains the server gracefully: stop accepting, let every
// connection finish the request it is handling, then close. Idle connections
// blocked reading their next request are unblocked via a read deadline.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.ln.Close()
	for conn := range s.conns {
		// Interrupts only the blocked read of the NEXT request; a request
		// mid-handling completes and its response is flushed before the
		// handler notices the deadline.
		conn.SetReadDeadline(time.Now())
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

func (s *Server) handleConn(conn net.Conn) {
	defer s.dropConn(conn)
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)

	// Hello exchange: reject strangers before trusting length prefixes.
	if ExpectHello(br, helloFrame) != nil {
		return
	}
	if SendHello(bw, helloFrame) != nil {
		return
	}

	var respBuf []byte
	for {
		frame, err := rdd.ReadFrame(br, s.maxFrame)
		if err != nil {
			return // EOF, torn frame, or the shutdown read deadline
		}
		req, payload, err := parseRequest(frame)
		if err != nil {
			return
		}
		if req.op == opDie {
			if s.allowDie {
				os.Exit(3) // abrupt, crash-like: no response, no drain
			}
			return // in-process servers treat die as a connection close
		}
		respBuf = s.handle(req, payload, respBuf[:0])
		if err := rdd.WriteFrame(bw, respBuf); err != nil {
			return
		}
		// Pipelining-friendly flush: only when no further request is already
		// waiting in the read buffer.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// handle executes one request against the store and appends the response to
// buf.
func (s *Server) handle(req request, payload, buf []byte) []byte {
	key := blockKey{kind: req.kind, owner: req.owner, mapP: req.mapP, reduce: req.reduce}
	switch req.op {
	case opPing:
		return appendResponse(buf, req.reqID, stOK, nil)
	case opPut:
		s.put(key, payload)
		return appendResponse(buf, req.reqID, stOK, nil)
	case opGet:
		data, ok := s.get(key)
		if !ok {
			return appendResponse(buf, req.reqID, stNotFound, nil)
		}
		return appendResponse(buf, req.reqID, stOK, data)
	case opDrop:
		s.drop(req.owner)
		return appendResponse(buf, req.reqID, stOK, nil)
	default:
		return appendResponse(buf, req.reqID, stError, fmt.Appendf(nil, "unknown op %d", req.op))
	}
}

func (s *Server) put(key blockKey, data []byte) {
	cp := append([]byte(nil), data...) // payload aliases the read buffer
	s.mu.Lock()
	s.mem[key] = cp
	s.mu.Unlock()
}

func (s *Server) get(key blockKey) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.mem[key]
	return data, ok
}

func (s *Server) drop(owner int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key := range s.mem {
		if key.owner == owner {
			delete(s.mem, key)
		}
	}
}
