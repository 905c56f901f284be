package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"distenc/internal/rdd"
)

// Server is one worker's block store behind a TCP listener: blocks (shuffle
// buckets, broadcast replicas) live in memory and die with the process. A
// stored block is a slice of the put request's frame as it was read off the
// socket — never copied again — and blocks are indexed by owner, so a drop
// unlinks one map entry instead of scanning the store.
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
	mem    map[int64]map[rdd.BlockID][]byte // owner -> its blocks
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
		mem:      map[int64]map[rdd.BlockID][]byte{},
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

	// Hello exchange: reject strangers before trusting length prefixes. Ours
	// goes out even to a peer we are about to refuse, so that one built for
	// another protocol version learns which version it dialed.
	refused := ExpectHello(br, helloFrame)
	if SendHello(bw, helloFrame) != nil || refused != nil {
		return
	}

	var head []byte
	var images [][]byte
	for {
		frame, err := rdd.ReadFrame(br, s.maxFrame)
		if err != nil {
			return // EOF, torn frame, or the shutdown read deadline
		}
		reqID, op, body, err := parseRequest(frame)
		if err != nil {
			return
		}
		if op == opDie {
			if s.allowDie {
				os.Exit(3) // abrupt, crash-like: no response, no drain
			}
			return // in-process servers treat die as a connection close
		}
		head, images = s.handle(reqID, op, body, head[:0], images[:0])
		if _, err := bw.Write(head); err != nil {
			return
		}
		if len(images) > 0 {
			// A get: the images go out from where they are stored, after
			// whatever is still buffered ahead of them.
			if err := bw.Flush(); err != nil {
				return
			}
			bufs := net.Buffers(images) // WriteTo nils each slot of images as it goes
			if _, err := bufs.WriteTo(conn); err != nil {
				return
			}
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

// handle executes one request against the store. It appends the response —
// frame length prefix included — to head and, for a get, the stored images
// that follow it on the wire to images.
func (s *Server) handle(reqID uint64, op uint8, body, head []byte, images [][]byte) ([]byte, [][]byte) {
	head = append(head, 0, 0, 0, 0) // the frame length: see setFrameLen
	var err error
	switch op {
	case opPing:
	case opPut:
		err = s.put(body)
	case opGet:
		resp, held, gerr := s.get(reqID, body, head, images)
		if gerr == nil {
			return resp, held
		}
		err = gerr
	case opDrop:
		if len(body) != 8 {
			err = fmt.Errorf("drop body of %d bytes, want 8", len(body))
			break
		}
		s.mu.Lock()
		delete(s.mem, int64(binary.LittleEndian.Uint64(body)))
		s.mu.Unlock()
	default:
		err = fmt.Errorf("unknown op %d", op)
	}
	if err != nil {
		return setFrameLen(appendResponse(head, reqID, stError, []byte(err.Error())), 0), images
	}
	return setFrameLen(appendResponse(head, reqID, stOK, nil), 0), images
}

// put stores every block of a put request's body. The images stay where
// ReadFrame put them: the frame is this request's own allocation, and it
// lives for as long as a block in it does.
func (s *Server) put(body []byte) error {
	t, images, err := parseBlockTable(body)
	if err != nil {
		return err
	}
	for i := 0; i < t.count(); i++ {
		if id, n := t.at(i); n == lenNotHeld {
			return fmt.Errorf("put of %v carries no image", id)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < t.count(); i++ {
		id, n := t.at(i)
		blocks := s.mem[id.Owner]
		if blocks == nil {
			blocks = map[rdd.BlockID][]byte{}
			s.mem[id.Owner] = blocks
		}
		blocks[id], images = images[:n:n], images[n:]
	}
	return nil
}

// get answers a get request: the response header and block table appended to
// head (whose length prefix it fills in), the images of the blocks held
// appended to images. A response the frame limit would refuse is an error.
func (s *Server) get(reqID uint64, body, head []byte, images [][]byte) ([]byte, [][]byte, error) {
	t, _, err := parseBlockTable(body)
	if err != nil {
		return nil, nil, err
	}
	head = appendResponse(head, reqID, stOK, nil)
	head = binary.LittleEndian.AppendUint32(head, uint32(t.count()))
	var total int64
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < t.count(); i++ {
		id, _ := t.at(i)
		data, ok := s.mem[id.Owner][id]
		if !ok {
			head = appendBlockEntry(head, id, lenNotHeld)
			continue
		}
		head = appendBlockEntry(head, id, uint32(len(data)))
		if len(data) > 0 {
			images = append(images, data)
			total += int64(len(data))
		}
	}
	if size := int64(len(head)) + total; size > int64(s.maxFrame) {
		return nil, nil, fmt.Errorf("get response of %d bytes exceeds the %d-byte frame limit", size, s.maxFrame)
	}
	return setFrameLen(head, total), images, nil
}
