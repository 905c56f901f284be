package transport

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"

	"distenc/internal/framerpc"
	"distenc/internal/rdd"
)

// Server is one worker's block store behind a framerpc.Server: blocks (shuffle
// buckets) live in memory and die with the process. A stored block is a slice of the put request's frame as it was read off the
// socket — never copied again — and blocks are indexed by owner, so a drop
// unlinks one map entry instead of scanning the store.
type Server struct {
	*framerpc.Server // Addr, Serve, Shutdown

	maxFrame int
	// allowDie permits the opDie request to terminate the process; only
	// RunWorker (a dedicated worker process) enables it, so an in-process
	// Server in a test can never exit the test binary.
	allowDie bool

	mu  sync.Mutex
	mem map[int64]map[rdd.BlockID][]byte // owner -> its blocks
}

// NewServer listens on addr (e.g. "127.0.0.1:0") and serves a block store.
// Call Serve to start accepting.
func NewServer(addr string) (*Server, error) {
	s := &Server{maxFrame: rdd.DefaultMaxFrame, mem: map[int64]map[rdd.BlockID][]byte{}}
	rpc, err := framerpc.Listen(addr, helloFrame, s.maxFrame, func() framerpc.Handler { return s.handle })
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	s.Server = rpc
	return s, nil
}

// handle executes one request against the store: the response body appended
// to body and, for a get, the stored images that follow it on the wire to
// images.
func (s *Server) handle(op uint8, req, body []byte, images [][]byte) (uint8, []byte, [][]byte) {
	var err error
	switch op {
	case opPing:
	case opPut:
		err = s.put(req)
	case opGet:
		table, held, gerr := s.get(req, body, images)
		if gerr == nil {
			return framerpc.StatusOK, table, held
		}
		err = gerr
	case opDrop:
		if len(req) != 8 {
			err = fmt.Errorf("drop body of %d bytes, want 8", len(req))
			break
		}
		s.mu.Lock()
		delete(s.mem, int64(binary.LittleEndian.Uint64(req)))
		s.mu.Unlock()
	case opDie:
		if s.allowDie {
			os.Exit(3) // abrupt, crash-like: no response, no drain
		}
		err = fmt.Errorf("die refused: not a dedicated worker process")
	default:
		err = fmt.Errorf("unknown op %d", op)
	}
	if err != nil {
		return stError, append(body, err.Error()...), images
	}
	return framerpc.StatusOK, body, images
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

// get answers a get request: the block table appended to table, the images of
// the blocks held appended to images. A response the frame limit would refuse
// is an error.
func (s *Server) get(req, table []byte, images [][]byte) ([]byte, [][]byte, error) {
	t, _, err := parseBlockTable(req)
	if err != nil {
		return nil, nil, err
	}
	table = binary.LittleEndian.AppendUint32(table, uint32(t.count()))
	total := int64(framerpc.HeaderLen)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < t.count(); i++ {
		id, _ := t.at(i)
		data, ok := s.mem[id.Owner][id]
		if !ok {
			table = appendBlockEntry(table, id, lenNotHeld)
			continue
		}
		table = appendBlockEntry(table, id, uint32(len(data)))
		if len(data) > 0 {
			images = append(images, data)
			total += int64(len(data))
		}
	}
	if size := int64(len(table)) + total; size > int64(s.maxFrame) {
		return nil, nil, fmt.Errorf("get response of %d bytes exceeds the %d-byte frame limit", size, s.maxFrame)
	}
	return table, images, nil
}
