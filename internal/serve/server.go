package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"

	"distenc/internal/framerpc"
	"distenc/internal/rdd"
)

// Config sizes one serve daemon.
type Config struct {
	// Listen is the predict-plane TCP address (e.g. "127.0.0.1:0").
	Listen string
	// Admin is the HTTP admin-plane address; empty disables the admin
	// server.
	Admin string
	// CacheRows sized the row LRU that PR 28 deleted; it is accepted and
	// ignored because benchmark/ sets it, and leaves with ROADMAP item 2's
	// phase 2.
	CacheRows int
	// MaxFrame bounds request frames (default rdd.DefaultMaxFrame).
	MaxFrame int
	// Refresh configures the online-refresh loop; a zero Every disables it.
	Refresh RefreshConfig
}

// Server answers entry-reconstruction queries from a model registry over
// the binary predict plane — a framerpc.Server: one goroutine per connection,
// requests answered in order, flush-when-idle, graceful drain — and manages
// the registry over the HTTP admin plane.
type Server struct {
	cfg     Config
	reg     *Registry
	rpc     *framerpc.Server
	admin   *http.Server
	adminLn net.Listener

	wg        sync.WaitGroup // the admin server and the refresh loop
	refresher *refresher
}

// NewServer builds a server over reg and binds its listeners (predict
// plane always; admin plane when cfg.Admin is set). Call Serve to start.
func NewServer(reg *Registry, cfg Config) (*Server, error) {
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = rdd.DefaultMaxFrame
	}
	s := &Server{cfg: cfg, reg: reg}
	rpc, err := framerpc.Listen(cfg.Listen, serveHello, cfg.MaxFrame, s.newHandler)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.rpc = rpc
	if cfg.Admin != "" {
		adminLn, err := net.Listen("tcp", cfg.Admin)
		if err != nil {
			rpc.Shutdown()
			return nil, fmt.Errorf("serve: admin listen %s: %w", cfg.Admin, err)
		}
		s.adminLn = adminLn
		s.admin = &http.Server{Handler: s.adminMux()}
	}
	if cfg.Refresh.Every > 0 {
		s.refresher = newRefresher(reg, cfg.Refresh)
	}
	return s, nil
}

// Addr returns the predict plane's bound address.
func (s *Server) Addr() string { return s.rpc.Addr() }

// AdminAddr returns the admin plane's bound address ("" when disabled).
func (s *Server) AdminAddr() string {
	if s.adminLn == nil {
		return ""
	}
	return s.adminLn.Addr().String()
}

// Serve runs the predict-plane accept loop (and starts the admin plane and
// refresh loop, which Shutdown stops). It returns nil after a graceful
// shutdown.
func (s *Server) Serve() error {
	if s.admin != nil {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			// http.Server.Serve returns ErrServerClosed after Shutdown.
			s.admin.Serve(s.adminLn)
		}()
	}
	if s.refresher != nil {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.refresher.run()
		}()
	}
	return s.rpc.Serve()
}

// Shutdown drains the server: stop accepting on the predict plane and let
// every in-flight request finish, stop the refresh loop and the admin plane,
// then return. Safe to call more than once.
func (s *Server) Shutdown() {
	s.rpc.Shutdown()
	if s.refresher != nil {
		s.refresher.stop()
	}
	if s.admin != nil {
		// Close rather than Shutdown: admin requests are short and the
		// predict plane — the one with SLOs — already drained gracefully
		// above. Close also tears down keep-alive connections, which
		// Shutdown would wait on indefinitely.
		s.admin.Close()
	}
	s.wg.Wait()
	if s.refresher != nil {
		s.refresher.cleanup()
	}
}

// predictScratch is one connection's reusable predict state: the request's
// decoded indices and its predictions, so a warm handler allocates nothing
// per request.
type predictScratch struct {
	flat  []int32
	preds []float64
}

// maxScratchBytes bounds what a connection keeps between requests: a larger
// slice is dropped once its reply is encoded, so one MaxFrame-sized batch does
// not pin its buffers for the life of the connection.
const maxScratchBytes = 1 << 20

func (sc *predictScratch) trim() {
	if 4*cap(sc.flat) > maxScratchBytes {
		sc.flat = nil
	}
	if 8*cap(sc.preds) > maxScratchBytes {
		sc.preds = nil
	}
}

// newHandler returns one connection's request handler, which keeps that
// connection's predict scratch.
func (s *Server) newHandler() framerpc.Handler {
	var sc predictScratch
	return func(op uint8, req, body []byte, tail [][]byte) (uint8, []byte, [][]byte) {
		status, body := s.handle(op, req, body, &sc)
		return status, body, tail
	}
}

// handle executes one request, appending the response body — on failure the
// error text — to buf.
func (s *Server) handle(op uint8, body, buf []byte, sc *predictScratch) (uint8, []byte) {
	switch op {
	case opPing:
		return stOK, buf
	case opStats:
		snap, err := json.Marshal(s.reg.Snapshot())
		if err != nil {
			return stError, append(buf, err.Error()...)
		}
		return stOK, append(buf, snap...)
	case opPredict:
		status, buf := s.predict(body, buf, sc)
		sc.trim()
		return status, buf
	default:
		return stBadRequest, fmt.Appendf(buf, "unknown op %d", op)
	}
}

// predict answers one opPredict body out of sc.
func (s *Server) predict(body, buf []byte, sc *predictScratch) (uint8, []byte) {
	maxFrame := s.cfg.MaxFrame
	if maxFrame <= 0 {
		maxFrame = rdd.DefaultMaxFrame
	}
	name, order, flat, err := parsePredictBody(body, sc.flat, maxFrame-framerpc.HeaderLen)
	if err != nil {
		return stBadRequest, append(buf, err.Error()...)
	}
	sc.flat = flat
	// Capture the model generation once; the whole batch — validation and
	// every prediction — is answered by it, so a concurrent swap never mixes
	// generations within a response.
	m, ok := s.reg.lookup(name)
	if !ok {
		return stNotFound, fmt.Appendf(buf, "no model %q loaded", name)
	}
	sc.preds, err = m.PredictBatch(order, flat, sc.preds[:0])
	if err != nil {
		return stBadRequest, append(buf, err.Error()...)
	}
	for _, v := range sc.preds {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return stOK, buf
}
