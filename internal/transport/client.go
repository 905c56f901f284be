package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"distenc/internal/rdd"
)

// Options tunes the TCP transport client.
type Options struct {
	// PoolSize is the number of pooled connections per worker (default 2).
	// Each connection pipelines: requests from many tasks are in flight at
	// once and responses stream back in order.
	PoolSize int
	// MaxFrame caps accepted frame sizes (default rdd.DefaultMaxFrame).
	MaxFrame int
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// CallTimeout bounds one request/response round trip (default 60s). A
	// worker that stalls past it is treated as unreachable.
	CallTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.PoolSize <= 0 {
		o.PoolSize = 2
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = rdd.DefaultMaxFrame
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 60 * time.Second
	}
	return o
}

// Client implements rdd.Transport over TCP: one pooled, pipelined connection
// set per worker. It is safe for concurrent use by every task goroutine.
type Client struct {
	opts    Options
	workers []*worker
}

// unreachableErr wraps a connection-level failure as the sentinel the engine
// maps to machine death.
func unreachableErr(addr string, err error) error {
	return fmt.Errorf("%w: worker %s: %v", rdd.ErrMachineUnreachable, addr, err)
}

// worker is the client's view of one worker process: its address, the pooled
// connections, and — for spawned workers — the child process to reap.
type worker struct {
	opts Options
	addr string
	cmd  *exec.Cmd // non-nil when this client spawned the process
	// lifeline is the write end of a pipe wired to a spawned worker's stdin.
	// It is held open for the driver's whole life and never written: when
	// this process dies — even through os.Exit paths that skip deferred
	// Closes — the kernel closes it, the worker reads EOF and shuts itself
	// down instead of lingering as an orphan.
	lifeline *os.File
	killed   atomic.Bool
	reap     sync.Once

	mu    sync.Mutex
	conns []*pipeConn
	next  int
	// gen counts pool sweeps (closeConns). A dial that started against an
	// older generation must not install its connection: the sweeper has
	// already passed and would never tear it down.
	gen int
}

// conn returns a live pooled connection, dialing lazily. The dial happens
// with w.mu released: holding the pool lock across a network connect (up to
// DialTimeout against a dead host) would convoy every caller that only
// wanted to pick an already-live connection — the same class of stall as
// the PR 5 blockFor convoy, but on the client pool.
func (w *worker) conn() (*pipeConn, error) {
	if w.killed.Load() {
		return nil, unreachableErr(w.addr, errors.New("worker killed"))
	}
	w.mu.Lock()
	for i := 0; i < len(w.conns); i++ {
		w.next = (w.next + 1) % len(w.conns)
		if c := w.conns[w.next]; c != nil && !c.isDead() {
			w.mu.Unlock()
			return c, nil
		}
	}
	slot := w.next
	gen := w.gen
	w.mu.Unlock()

	c, err := dialWorker(w.addr, w.opts)
	if err != nil {
		return nil, err
	}

	w.mu.Lock()
	// Kill/Close may have swept the pool while we were dialing; a connection
	// installed now would never be torn down.
	if w.killed.Load() || w.gen != gen {
		w.mu.Unlock()
		c.nc.Close()
		return nil, unreachableErr(w.addr, errors.New("worker closed while dialing"))
	}
	if old := w.conns[slot]; old == nil || old.isDead() {
		w.conns[slot] = c
		w.mu.Unlock()
		return c, nil
	}
	// A concurrent dial already filled the slot; use the winner and fold our
	// spare connection back into the first free slot rather than leaking it.
	for i, old := range w.conns {
		if old == nil || old.isDead() {
			w.conns[i] = c
			w.mu.Unlock()
			return c, nil
		}
	}
	winner := w.conns[slot]
	w.mu.Unlock()
	c.nc.Close()
	return winner, nil
}

// closeConns tears down every pooled connection (failing their in-flight
// calls with err when non-nil).
func (w *worker) closeConns(err error) {
	w.mu.Lock()
	conns := w.conns
	w.conns = make([]*pipeConn, len(conns))
	w.gen++
	w.mu.Unlock()
	for _, c := range conns {
		if c != nil {
			if err != nil {
				c.fail(err)
			} else {
				c.nc.Close()
			}
		}
	}
}

// callResult is the outcome of a pipelined request, delivered by the read
// loop. A get's images have been read into the call's own slots by then.
type callResult struct {
	status uint8
	body   []byte // error text (stError); empty otherwise
	err    error
}

// call is one request in flight. A get's req.images is where the read loop
// puts what comes back.
type call struct {
	reqID uint64
	req   request
	ch    chan callResult
}

// pipeConn is one pipelined connection, modeled on Codis's backend
// connection: writers append a call to the FIFO and write the request frame
// under the write lock (so queue order equals wire order); a single read
// loop matches responses to calls in order.
type pipeConn struct {
	nc       net.Conn
	br       *bufio.Reader
	maxFrame int

	wmu    sync.Mutex // serializes enqueue+write so FIFO order matches the wire
	nextID uint64     // under wmu
	head   []byte     // under wmu: the frame being written, up to a put's images
	bufs   [][]byte   // under wmu: head and those images, as one writev

	qmu     sync.Mutex
	pending []*call
	dead    bool
	err     error

	table []byte // read loop only: the block table of the get response being read
}

func dialWorker(addr string, opts Options) (*pipeConn, error) {
	nc, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, unreachableErr(addr, err)
	}
	c := &pipeConn{
		nc:       nc,
		br:       bufio.NewReaderSize(nc, 64<<10),
		maxFrame: opts.MaxFrame,
	}
	nc.SetDeadline(time.Now().Add(opts.DialTimeout))
	if _, err := nc.Write(rdd.AppendFrame(nil, helloFrame)); err != nil {
		nc.Close()
		return nil, unreachableErr(addr, err)
	}
	if err := ExpectHello(c.br, helloFrame); err != nil {
		nc.Close()
		return nil, unreachableErr(addr, err)
	}
	nc.SetDeadline(time.Time{})
	//distenc:goroutine-owned-by conn-close -- readLoop exits when the connection dies or closes (its reads error), and fail/closeConns always close the conn
	go c.readLoop()
	return c, nil
}

func (c *pipeConn) isDead() bool {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	return c.dead
}

// fail marks the connection dead, closes it, and delivers err to every
// pending call. Idempotent.
func (c *pipeConn) fail(err error) {
	c.qmu.Lock()
	if c.dead {
		c.qmu.Unlock()
		return
	}
	c.dead = true
	c.err = err
	pend := c.pending
	c.pending = nil
	c.qmu.Unlock()
	c.nc.Close()
	for _, cl := range pend {
		cl.ch <- callResult{err: err}
	}
}

func (c *pipeConn) readLoop() {
	for {
		if err := c.readResponse(); err != nil {
			c.fail(err)
			return
		}
	}
}

// readResponse reads one response frame and delivers it to the call at the
// head of the FIFO. The frame is consumed piecewise rather than through
// rdd.ReadFrame so that a get's images land directly in the buffers the caller
// supplied. A call taken off the FIFO is always answered — from here on fail
// no longer knows it — and only after its images are no longer written to.
func (c *pipeConn) readResponse() error {
	var hdr [4 + respHeaderLen]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return fmt.Errorf("transport: connection lost: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if int64(n) > int64(c.maxFrame) {
		// Not wrapped as rdd.ErrFrameTooLarge: every call queued on the
		// connection gets this error, and only one of them asked for too much.
		return fmt.Errorf("transport: response frame of %d bytes exceeds the %d-byte limit", n, c.maxFrame)
	}
	if n < respHeaderLen {
		return fmt.Errorf("transport: response frame of %d bytes, want >= %d", n, respHeaderLen)
	}
	reqID, status, _, _ := parseResponse(hdr[4:])
	c.qmu.Lock()
	if len(c.pending) == 0 {
		c.qmu.Unlock()
		return fmt.Errorf("transport: unsolicited response %d", reqID)
	}
	cl := c.pending[0]
	c.pending = c.pending[1:]
	c.qmu.Unlock()

	res := callResult{status: status}
	body := int(n) - respHeaderLen
	switch {
	case cl.reqID != reqID:
		res.err = fmt.Errorf("transport: response %d for request %d (pipeline desync)", reqID, cl.reqID)
	case status == stOK && cl.req.op == opGet:
		c.table, res.err = readBlocks(c.br, body, cl.req.ids, cl.req.images, c.table)
	case body > 0:
		res.body = make([]byte, body)
		_, res.err = io.ReadFull(c.br, res.body)
	}
	if res.err != nil {
		res.err = fmt.Errorf("transport: reading response %d: %w", reqID, res.err)
	}
	cl.ch <- res
	return res.err
}

// readBlocks reads a get response's body — block table, then images — from
// r: the table into the table scratch (returned for reuse), each image into
// its slot of images, whose capacity is used when the image fits and replaced
// by a fresh slice when not; a block the worker does not hold leaves nil. The
// table must answer exactly the ids asked for, in order, and is bounded and
// checked against the body's length before any image is sized from it.
func readBlocks(r io.Reader, body int, ids []rdd.BlockID, images [][]byte, table []byte) ([]byte, error) {
	var cnt [4]byte
	if body < len(cnt) {
		return table, fmt.Errorf("get response body of %d bytes has no block table", body)
	}
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return table, err
	}
	count := binary.LittleEndian.Uint32(cnt[:])
	n, err := blockEntriesLen(count, body-len(cnt))
	if err != nil {
		return table, err
	}
	if int(count) != len(ids) {
		return table, fmt.Errorf("get response answers %d blocks, %d were asked for", count, len(ids))
	}
	if cap(table) < n {
		table = make([]byte, n)
	}
	t := blockEntries(table[:n])
	if _, err := io.ReadFull(r, t); err != nil {
		return table, err
	}
	if err := checkBlockLens(t, body-len(cnt)-n); err != nil {
		return table, err
	}
	for i, want := range ids {
		id, n := t.at(i)
		if id != want {
			return table, fmt.Errorf("get response entry %d is block %v, asked for %v", i, id, want)
		}
		if n == lenNotHeld {
			images[i] = nil
			continue
		}
		if images[i] != nil && uint64(cap(images[i])) >= uint64(n) {
			images[i] = images[i][:n]
		} else {
			images[i] = make([]byte, n) // non-nil even when empty: nil means not held
		}
		if _, err := io.ReadFull(r, images[i]); err != nil {
			return table, err
		}
	}
	return table, nil
}

// roundTrip sends one request and waits for its response (or timeout, which
// condemns the whole connection — a one-request stall means the server-side
// sequential handler is stuck, so everything queued behind it is too).
func (c *pipeConn) roundTrip(req request, timeout time.Duration) (uint8, []byte, error) {
	cl := &call{req: req, ch: make(chan callResult, 1)}
	if err := c.send(req, cl); err != nil {
		return 0, nil, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-cl.ch:
		return res.status, res.body, res.err
	case <-timer.C:
		c.fail(fmt.Errorf("transport: request timed out after %v", timeout))
		res := <-cl.ch
		if res.err != nil {
			return 0, nil, res.err
		}
		return res.status, res.body, nil
	}
}

// send writes req's frame — header, body and a put's images in one writev,
// straight from the caller's slices — after queueing cl (nil for a request
// nothing answers) for the response. A request over the frame limit is
// refused before anything is queued or written: the connection stays good.
//
//distenc:lockheld-ok -- wmu is the wire-order lock: writing the frame under it is its entire purpose (FIFO request order must match the read loop's FIFO response matching)
func (c *pipeConn) send(req request, cl *call) error {
	c.wmu.Lock()
	reqID := c.nextID + 1
	head, imageBytes := appendRequest(append(c.head[:0], 0, 0, 0, 0), reqID, req)
	c.head = head
	size := int64(len(head)-4) + imageBytes
	if size > int64(c.maxFrame) {
		c.wmu.Unlock()
		return fmt.Errorf("transport: request: %w: %d bytes (limit %d)", rdd.ErrFrameTooLarge, size, c.maxFrame)
	}
	setFrameLen(head, imageBytes)
	c.qmu.Lock()
	if c.dead {
		err := c.err
		c.qmu.Unlock()
		c.wmu.Unlock()
		return err
	}
	c.nextID = reqID
	if cl != nil {
		cl.reqID = reqID
		c.pending = append(c.pending, cl)
	}
	c.qmu.Unlock()
	c.bufs = append(c.bufs[:0], head)
	if req.op == opPut {
		c.bufs = append(c.bufs, req.images...)
	}
	bufs := net.Buffers(c.bufs) // WriteTo nils each slot of c.bufs as it goes
	_, err := bufs.WriteTo(c.nc)
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
		if cl != nil {
			<-cl.ch // fail delivered to our call too; settle its channel
		}
	}
	return err
}

// call performs one round trip against worker m, classifying every
// connection-level failure as the machine being unreachable.
func (t *Client) call(m int, req request) (uint8, []byte, error) {
	if m < 0 || m >= len(t.workers) {
		return 0, nil, fmt.Errorf("transport: no worker %d (have %d)", m, len(t.workers))
	}
	w := t.workers[m]
	c, err := w.conn()
	if err != nil {
		return 0, nil, err
	}
	status, resp, err := c.roundTrip(req, t.opts.CallTimeout)
	if err != nil {
		// A frame over the limit would be over it on any worker: a hard
		// error, not a dead machine.
		if errors.Is(err, rdd.ErrMachineUnreachable) || errors.Is(err, rdd.ErrFrameTooLarge) {
			return 0, nil, err
		}
		return 0, nil, unreachableErr(w.addr, err)
	}
	return status, resp, nil
}

// Workers reports how many workers the client fronts.
func (t *Client) Workers() int { return len(t.workers) }

// PutBlocks stores images under ids on worker m in one round trip.
func (t *Client) PutBlocks(m int, ids []rdd.BlockID, images [][]byte) error {
	status, resp, err := t.call(m, request{op: opPut, ids: ids, images: images})
	if err != nil {
		return err
	}
	if status != stOK {
		return fmt.Errorf("transport: put of %d blocks on worker %d: %s", len(ids), m, resp)
	}
	return nil
}

// FetchBlocks reads the images of ids from worker m in one round trip, each
// straight into its slot of images (see rdd.Transport).
func (t *Client) FetchBlocks(m int, ids []rdd.BlockID, images [][]byte) error {
	status, resp, err := t.call(m, request{op: opGet, ids: ids, images: images})
	if err != nil {
		return err
	}
	if status != stOK {
		return fmt.Errorf("transport: fetch of %d blocks from worker %d: %s", len(ids), m, resp)
	}
	var missing []error
	for i, img := range images {
		if img == nil {
			missing = append(missing, fmt.Errorf("%w: %v on worker %d", rdd.ErrBlockNotFound, ids[i], m))
		}
	}
	return errors.Join(missing...)
}

// Put stores one block image on worker m: PutBlocks of one.
func (t *Client) Put(m int, id rdd.BlockID, data []byte) error {
	return t.PutBlocks(m, []rdd.BlockID{id}, [][]byte{data})
}

// Fetch returns one block image from worker m: FetchBlocks of one.
func (t *Client) Fetch(m int, id rdd.BlockID) ([]byte, error) {
	images := make([][]byte, 1)
	if err := t.FetchBlocks(m, []rdd.BlockID{id}, images); err != nil {
		return nil, err
	}
	return images[0], nil
}

// Drop asks worker m to forget owner's blocks, best-effort.
func (t *Client) Drop(m int, owner int64) {
	t.call(m, request{op: opDrop, owner: owner})
}

// Ping round-trips a liveness probe to worker m.
func (t *Client) Ping(m int) error {
	status, resp, err := t.call(m, request{op: opPing})
	if err != nil {
		return err
	}
	if status != stOK {
		return fmt.Errorf("transport: ping worker %d: %s", m, resp)
	}
	return nil
}

// Kill terminates worker m's process: SIGKILL for spawned workers (the
// crash KillMachine models), a fire-and-forget die request for external
// ones. Idempotent; subsequent Puts/Fetches fail fast as unreachable.
func (t *Client) Kill(m int) error {
	if m < 0 || m >= len(t.workers) {
		return fmt.Errorf("transport: no worker %d (have %d)", m, len(t.workers))
	}
	w := t.workers[m]
	if w.killed.Swap(true) {
		return nil
	}
	if w.cmd != nil {
		w.cmd.Process.Kill()
		w.reap.Do(func() { w.cmd.Wait() })
		if w.lifeline != nil {
			w.lifeline.Close()
		}
	} else if c, err := dialWorker(w.addr, w.opts); err == nil {
		c.send(request{op: opDie}, nil) // the server exits instead of answering
		c.nc.Close()
	}
	w.closeConns(unreachableErr(w.addr, errors.New("worker killed")))
	return nil
}

// Close shuts the transport down: connections close, spawned workers get
// SIGTERM (graceful drain), then SIGKILL after a grace period. External
// workers are left running.
func (t *Client) Close() error {
	for _, w := range t.workers {
		w.closeConns(nil)
		if w.cmd != nil && !w.killed.Swap(true) {
			w.cmd.Process.Signal(syscall.SIGTERM)
			done := make(chan struct{})
			//distenc:goroutine-owned-by channel-drain -- both select arms below join done (the timeout arm SIGKILLs first, so the Wait and this goroutine finish)
			go func(w *worker) {
				w.reap.Do(func() { w.cmd.Wait() })
				close(done)
			}(w)
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				w.cmd.Process.Kill()
				<-done
			}
		}
		if w.lifeline != nil {
			w.lifeline.Close()
		}
	}
	return nil
}

// Addrs returns each worker's address, index-aligned with machine IDs.
func (t *Client) Addrs() []string {
	addrs := make([]string, len(t.workers))
	for i, w := range t.workers {
		addrs[i] = w.addr
	}
	return addrs
}

// DialWorkers connects to n already-running distenc-worker daemons and
// verifies each with a ping. The workers are index-aligned with the
// cluster's machine IDs.
func DialWorkers(addrs []string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	t := &Client{opts: opts}
	for _, addr := range addrs {
		t.workers = append(t.workers, &worker{
			opts:  opts,
			addr:  addr,
			conns: make([]*pipeConn, opts.PoolSize),
		})
	}
	for m := range t.workers {
		if err := t.Ping(m); err != nil {
			t.Close()
			return nil, fmt.Errorf("transport: worker %d (%s) not answering: %w", m, addrs[m], err)
		}
	}
	return t, nil
}

// StartWorkers spawns n worker processes by re-execing the current binary
// (which must call WorkerHook early in main or TestMain) and returns a
// client connected to them. Each worker listens on an ephemeral localhost
// port; Close tears everything down.
func StartWorkers(n int, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("transport: locating own binary: %w", err)
	}
	t := &Client{opts: opts}
	for i := 0; i < n; i++ {
		w, err := spawnWorker(exe, opts)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("transport: spawning worker %d: %w", i, err)
		}
		t.workers = append(t.workers, w)
	}
	return t, nil
}

// spawnWorker launches one worker process and waits for its LISTEN line.
func spawnWorker(exe string, opts Options) (*worker, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	lr, lw, err := os.Pipe()
	if err != nil {
		pr.Close()
		pw.Close()
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), envListen+"=127.0.0.1:0", envLifeline+"=1")
	cmd.Stdin = lr // lifeline: EOF here tells the worker its driver is gone
	cmd.Stdout = pw
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		lr.Close()
		lw.Close()
		return nil, err
	}
	pw.Close() // child holds the write end now
	lr.Close() // and the lifeline's read end

	addrCh := make(chan string, 1)
	//distenc:goroutine-owned-by process-lifetime -- drains the child's stdout until EOF, which arrives exactly when the worker process exits (Close reaps it); the addrCh handoff is buffered
	go func() {
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		reported := false
		for sc.Scan() {
			line := sc.Text()
			if !reported && len(line) > len(listenLinePrefix) && line[:len(listenLinePrefix)] == listenLinePrefix {
				addrCh <- line[len(listenLinePrefix):]
				reported = true
				// Keep draining so the worker's stdout never blocks.
			}
		}
		if !reported {
			close(addrCh)
		}
	}()

	var addr string
	select {
	case a, ok := <-addrCh:
		if !ok {
			cmd.Process.Kill()
			cmd.Wait()
			lw.Close()
			return nil, errors.New("worker exited before reporting its address")
		}
		addr = a
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		lw.Close()
		return nil, errors.New("timed out waiting for worker to report its address")
	}
	return &worker{
		opts:     opts,
		addr:     addr,
		cmd:      cmd,
		lifeline: lw,
		conns:    make([]*pipeConn, opts.PoolSize),
	}, nil
}
