package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"distenc/internal/framerpc"
	"distenc/internal/rdd"
)

// Options tunes the TCP transport client.
type Options struct {
	// MaxFrame caps accepted frame sizes (default rdd.DefaultMaxFrame).
	MaxFrame int
	// DialTimeout bounds connection establishment, hello included (default
	// framerpc.DialTimeout).
	DialTimeout time.Duration
	// CallTimeout bounds one request/response round trip (default 60s). A
	// worker that stalls past it is treated as unreachable.
	CallTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxFrame <= 0 {
		o.MaxFrame = rdd.DefaultMaxFrame
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = framerpc.DialTimeout
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 60 * time.Second
	}
	return o
}

// Client implements rdd.Transport over TCP. A call takes a connection to its
// worker for one round trip and gives it back, so each worker has as many
// connections as it has had calls in flight at once — which the scheduler
// bounds at Machines × CoresPerMachine — and never fewer than connect opened
// when the client was built. It is safe for concurrent use by every task
// goroutine.
type Client struct {
	opts    Options
	workers []*worker
}

// unreachableErr wraps a connection-level failure as the sentinel the engine
// maps to machine death.
func unreachableErr(addr string, err error) error {
	return fmt.Errorf("%w: worker %s: %v", rdd.ErrMachineUnreachable, addr, err)
}

// conn is one connection to a worker with the scratch of whoever holds it.
type conn struct {
	*framerpc.Conn
	req   []byte // a request's body ahead of any images
	table []byte // the block table of the get response being read
}

// worker is the client's view of one worker process: its address, the
// connections to it, and — for spawned workers — the child process to reap.
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

	mu     sync.Mutex
	idle   []*conn            // connections no call holds
	live   map[*conn]struct{} // every open connection, idle or mid-call: what closeConns closes
	closed bool               // closeConns has swept: no connection may be added
}

// take hands the caller a connection of its own: an idle one, or a fresh
// dial. The dial happens with w.mu released: holding the pool lock across a
// network connect (up to DialTimeout against a dead host) would convoy every
// caller that only wanted an idle connection — the same class of stall as
// the PR 5 blockFor convoy, but on the client pool.
func (w *worker) take() (*conn, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, unreachableErr(w.addr, errors.New("worker killed or client closed"))
	}
	if n := len(w.idle); n > 0 {
		c := w.idle[n-1]
		w.idle = w.idle[:n-1]
		w.mu.Unlock()
		return c, nil
	}
	w.mu.Unlock()

	fc, err := framerpc.Dial(w.addr, helloFrame, w.opts.MaxFrame, w.opts.DialTimeout)
	if err != nil {
		return nil, unreachableErr(w.addr, err)
	}
	c := &conn{Conn: fc}

	w.mu.Lock()
	// Kill/Close may have swept the pool while we were dialing; a connection
	// registered now would never be torn down.
	if w.closed {
		w.mu.Unlock()
		c.Close()
		return nil, unreachableErr(w.addr, errors.New("worker closed while dialing"))
	}
	if w.live == nil {
		w.live = map[*conn]struct{}{}
	}
	w.live[c] = struct{}{}
	w.mu.Unlock()
	return c, nil
}

// give ends the caller's hold on c: back to the idle list, or closed when the
// call left it broken. After a sweep there is nothing to do — closeConns
// closed c under the call that held it.
func (w *worker) give(c *conn, broken bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case w.closed:
	case broken:
		delete(w.live, c)
		c.Close()
	default:
		w.idle = append(w.idle, c)
	}
}

// closeConns closes every connection to the worker, idle or mid-call — a call
// blocked on its socket fails at once — and refuses new ones.
func (w *worker) closeConns() {
	w.mu.Lock()
	live := w.live
	w.idle, w.live, w.closed = nil, nil, true
	w.mu.Unlock()
	for c := range live {
		c.Close()
	}
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

// call performs one round trip against worker m on a connection of its own
// and returns the failure the worker answered with, if any. A connection-level
// failure — timeout included — closes that connection only and is classified
// as the machine being unreachable.
func (t *Client) call(m int, req request) error {
	if m < 0 || m >= len(t.workers) {
		return fmt.Errorf("transport: no worker %d (have %d)", m, len(t.workers))
	}
	w := t.workers[m]
	c, err := w.take()
	if err != nil {
		return err
	}
	var tail [][]byte
	var read func(io.Reader, int) error
	switch req.op {
	case opPut:
		tail = req.images
	case opGet:
		read = func(r io.Reader, n int) (err error) {
			c.table, err = readBlocks(r, n, req.ids, req.images, c.table)
			return err
		}
	}
	c.req = appendRequest(c.req[:0], req)
	status, text, err := c.Call(req.op, c.req, tail, t.opts.CallTimeout, read)
	// A frame over the limit would be over it on any worker — a hard error,
	// not a dead machine — and was refused before it touched the stream.
	refused := errors.Is(err, rdd.ErrFrameTooLarge)
	w.give(c, err != nil && !refused)
	switch {
	case refused:
		return fmt.Errorf("transport: %w", err)
	case err != nil:
		return unreachableErr(w.addr, err)
	case status != framerpc.StatusOK:
		return fmt.Errorf("transport: %s on worker %d: %s", opNames[req.op], m, text)
	}
	return nil
}

// Workers reports how many workers the client fronts.
func (t *Client) Workers() int { return len(t.workers) }

// PutBlocks stores images under ids on worker m in one round trip.
func (t *Client) PutBlocks(m int, ids []rdd.BlockID, images [][]byte) error {
	return t.call(m, request{op: opPut, ids: ids, images: images})
}

// FetchBlocks reads the images of ids from worker m in one round trip, each
// straight into its slot of images (see rdd.Transport).
func (t *Client) FetchBlocks(m int, ids []rdd.BlockID, images [][]byte) error {
	if err := t.call(m, request{op: opGet, ids: ids, images: images}); err != nil {
		return err
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
	return t.call(m, request{op: opPing})
}

// Kill terminates worker m's process: SIGKILL for spawned workers (the
// crash KillMachine models), a die request for external ones. Idempotent;
// calls in flight and subsequent Puts/Fetches fail fast as unreachable.
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
	} else if c, err := framerpc.Dial(w.addr, helloFrame, w.opts.MaxFrame, w.opts.DialTimeout); err == nil {
		// A worker process exits instead of answering, so the call ends in
		// EOF; an in-process server refuses. Neither outcome matters here.
		c.Call(opDie, nil, nil, w.opts.DialTimeout, nil)
		c.Close()
	}
	w.closeConns()
	return nil
}

// Close shuts the transport down: connections close, spawned workers get
// SIGTERM (graceful drain), then SIGKILL after a grace period. External
// workers are left running.
func (t *Client) Close() error {
	for _, w := range t.workers {
		w.closeConns()
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

// connect opens, to every worker, one connection per worker, and by each hello
// exchange verifies that it reached a worker of this protocol version. The
// engine runs a task slot per machine and a slot makes one call at a time, so
// with one core per machine a worker's pool stops growing at W connections,
// which it reaches in the first stage whose tasks fetch from it together.
// Opened here, they cost the set-up 0.2 ms each once; left to the first calls
// that happen to overlap, the dials land inside the first iteration — three or
// four of them, by timing, at 0.4 ms each while another task competes for the
// driver — and what that iteration takes (time_to_rmse_s on solve-tcp-small
// is little else) varies from run to run with their number. Only
// CoresPerMachine > 1 or a lost connection dials after this.
func (t *Client) connect() error {
	for m, w := range t.workers {
		held := make([]*conn, 0, len(t.workers))
		for range t.workers {
			c, err := w.take()
			if err != nil {
				t.Close() // sweeps the ones held too
				return fmt.Errorf("transport: worker %d (%s) not answering: %w", m, w.addr, err)
			}
			held = append(held, c)
		}
		for _, c := range held {
			w.give(c, false)
		}
	}
	return nil
}

// DialWorkers connects to n already-running distenc-worker daemons (see
// connect). The workers are index-aligned with the cluster's machine IDs.
func DialWorkers(addrs []string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	t := &Client{opts: opts}
	for _, addr := range addrs {
		t.workers = append(t.workers, &worker{opts: opts, addr: addr})
	}
	if err := t.connect(); err != nil {
		return nil, err
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
	if err := t.connect(); err != nil {
		return nil, err
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
	return &worker{opts: opts, addr: addr, cmd: cmd, lifeline: lw}, nil
}
