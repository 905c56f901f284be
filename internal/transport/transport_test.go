package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"distenc/internal/framerpc"
	"distenc/internal/leakcheck"
	"distenc/internal/rdd"
)

// TestMain lets StartWorkers re-exec this very test binary as its worker
// processes: with the env set, WorkerHook serves and exits before any test
// runs. leakcheck then holds every test to the shutdown contract: Close and
// Shutdown leave no goroutine behind.
func TestMain(m *testing.M) {
	WorkerHook()
	os.Exit(leakcheck.Main(m))
}

// startServer runs one in-process Server and returns a client fronting it.
func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(s.Shutdown)
	cl, err := DialWorkers([]string{s.Addr()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return s, cl
}

func TestPutFetchRoundTrip(t *testing.T) {
	_, cl := startServer(t)
	// The store keys on the kind without interpreting it: one the engine
	// does not define round-trips like the one it does.
	for _, kind := range []rdd.BlockKind{rdd.BlockShuffle, 2} {
		id := rdd.BlockID{Kind: kind, Owner: 42, Map: 3, Reduce: 1}
		want := bytes.Repeat([]byte{byte(kind)}, 10_000)
		if err := cl.Put(0, id, want); err != nil {
			t.Fatalf("put kind %d: %v", kind, err)
		}
		got, err := cl.Fetch(0, id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("fetch kind %d: %v (got %d bytes, want %d)", kind, err, len(got), len(want))
		}
	}
}

// TestVectoredPutFetch is the data plane's shape: many blocks stored by one
// PutBlocks and read back by one FetchBlocks, each image landing in the buffer
// its caller supplied when it fits — the engine passes exact-size pool
// buffers, so nothing is copied a second time — and in a fresh slice when
// not. Client.Put and Client.Fetch are the same path with one element.
func TestVectoredPutFetch(t *testing.T) {
	s, cl := startServer(t)
	var ids []rdd.BlockID
	var images [][]byte
	for rp := 0; rp < 8; rp++ {
		ids = append(ids, rdd.BlockID{Kind: rdd.BlockShuffle, Owner: 42, Map: 3, Reduce: int32(rp)})
		images = append(images, bytes.Repeat([]byte{byte(rp + 1)}, rp*1000)) // block 0 is empty
	}
	if err := cl.PutBlocks(0, ids, images); err != nil {
		t.Fatal(err)
	}
	if n := s.blockCount(); n != len(ids) {
		t.Fatalf("worker holds %d blocks after one PutBlocks of %d", n, len(ids))
	}
	got := make([][]byte, len(ids))
	for i := range got {
		if i%2 == 0 {
			got[i] = make([]byte, 0, len(images[i])) // exact fit: must be used
		} else {
			got[i] = make([]byte, 0, 10) // too small: must be replaced
		}
	}
	exact := got[2][:1]
	if err := cl.FetchBlocks(0, ids, got); err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if got[i] == nil || !bytes.Equal(got[i], images[i]) {
			t.Fatalf("block %d: fetched %d bytes (nil=%v), want %d", i, len(got[i]), got[i] == nil, len(images[i]))
		}
	}
	if &got[2][0] != &exact[0] {
		t.Error("a fetched image that fits its caller's buffer was read somewhere else")
	}
	one, err := cl.Fetch(0, ids[5])
	if err != nil || !bytes.Equal(one, images[5]) {
		t.Fatalf("single Fetch of a block stored by PutBlocks: %v (%d bytes)", err, len(one))
	}
}

// TestFetchBlocksReportsMissingPerID: an ID the worker does not hold fails
// that ID, by name, not the batch.
func TestFetchBlocksReportsMissingPerID(t *testing.T) {
	_, cl := startServer(t)
	held := rdd.BlockID{Kind: rdd.BlockShuffle, Owner: 1, Map: 0, Reduce: 1}
	gone := rdd.BlockID{Kind: rdd.BlockShuffle, Owner: 1, Map: 7, Reduce: 1}
	if err := cl.Put(0, held, []byte("held")); err != nil {
		t.Fatal(err)
	}
	got := make([][]byte, 3)
	err := cl.FetchBlocks(0, []rdd.BlockID{held, gone, held}, got)
	if !errors.Is(err, rdd.ErrBlockNotFound) || !strings.Contains(err.Error(), gone.String()) || strings.Contains(err.Error(), held.String()) {
		t.Fatalf("got %v, want rdd.ErrBlockNotFound naming %v only", err, gone)
	}
	if string(got[0]) != "held" || got[1] != nil || string(got[2]) != "held" {
		t.Fatalf("images = %q, want the held block twice around a nil", got)
	}
}

// TestOversizeRequestIsNotAMachineFailure: a request over the frame limit is
// refused on the client before a byte is written — a hard error that would
// recur on any worker, not ErrMachineUnreachable — and the connection, whose
// stream it never touched, goes back to the idle list and carries the next
// call: the server never sees a second one.
func TestOversizeRequestIsNotAMachineFailure(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer s.Shutdown()
	cl, err := DialWorkers([]string{s.Addr()}, Options{MaxFrame: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ids := []rdd.BlockID{{Kind: rdd.BlockShuffle, Owner: 1, Reduce: 0}, {Kind: rdd.BlockShuffle, Owner: 1, Reduce: 1}}
	half := make([]byte, 2048)
	err = cl.PutBlocks(0, ids, [][]byte{half, half})
	if !errors.Is(err, rdd.ErrFrameTooLarge) || errors.Is(err, rdd.ErrMachineUnreachable) {
		t.Fatalf("got %v, want rdd.ErrFrameTooLarge and not rdd.ErrMachineUnreachable", err)
	}
	if err := cl.PutBlocks(0, ids[:1], [][]byte{half}); err != nil {
		t.Fatalf("the connection did not survive the refused request: %v", err)
	}
	if s.blockCount() != 1 {
		t.Fatalf("worker holds %d blocks, want 1", s.blockCount())
	}
	if n := s.Accepted(); n != 1 {
		t.Fatalf("server accepted %d connections, want 1: the refused request cost its connection", n)
	}
}

// TestHelloRefusesOtherVersion: protocol version 1 moved one block per
// request and shares no request layout with version 2, so a v1 peer is
// refused at the hello, by either side, with both versions named.
func TestHelloRefusesOtherVersion(t *testing.T) {
	v1 := []byte{'D', 'T', 'W', 1}

	// A v1 client dialing this server is answered with the v2 hello — so its
	// own check can say what it reached — and then hung up on.
	s, _ := startServer(t)
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := nc.Write(rdd.AppendFrame(nil, v1)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	err = framerpc.ExpectHello(br, v1)
	if err == nil || !strings.Contains(err.Error(), "version 2") || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 client's hello check: %v, want both versions named", err)
	}
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("server kept talking to a v1 peer")
	}

	// A v1 server answering this client's dial.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.Write(rdd.AppendFrame(nil, v1))
		rdd.ReadFrame(conn, 16)
		conn.Close()
	}()
	_, err = DialWorkers([]string{ln.Addr().String()}, Options{})
	ln.Close()
	<-done
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("dialing a v1 worker: %v, want both versions named", err)
	}
}

func TestFetchMissingBlock(t *testing.T) {
	_, cl := startServer(t)
	_, err := cl.Fetch(0, rdd.BlockID{Kind: rdd.BlockShuffle, Owner: 7})
	if !errors.Is(err, rdd.ErrBlockNotFound) {
		t.Fatalf("got %v, want rdd.ErrBlockNotFound", err)
	}
}

func TestDropForgetsOwner(t *testing.T) {
	_, cl := startServer(t)
	keep := rdd.BlockID{Kind: rdd.BlockShuffle, Owner: 1}
	gone := rdd.BlockID{Kind: rdd.BlockShuffle, Owner: 2}
	if err := cl.Put(0, keep, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(0, gone, []byte("gone")); err != nil {
		t.Fatal(err)
	}
	cl.Drop(0, 2)
	if _, err := cl.Fetch(0, keep); err != nil {
		t.Fatalf("unrelated owner dropped too: %v", err)
	}
	if _, err := cl.Fetch(0, gone); !errors.Is(err, rdd.ErrBlockNotFound) {
		t.Fatalf("got %v, want rdd.ErrBlockNotFound after drop", err)
	}
}

// TestSequentialCallsShareOneConnection: a call gives its connection back, so
// a caller that makes one call at a time never opens a second one.
func TestSequentialCallsShareOneConnection(t *testing.T) {
	s, cl := startServer(t)
	id := rdd.BlockID{Kind: rdd.BlockShuffle, Owner: 1}
	for i := 0; i < 50; i++ {
		want := bytes.Repeat([]byte{byte(i)}, 100+i)
		if err := cl.Put(0, id, want); err != nil {
			t.Fatal(err)
		}
		if got, err := cl.Fetch(0, id); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("call %d: %v (%d bytes, want %d)", i, err, len(got), len(want))
		}
	}
	if n := s.Accepted(); n != 1 {
		t.Fatalf("100 sequential calls used %d connections, want 1", n)
	}
}

// TestConcurrentCallsEachHoldAConnection: N callers at once get the bytes each
// asked for over at most N connections — one per call in flight, never shared
// — and a second wave reuses the idle ones instead of dialing again. (Without
// reuse the two waves' 4·N calls would have cost 4·N connections.)
func TestConcurrentCallsEachHoldAConnection(t *testing.T) {
	s, cl := startServer(t)
	const N = 64
	for wave := 0; wave < 2; wave++ {
		var wg sync.WaitGroup
		errs := make(chan error, N)
		for i := 0; i < N; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				id := rdd.BlockID{Kind: rdd.BlockShuffle, Owner: int64(i), Map: int32(wave)}
				want := bytes.Repeat([]byte{byte(i)}, 100+i*37)
				if err := cl.Put(0, id, want); err != nil {
					errs <- err
					return
				}
				got, err := cl.Fetch(0, id)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("call %d: response mismatch (%d bytes, want %d)", i, len(got), len(want))
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		w := cl.workers[0]
		w.mu.Lock()
		idle, live := len(w.idle), len(w.live)
		w.mu.Unlock()
		if n := s.Accepted(); n > N || idle != n || live != n {
			t.Fatalf("wave %d: server accepted %d connections (want <= %d), client holds %d idle of %d open (want all of them idle)", wave, n, N, idle, live)
		}
	}
}

// stallingWorker is a worker that answers pings and parks every get — after
// announcing it on entered — until the test ends.
func stallingWorker(t *testing.T) (srv *framerpc.Server, entered chan struct{}) {
	t.Helper()
	entered = make(chan struct{}, 1)
	release := make(chan struct{})
	srv, err := framerpc.Listen("127.0.0.1:0", helloFrame, rdd.DefaultMaxFrame, func() framerpc.Handler {
		return func(op uint8, req, body []byte, tail [][]byte) (uint8, []byte, [][]byte) {
			if op == opGet {
				entered <- struct{}{}
				<-release
			}
			return framerpc.StatusOK, body, tail
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		close(release)
		srv.Shutdown()
	})
	return srv, entered
}

// TestKillFailsBlockedCallAndClosesEveryConnection: Kill closes the connection
// a call is blocked on, so the call fails at once — well inside CallTimeout —
// as the machine being unreachable, and no connection to the worker, idle or
// held, is left open.
func TestKillFailsBlockedCallAndClosesEveryConnection(t *testing.T) {
	srv, entered := stallingWorker(t)
	cl, err := DialWorkers([]string{srv.Addr()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	done := make(chan error, 1)
	go func() {
		_, err := cl.Fetch(0, rdd.BlockID{Kind: rdd.BlockShuffle, Owner: 1})
		done <- err
	}()
	<-entered
	if err := cl.Ping(0); err != nil { // a second connection, idle when Kill sweeps
		t.Fatal(err)
	}
	if err := cl.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, rdd.ErrMachineUnreachable) {
		t.Fatalf("fetch blocked across Kill: got %v, want rdd.ErrMachineUnreachable", err)
	}
	if err := cl.Ping(0); !errors.Is(err, rdd.ErrMachineUnreachable) {
		t.Fatalf("ping after Kill: got %v, want rdd.ErrMachineUnreachable", err)
	}
	w := cl.workers[0]
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.idle) != 0 || len(w.live) != 0 {
		t.Fatalf("Kill left %d idle of %d open connections", len(w.idle), len(w.live))
	}
}

// TestTimedOutCallClosesItsOwnConnection: a call past CallTimeout fails as
// unreachable and takes its connection with it — the response may still
// arrive, and must not be read as the next call's — while the worker's other
// calls go on: the next one dials a fresh connection and succeeds.
func TestTimedOutCallClosesItsOwnConnection(t *testing.T) {
	srv, _ := stallingWorker(t)
	cl, err := DialWorkers([]string{srv.Addr()}, Options{CallTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Fetch(0, rdd.BlockID{Kind: rdd.BlockShuffle, Owner: 1}); !errors.Is(err, rdd.ErrMachineUnreachable) {
		t.Fatalf("stalled fetch: got %v, want rdd.ErrMachineUnreachable", err)
	}
	if err := cl.Ping(0); err != nil {
		t.Fatalf("call after a timed-out one: %v", err)
	}
	if n := srv.Accepted(); n != 2 {
		t.Fatalf("server accepted %d connections, want 2: DialWorkers' — which the fetch reused and lost — and the last ping's", n)
	}
}

func TestSpawnedWorkersRoundTrip(t *testing.T) {
	cl, err := StartWorkers(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Workers() != 2 {
		t.Fatalf("Workers() = %d, want 2", cl.Workers())
	}
	for m := 0; m < 2; m++ {
		id := rdd.BlockID{Kind: rdd.BlockShuffle, Owner: 5, Map: int32(m)}
		want := bytes.Repeat([]byte{byte(m + 1)}, 5000)
		if err := cl.Put(m, id, want); err != nil {
			t.Fatalf("put to worker %d: %v", m, err)
		}
		got, err := cl.Fetch(m, id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("fetch from worker %d: %v", m, err)
		}
	}
	// Every connection these calls used was open before the first of them:
	// one per worker to each worker, all idle again.
	for m, w := range cl.workers {
		w.mu.Lock()
		idle, live := len(w.idle), len(w.live)
		w.mu.Unlock()
		if idle != 2 || live != 2 {
			t.Errorf("worker %d: %d idle of %d open connections, want the 2 StartWorkers opened", m, idle, live)
		}
	}
}

func TestKillMakesWorkerUnreachable(t *testing.T) {
	cl, err := StartWorkers(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	id := rdd.BlockID{Kind: rdd.BlockShuffle, Owner: 11}
	if err := cl.Put(1, id, []byte("on the doomed worker")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Kill(1); err != nil {
		t.Fatal(err)
	}
	// Every path to the dead worker — fetch of an existing block, fresh put,
	// ping — must surface the retryable unreachable sentinel, not hang or
	// return a hard error.
	if _, err := cl.Fetch(1, id); !errors.Is(err, rdd.ErrMachineUnreachable) {
		t.Fatalf("fetch after kill: got %v, want rdd.ErrMachineUnreachable", err)
	}
	if err := cl.Put(1, id, []byte("x")); !errors.Is(err, rdd.ErrMachineUnreachable) {
		t.Fatalf("put after kill: got %v, want rdd.ErrMachineUnreachable", err)
	}
	if err := cl.Kill(1); err != nil {
		t.Fatalf("second kill not idempotent: %v", err)
	}
	// The surviving worker is unaffected.
	if err := cl.Put(0, id, []byte("alive")); err != nil {
		t.Fatalf("surviving worker: %v", err)
	}
}

func TestKillMidFlightFailsPendingCalls(t *testing.T) {
	cl, err := StartWorkers(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	id := rdd.BlockID{Kind: rdd.BlockShuffle, Owner: 3}
	if err := cl.Put(0, id, bytes.Repeat([]byte{1}, 1<<20)); err != nil {
		t.Fatal(err)
	}
	// Race a stream of fetches against the kill: every call must resolve —
	// success before the kill or unreachable after — never a wrong payload
	// and never a hang.
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			data, err := cl.Fetch(0, id)
			if err != nil {
				if !errors.Is(err, rdd.ErrMachineUnreachable) {
					done <- fmt.Errorf("fetch %d: got %v, want rdd.ErrMachineUnreachable", i, err)
					return
				}
				done <- nil
				return
			}
			if len(data) != 1<<20 {
				done <- fmt.Errorf("fetch %d: short payload %d", i, len(data))
				return
			}
		}
	}()
	if err := cl.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDialWorkersRejectsDeadAddress(t *testing.T) {
	// A listener that closes immediately: DialWorkers must fail its ping
	// with the unreachable sentinel rather than succeed vacuously.
	_, err := DialWorkers([]string{"127.0.0.1:1"}, Options{})
	if err == nil {
		t.Fatal("DialWorkers succeeded against a closed port")
	}
	if !errors.Is(err, rdd.ErrMachineUnreachable) {
		t.Fatalf("got %v, want rdd.ErrMachineUnreachable", err)
	}
}

func TestGracefulShutdownFinishesInFlight(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	cl, err := DialWorkers([]string{s.Addr()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	id := rdd.BlockID{Kind: rdd.BlockShuffle, Owner: 8}
	if err := cl.Put(0, id, []byte("before drain")); err != nil {
		t.Fatal(err)
	}
	// Shutdown with an idle connection open must not hang on it.
	s.Shutdown()
	if err := cl.Put(0, id, []byte("after drain")); !errors.Is(err, rdd.ErrMachineUnreachable) {
		t.Fatalf("put after shutdown: got %v, want rdd.ErrMachineUnreachable", err)
	}
}

// TestShutdownCutsOffStalledReader: a peer that asks for far more than the
// socket buffers hold and then reads nothing leaves its handler blocked in a
// write. Shutdown's read deadline cannot wake that; the write deadline it arms
// must, well inside the five seconds Client.Close gives a SIGTERMed worker
// before it SIGKILLs.
func TestShutdownCutsOffStalledReader(t *testing.T) {
	s, cl := startServer(t)
	id := rdd.BlockID{Kind: rdd.BlockShuffle, Owner: 1}
	if err := cl.Put(0, id, make([]byte, 4<<20)); err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	stream := rdd.AppendFrame(nil, helloFrame)
	for i := 1; i <= 64; i++ { // small enough to reach the server's read buffer in one piece
		get := request{op: opGet, ids: []rdd.BlockID{id}}
		stream = rdd.AppendFrame(stream, appendRequest(framerpc.AppendHeader(nil, uint64(i), opGet), get))
	}
	if _, err := nc.Write(stream); err != nil {
		t.Fatal(err)
	}
	// The server's hello and the head of its first response: it has the
	// requests and is answering them. Nothing is read from here on.
	if _, err := io.ReadFull(nc, make([]byte, 4+len(helloFrame)+4+framerpc.HeaderLen)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Shutdown()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown is still waiting for a connection whose peer stopped reading")
	}
}

// TestWorkerExitsWhenLifelineCloses is the orphaned-worker regression: a
// spawned worker must not outlive its driver. The driver may die through
// exit paths that skip the deferred Close (log.Fatal, a crash), so the only
// reliable death signal is the lifeline pipe on the worker's stdin — when
// the driver's write end closes, the worker must shut itself down. An
// orphan would hold its inherited stderr open forever and wedge any shell
// pipeline reading the driver's output.
func TestWorkerExitsWhenLifelineCloses(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	lr, lw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"DISTENC_WORKER_LISTEN=127.0.0.1:0",
		"DISTENC_WORKER_LIFELINE=1")
	cmd.Stdin = lr
	cmd.Stdout = pw
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lr.Close()
	pw.Close()

	// Wait for the worker to come up (it reports its address on stdout)
	// before pulling the lifeline, so the test exercises a serving worker
	// rather than racing its startup.
	line := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		if sc.Scan() {
			line <- sc.Text()
		}
		close(line)
		for sc.Scan() {
		}
		pr.Close()
	}()
	select {
	case l, ok := <-line:
		if !ok || !strings.HasPrefix(l, listenLinePrefix) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("worker did not report an address (got %q)", l)
		}
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("timed out waiting for worker to start")
	}

	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker exited with error after lifeline close: %v", err)
		}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatal("worker outlived its driver: still running 10s after the lifeline closed")
	}
}
