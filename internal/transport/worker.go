package transport

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// Environment variables that turn a binary into a worker when set — the
// re-exec hook: StartWorkers launches os.Executable() with these set, and any
// main()/TestMain that calls WorkerHook first becomes the worker process.
// This is how `go test` gets real, killable worker processes without a
// prebuilt binary on PATH.
const (
	envListen = "DISTENC_WORKER_LISTEN"
	// envLifeline marks stdin as a pipe whose far end the spawning driver
	// holds for its whole life. EOF on it means the driver is gone — however
	// it went, including exit paths that skip deferred Close calls — and the
	// worker must not outlive it: an orphaned worker holds inherited stderr
	// open forever, which wedges shell pipelines reading the driver's output.
	envLifeline = "DISTENC_WORKER_LIFELINE"
)

// listenLinePrefix is printed (followed by the bound address) on the report
// writer once the listener is up; StartWorkers scans for it to learn the
// ephemeral port.
const listenLinePrefix = "DISTENC-WORKER LISTEN "

// WorkerHook turns the current process into a worker and never returns when
// the DISTENC_WORKER_LISTEN environment variable is set; otherwise it is a
// no-op. Call it first thing in main() — and in TestMain of test binaries
// that spawn workers — so StartWorkers can re-exec the running binary.
func WorkerHook() {
	addr := os.Getenv(envListen)
	if addr == "" {
		return
	}
	if os.Getenv(envLifeline) == "1" {
		//distenc:goroutine-owned-by process-lifetime -- the lifeline watcher must outlive everything in this process; it dies with the process it exists to kill
		go func() {
			io.Copy(io.Discard, os.Stdin)
			// SIGTERM ourselves rather than os.Exit so RunWorker's handler
			// drains in-flight requests before the process goes away.
			syscall.Kill(os.Getpid(), syscall.SIGTERM)
		}()
	}
	if err := RunWorker(addr, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "distenc-worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// RunWorker serves a block store on addr until SIGTERM/SIGINT, then drains
// gracefully: in-flight requests finish, connections close, and the process
// exits clean. The bound address is reported on report (stdout for spawned
// workers) as "DISTENC-WORKER LISTEN host:port" so a parent that asked for
// port 0 learns the real one. SIGKILL (the crash the chaos suite injects) loses
// every block the worker held; the engine recomputes them from lineage.
func RunWorker(addr string, report io.Writer) error {
	s, err := NewServer(addr)
	if err != nil {
		return err
	}
	s.allowDie = true

	// Arm the signal handler BEFORE announcing the address: the parent may
	// react to the listen line immediately (the lifeline test closes its
	// pipe end the moment it reads it), and a SIGTERM that lands before
	// Notify kills the process at default disposition instead of draining.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	fmt.Fprintf(report, "%s%s\n", listenLinePrefix, s.Addr())
	done := make(chan error, 1)
	//distenc:goroutine-owned-by channel-drain -- both select arms receive from done; the buffer lets Serve's result land even if the signal arm wins
	go func() { done <- s.Serve() }()
	select {
	case <-sig:
		s.Shutdown()
		<-done
		return nil
	case err := <-done:
		return err
	}
}
