package transport

import (
	"net"
	"testing"
	"time"
)

// TestConnDialsOutsidePoolLock pins the lockorder fix in worker.take: the
// dial must not run under w.mu. A silent listener (accepts, never answers
// the hello) holds one caller in framerpc.Dial for the full DialTimeout; a
// second caller that only wants an idle connection must not queue behind it
// for anywhere near that long.
func TestConnDialsOutsidePoolLock(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 4)
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c // hold open, never speak: the dialer waits on hello
		}
	}()
	defer func() {
		// Stop the accept loop before touching the channel: Close unblocks
		// Accept, and only after the loop exits is closing accepted safe.
		ln.Close()
		<-acceptDone
		close(accepted)
		for c := range accepted {
			c.Close()
		}
	}()

	const dialTimeout = 3 * time.Second
	w := &worker{opts: Options{DialTimeout: dialTimeout}.withDefaults(), addr: ln.Addr().String()}

	dialDone := make(chan struct{})
	go func() {
		defer close(dialDone)
		w.take() // parks in framerpc.Dial waiting for a hello that never comes
	}()

	time.Sleep(150 * time.Millisecond) // let the dialer find no idle connection and park
	start := time.Now()
	w.mu.Lock()
	held := time.Since(start)
	w.mu.Unlock()
	if held > dialTimeout/3 {
		t.Fatalf("pool lock blocked %v behind an in-flight dial (DialTimeout %v): take() is dialing under w.mu", held, dialTimeout)
	}
	<-dialDone
}
