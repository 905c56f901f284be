// Command distenc-worker is a standalone block-store worker for the TCP
// execution backend. A driver started with -backend tcp connects to one
// worker per simulated machine; shuffle buckets live in the worker's memory
// and die with it.
//
// Usage:
//
//	distenc-worker [-listen 127.0.0.1:0]
//
// The worker prints "DISTENC-WORKER LISTEN host:port" on stdout once it is
// accepting, so callers that asked for port 0 learn the bound address. It
// drains gracefully on SIGTERM/SIGINT.
package main

import (
	"flag"
	"fmt"
	"os"

	"distenc/internal/transport"
)

func main() {
	// When re-execed by transport.StartWorkers the environment, not the
	// flags, configures the worker.
	transport.WorkerHook()

	listen := flag.String("listen", "127.0.0.1:0", "address to listen on (port 0 picks an ephemeral port)")
	flag.Parse()

	if err := transport.RunWorker(*listen, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "distenc-worker:", err)
		os.Exit(1)
	}
}
