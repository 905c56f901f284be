// Command distenc-serve is the completion-as-a-service daemon: it loads
// finished solver checkpoints (solver.ckpt images) into a model registry
// and answers entry-reconstruction queries x̂(i1,…,iN) = Σ_r Π_n A(n)[i_n,r]
// over a length-prefixed binary protocol, with an HTTP/JSON admin plane for
// loading, hot-swapping, and dropping models at runtime.
//
// Usage:
//
//	distenc-serve -listen :7415 -admin :7416 \
//	    -model ratings=ckpt/solver.ckpt -data ratings=ratings.coo \
//	    -refresh-every 10m
//
// Each -model NAME=CKPT registers one model at startup; more can be loaded
// (or hot-swapped) later via POST /models/{name} on the admin plane. A
// -data NAME=COO pairing names the observation file backing the model:
// with -refresh-every set, the daemon periodically re-reads it and
// warm-starts the solver for a few more iterations, folding appended
// observations into the served factors and swapping the refreshed model in
// atomically — in-flight batches always see one consistent generation.
//
// Admin endpoints: GET /healthz, GET /models, POST /models/{name} (body
// {"checkpoint": path, "data": path}), DELETE /models/{name},
// POST /models/{name}/predict (text cells in, JSON out), GET /stats
// (?format=text for a table), POST /refresh.
//
// SIGINT/SIGTERM drain gracefully: in-flight requests finish, then the
// process exits.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"distenc"
	"distenc/internal/serve"
	"distenc/internal/sptensor"
)

// pairFlags collects repeatable NAME=PATH flags.
type pairFlags map[string]string

func (p pairFlags) String() string { return fmt.Sprint(map[string]string(p)) }

func (p pairFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want NAME=PATH, got %q", v)
	}
	p[name] = path
	return nil
}

func readTensor(path string) (*sptensor.Tensor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return distenc.ReadCOO(f)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("distenc-serve: ")
	var (
		listen       = flag.String("listen", "127.0.0.1:7415", "predict-plane TCP address")
		admin        = flag.String("admin", "127.0.0.1:7416", "HTTP admin-plane address (empty disables)")
		refreshEvery = flag.Duration("refresh-every", 0, "period of the online-refresh loop (0 disables); models need a -data file to refresh")
		refreshIters = flag.Int("refresh-iters", 1, "extra ADMM iterations per refresh")
		refreshMach  = flag.Int("refresh-machines", 2, "in-process cluster width for refresh warm-starts")
	)
	models := pairFlags{}
	data := pairFlags{}
	flag.Var(models, "model", "model to serve as NAME=CHECKPOINT (repeatable)")
	flag.Var(data, "data", "observation COO file backing a model as NAME=FILE (repeatable; enables refresh for NAME)")
	flag.Parse()

	for name := range data {
		if _, ok := models[name]; !ok {
			log.Fatalf("-data %s=... names a model with no -model %s=... flag", name, name)
		}
	}

	reg := serve.NewRegistry()
	for name, ckpt := range models {
		m, err := serve.LoadModel(name, ckpt, data[name], 0)
		if err != nil {
			log.Fatal(err)
		}
		reg.Put(m)
		log.Printf("loaded %q from %s: dims=%v rank=%d iter=%d", name, ckpt, m.Dims(), m.Rank(), m.Iter)
	}

	srv, err := serve.NewServer(reg, serve.Config{
		Listen: *listen,
		Admin:  *admin,
		Refresh: serve.RefreshConfig{
			Every:      *refreshEvery,
			Iters:      *refreshIters,
			Machines:   *refreshMach,
			ReadTensor: readTensor,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("predict plane on %s", srv.Addr())
	if a := srv.AdminAddr(); a != "" {
		log.Printf("admin plane on http://%s", a)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	//distenc:goroutine-owned-by done-channel -- main blocks on done (or a signal, after which it drains the server and waits for Serve to return via the same channel)
	go func() { done <- srv.Serve() }()

	select {
	case err := <-done:
		if err != nil {
			log.Fatal(err)
		}
	case sig := <-sigs:
		log.Printf("%s: draining", sig)
		start := time.Now()
		srv.Shutdown()
		<-done
		log.Printf("drained in %s", time.Since(start).Round(time.Millisecond))
	}
}
