package serve

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"distenc/internal/core"
	"distenc/internal/rdd"
	"distenc/internal/sptensor"
)

// RefreshConfig drives the online-refresh loop: every Every, each model
// that names an observation file is warm-started from its current
// checkpoint for Iters more ADMM iterations over the re-read observations
// (so rows appended to the COO file since training fold into the factors),
// and the refreshed generation atomically replaces the served one.
type RefreshConfig struct {
	// Every is the loop period; 0 disables the loop entirely.
	Every time.Duration
	// Iters is how many additional iterations each refresh runs (default 1).
	Iters int
	// Machines is the in-process cluster width the warm-start runs on
	// (default 2).
	Machines int
	// ScratchDir hosts the per-refresh checkpoint scratch directories
	// (default: the OS temp dir).
	ScratchDir string
	// ReadTensor loads the observation tensor from a COO file. The daemon
	// injects the top-level ReadCOO; the indirection keeps internal/serve
	// free of an upward dependency on the façade package.
	ReadTensor TensorReader
	// OnRefresh, when set, observes each completed refresh (test hook).
	OnRefresh func(model string, err error)
}

// TensorReader matches the façade's COO loader: it returns the observation
// tensor parsed from path.
type TensorReader func(path string) (*sptensor.Tensor, error)

// refresher owns the background loop. One refresh pass runs at a time —
// concurrent triggers (ticker vs admin POST /refresh) are rejected, not
// queued — and a failed refresh leaves the old generation serving.
type refresher struct {
	reg *Registry
	cfg RefreshConfig

	done     chan struct{}
	stopOnce sync.Once
	sem      chan struct{} // capacity 1: at most one pass in flight

	dirMu sync.Mutex
	dirs  map[string]string // model name -> scratch dir of the served generation
}

func newRefresher(reg *Registry, cfg RefreshConfig) *refresher {
	if cfg.Iters <= 0 {
		cfg.Iters = 1
	}
	if cfg.Machines <= 0 {
		cfg.Machines = 2
	}
	return &refresher{
		reg:  reg,
		cfg:  cfg,
		done: make(chan struct{}),
		sem:  make(chan struct{}, 1),
		dirs: map[string]string{},
	}
}

// run ticks until stop. Owned by Server.Serve's WaitGroup.
func (r *refresher) run() {
	t := time.NewTicker(r.cfg.Every)
	defer t.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-t.C:
			r.refreshAll()
		}
	}
}

// stop ends the loop; in-flight passes finish (Server.Shutdown waits on
// the run goroutine via its WaitGroup).
func (r *refresher) stop() {
	r.stopOnce.Do(func() { close(r.done) })
}

// cleanup removes the scratch directories; call only after run exited.
func (r *refresher) cleanup() {
	r.dirMu.Lock()
	dirs := make([]string, 0, len(r.dirs))
	for _, d := range r.dirs {
		dirs = append(dirs, d)
	}
	r.dirs = map[string]string{}
	r.dirMu.Unlock()
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// refreshAll refreshes every model that has an observation file, returning
// the refreshed names and per-model errors. A pass already in flight makes
// the call return immediately with an error.
func (r *refresher) refreshAll() (refreshed []string, errs []error) {
	select {
	case r.sem <- struct{}{}:
	default:
		return nil, []error{errors.New("serve: refresh already in progress")}
	}
	defer func() { <-r.sem }()

	for _, m := range r.reg.Models() {
		if m.Data == "" {
			continue
		}
		err := r.refreshModel(m)
		if err != nil {
			errs = append(errs, fmt.Errorf("serve: refreshing %q: %w", m.Name, err))
		} else {
			refreshed = append(refreshed, m.Name)
		}
		if r.cfg.OnRefresh != nil {
			r.cfg.OnRefresh(m.Name, err)
		}
	}
	return refreshed, errs
}

// refreshModel warm-starts one model from its current checkpoint over the
// re-read observations and swaps the refreshed generation in. Any failure
// leaves the served generation untouched.
func (r *refresher) refreshModel(m *Model) error {
	if r.cfg.ReadTensor == nil {
		return errors.New("refresh needs a TensorReader")
	}
	t, err := r.cfg.ReadTensor(m.Data)
	if err != nil {
		return fmt.Errorf("re-reading observations %s: %w", m.Data, err)
	}

	// Warm-start in a scratch directory seeded with the served generation's
	// checkpoint, so a crash or error mid-refresh can never corrupt the
	// image the served model was loaded from.
	scratch, err := os.MkdirTemp(r.cfg.ScratchDir, "distenc-serve-refresh-")
	if err != nil {
		return err
	}
	img, err := os.ReadFile(m.Source)
	if err != nil {
		os.RemoveAll(scratch)
		return fmt.Errorf("reading served checkpoint: %w", err)
	}
	if err := os.WriteFile(core.CheckpointPath(scratch), img, 0o600); err != nil {
		os.RemoveAll(scratch)
		return err
	}

	c, err := rdd.NewCluster(rdd.Config{Machines: r.cfg.Machines})
	if err != nil {
		os.RemoveAll(scratch)
		return err
	}
	_, err = core.ResumeDistributed(c, t, nil, core.DistOptions{Options: core.Options{
		Rank: m.Rank(),
		// Run exactly Iters more iterations: the checkpoint restores the
		// iteration counter, and the near-zero Tol (0 would mean "default")
		// keeps the delta criterion from stopping the warm-start early.
		MaxIter:         m.Iter + r.cfg.Iters,
		Tol:             1e-300,
		CheckpointEvery: 1,
		CheckpointDir:   scratch,
	}})
	c.Close()
	if err != nil {
		os.RemoveAll(scratch)
		return err
	}

	next, err := LoadModel(m.Name, core.CheckpointPath(scratch), m.Data, 0)
	if err != nil {
		os.RemoveAll(scratch)
		return fmt.Errorf("re-reading refreshed checkpoint: %w", err)
	}
	r.reg.Put(next) // atomic swap; stats carry over
	next.stats.refreshes.Add(1)

	r.dirMu.Lock()
	prev := r.dirs[m.Name]
	r.dirs[m.Name] = scratch
	r.dirMu.Unlock()
	if prev != "" {
		os.RemoveAll(prev)
	}
	return nil
}
