package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distenc/internal/core"
	"distenc/internal/metrics"
	"distenc/internal/sptensor"
)

// modelStats carries a model name's cumulative counters. The struct is
// shared across generations: when a swap replaces the model under a name,
// the replacement inherits the same stats object, so query totals and swap
// counts survive reloads and refreshes. Counter rows from retired
// generations' caches are folded into priorHits/priorMisses at swap time.
type modelStats struct {
	queries     atomic.Int64
	cells       atomic.Int64
	swaps       atomic.Int64
	refreshes   atomic.Int64
	priorHits   atomic.Int64
	priorMisses atomic.Int64
}

// Model is one immutable served model generation: the factor matrices of a
// finished (or refreshed) completion run plus its hot-row cache. Nothing in
// a Model changes after registration — updates build a new Model and swap
// the registry entry — so a request handler that captured a *Model answers
// its whole batch from one consistent generation.
type Model struct {
	// Name is the registry key.
	Name string
	// Source is the checkpoint image this generation was loaded from.
	Source string
	// Data optionally points at the COO observation file backing the model;
	// the online-refresh loop re-reads it to fold appended observations in.
	Data string
	// Iter and Eta are the training iteration count and ADMM penalty
	// recorded in the checkpoint (refreshes advance them).
	Iter int
	Eta  float64

	kruskal  *sptensor.Kruskal
	cache    *rowCache
	stats    *modelStats
	loadedAt time.Time
}

// LoadModel reads a solver checkpoint image and wraps it as a servable
// model with a hot-row LRU of cacheRows rows (0 disables the cache). data
// may be empty; a model without observations is served but never refreshed.
func LoadModel(name, ckptPath, data string, cacheRows int) (*Model, error) {
	// Predicting needs the factors only; the aux and dual groups are skipped.
	ck, err := core.ReadCheckpointFactors(ckptPath)
	if err != nil {
		return nil, fmt.Errorf("serve: loading model %q: %w", name, err)
	}
	return &Model{
		Name:     name,
		Source:   ckptPath,
		Data:     data,
		Iter:     ck.Iter,
		Eta:      ck.Eta,
		kruskal:  ck.Model(),
		cache:    newRowCache(cacheRows),
		stats:    &modelStats{},
		loadedAt: time.Now(),
	}, nil
}

// Order returns the tensor order N.
func (m *Model) Order() int { return len(m.kruskal.Factors) }

// Rank returns the CP rank R.
func (m *Model) Rank() int { return m.kruskal.Rank() }

// Dims returns the mode sizes.
func (m *Model) Dims() []int { return m.kruskal.Dims() }

// Kruskal exposes the underlying factors (read-only by convention).
func (m *Model) Kruskal() *sptensor.Kruskal { return m.kruskal }

// factorRow returns factor mode's row through the hot-row cache. Cached
// rows are exact copies, so the returned values are bit-identical either
// way.
func (m *Model) factorRow(mode int, row int32) []float64 {
	if r := m.cache.Get(int16(mode), row); r != nil {
		return r
	}
	r := m.kruskal.Factors[mode].Row(int(row))
	m.cache.Put(int16(mode), row, r)
	return r
}

// at evaluates one cell given a caller-owned rows scratch of length Order.
// The summation order matches sptensor.Kruskal.At exactly — p starts from
// the mode-0 row entry and multiplies mode 1..N-1 in order — so serve
// predictions are bit-equal to Kruskal.At for every cell.
func (m *Model) at(idx []int32, rows [][]float64) float64 {
	for n := range rows {
		rows[n] = m.factorRow(n, idx[n])
	}
	r := m.Rank()
	row0 := rows[0]
	var s float64
	for j := 0; j < r; j++ {
		p := row0[j]
		for n := 1; n < len(rows); n++ {
			p *= rows[n][j]
		}
		s += p
	}
	return s
}

// checkIndex validates one multi-index against the model's geometry.
func (m *Model) checkIndex(idx []int32) error {
	dims := m.kruskal.Dims()
	if len(idx) != len(dims) {
		return fmt.Errorf("serve: model %q: got %d indices for an order-%d tensor", m.Name, len(idx), len(dims))
	}
	for n, i := range idx {
		if i < 0 || int(i) >= dims[n] {
			return fmt.Errorf("serve: model %q: index %d out of range for mode %d (size %d)", m.Name, i, n, dims[n])
		}
	}
	return nil
}

// At predicts a single cell after validating the index.
func (m *Model) At(idx []int32) (float64, error) {
	if err := m.checkIndex(idx); err != nil {
		return 0, err
	}
	rows := make([][]float64, m.Order())
	m.stats.queries.Add(1)
	m.stats.cells.Add(1)
	return m.at(idx, rows), nil
}

// PredictBatch evaluates count = len(flat)/order cells given as a flat
// row-major index block, appending predictions to out. Every index is
// validated before any cell is evaluated, so a bad batch is rejected whole.
func (m *Model) PredictBatch(order int, flat []int32, out []float64) ([]float64, error) {
	if order != m.Order() {
		return out, fmt.Errorf("serve: model %q: got order-%d cells for an order-%d model", m.Name, order, m.Order())
	}
	if order <= 0 || len(flat)%order != 0 {
		return out, fmt.Errorf("serve: model %q: %d indices do not tile order %d", m.Name, len(flat), order)
	}
	count := len(flat) / order
	for c := 0; c < count; c++ {
		if err := m.checkIndex(flat[c*order : (c+1)*order]); err != nil {
			return out, err
		}
	}
	rows := make([][]float64, order)
	for c := 0; c < count; c++ {
		out = append(out, m.at(flat[c*order:(c+1)*order], rows))
	}
	m.stats.queries.Add(1)
	m.stats.cells.Add(int64(count))
	return out, nil
}

// Stats snapshots the model's rollup.
func (m *Model) Stats() metrics.ServeModelStats {
	return metrics.ServeModelStats{
		Model:       m.Name,
		Dims:        m.kruskal.Dims(),
		Rank:        m.Rank(),
		Iter:        m.Iter,
		Queries:     m.stats.queries.Load(),
		Cells:       m.stats.cells.Load(),
		CacheHits:   m.stats.priorHits.Load() + m.cache.hits.Load(),
		CacheMisses: m.stats.priorMisses.Load() + m.cache.misses.Load(),
		CacheRows:   m.cache.Len(),
		CacheCap:    m.cache.Cap(),
		Swaps:       m.stats.swaps.Load(),
		Refreshes:   m.stats.refreshes.Load(),
		LoadedAt:    m.loadedAt,
	}
}

// Registry is the set of served models, keyed by name. Lookups take a read
// lock only long enough to fetch the *Model pointer; all prediction work
// happens outside the lock against the captured generation.
type Registry struct {
	mu     sync.RWMutex
	models map[string]*Model
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: map[string]*Model{}}
}

// Get returns the current generation under name.
func (r *Registry) Get(name string) (*Model, bool) {
	r.mu.RLock()
	m, ok := r.models[name]
	r.mu.RUnlock()
	return m, ok
}

// Put registers m under m.Name, atomically replacing any existing
// generation. The replacement inherits the retired generation's stats
// object (cumulative counters survive the swap) and the retired cache's
// hit/miss totals are folded into the carried counters. Returns the
// retired generation, if any.
func (r *Registry) Put(m *Model) (*Model, bool) {
	r.mu.Lock()
	old, existed := r.models[m.Name]
	if existed {
		m.stats = old.stats
		m.stats.swaps.Add(1)
		m.stats.priorHits.Add(old.cache.hits.Load())
		m.stats.priorMisses.Add(old.cache.misses.Load())
	}
	r.models[m.Name] = m
	r.mu.Unlock()
	return old, existed
}

// Remove drops name from the registry, returning the retired generation.
func (r *Registry) Remove(name string) (*Model, bool) {
	r.mu.Lock()
	old, existed := r.models[name]
	delete(r.models, name)
	r.mu.Unlock()
	return old, existed
}

// Models returns the current generations, sorted by name.
func (r *Registry) Models() []*Model {
	r.mu.RLock()
	ms := make([]*Model, 0, len(r.models))
	for _, m := range r.models {
		ms = append(ms, m)
	}
	r.mu.RUnlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	return ms
}

// Snapshot returns the registry-wide stats rollup, sorted by name.
func (r *Registry) Snapshot() metrics.ServeSnapshot {
	ms := r.Models()
	snap := make(metrics.ServeSnapshot, len(ms))
	for i, m := range ms {
		snap[i] = m.Stats()
	}
	return snap
}
