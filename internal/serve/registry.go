package serve

import (
	"fmt"
	"slices"
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
// counts survive reloads and refreshes.
type modelStats struct {
	queries   atomic.Int64
	cells     atomic.Int64
	swaps     atomic.Int64
	refreshes atomic.Int64
}

// Model is one immutable served model generation: the factor matrices of a
// finished (or refreshed) completion run. Nothing in a Model changes after
// registration — updates build a new Model and swap the registry entry — so
// a request handler that captured a *Model answers its whole batch from one
// consistent generation.
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
	stats    *modelStats
	loadedAt time.Time
}

// LoadModel reads a solver checkpoint image and wraps it as a servable
// model. data may be empty; a model without observations is served but never
// refreshed. The fourth argument sized the row LRU that PR 28 deleted; it is
// accepted and ignored because benchmark/ passes it, and leaves with ROADMAP
// item 2's phase 2.
func LoadModel(name, ckptPath, data string, _ int) (*Model, error) {
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

// predictTile is the product slab of PredictBatch in floats: 8 KB, a quarter
// of a 32 KB L1d, so a tile's partial products stay resident while the factor
// rows of its cells stream past them once per mode.
const predictTile = 1024

// PredictBatch evaluates count = len(flat)/order cells given as a flat
// row-major index block, appending predictions to out. Every index is
// validated before any cell is evaluated, so a bad batch is rejected whole.
//
// Cells are evaluated a tile of predictTile/R at a time and, within a tile, a
// mode at a time: the mode-0 rows are copied into the slab, the rows of modes
// 1…N−2 multiplied into it, and the last mode finishes each cell as
// s += p·v for j ascending. Those are the operations of
// sptensor.Kruskal.At in its order — per j the product runs over the modes
// ascending, the sum over j ascending — so every value is bit-equal to it;
// what changes is that a tile's row loads are independent of one another and
// overlap, where a cell at a time each gather waits for the sum before it.
func (m *Model) PredictBatch(order int, flat []int32, out []float64) ([]float64, error) {
	fs := m.kruskal.Factors
	if order != len(fs) {
		return out, fmt.Errorf("serve: model %q: got order-%d cells for an order-%d model", m.Name, order, len(fs))
	}
	if len(flat)%order != 0 {
		return out, fmt.Errorf("serve: model %q: %d indices do not tile order %d", m.Name, len(flat), order)
	}
	// Mode by mode against the row counts: one compare per index. A negative
	// index is a huge unsigned one.
	for n, f := range fs {
		rows := uint(f.Rows())
		for i := n; i < len(flat); i += order {
			if uint(flat[i]) >= rows {
				return out, m.indexError(flat)
			}
		}
	}
	count := len(flat) / order
	out = slices.Grow(out, count)

	r := m.Rank()
	var stack [predictTile]float64
	slab := stack[:]
	if r > len(slab) {
		slab = make([]float64, r) // a tile of one cell
	}
	tile := len(slab) / r
	last := order - 1
	for c0 := 0; c0 < count; c0 += tile {
		nc := min(tile, count-c0)
		cells := flat[c0*order : (c0+nc)*order]
		prod := slab[:nc*r]
		if last == 0 {
			// Order 1 has no second mode to finish with: mode 0 finishes a
			// slab of ones, and 1·v is v.
			for j := range prod {
				prod[j] = 1
			}
		} else {
			for c := 0; c < nc; c++ {
				copy(prod[c*r:(c+1)*r], fs[0].Row(int(cells[c*order])))
			}
		}
		for n := 1; n < last; n++ {
			for c := 0; c < nc; c++ {
				row := fs[n].Row(int(cells[c*order+n]))
				p := prod[c*r:][:len(row)]
				//bce:begin
				for j, v := range row {
					p[j] *= v
				}
				//bce:end
			}
		}
		for c := 0; c < nc; c++ {
			row := fs[last].Row(int(cells[c*order+last]))
			p := prod[c*r:][:len(row)]
			var s float64
			//bce:begin
			for j, v := range row {
				s += p[j] * v
			}
			//bce:end
			out = append(out, s)
		}
	}
	m.stats.queries.Add(1)
	m.stats.cells.Add(int64(count))
	return out, nil
}

// indexError names the first out-of-range index of flat in cell order — the
// cell a caller reading its batch top to bottom meets first.
func (m *Model) indexError(flat []int32) error {
	fs := m.kruskal.Factors
	for i, v := range flat {
		n := i % len(fs)
		if rows := fs[n].Rows(); v < 0 || int(v) >= rows {
			return fmt.Errorf("serve: model %q: index %d out of range for mode %d (size %d)", m.Name, v, n, rows)
		}
	}
	return nil
}

// Stats snapshots the model's rollup.
func (m *Model) Stats() metrics.ServeModelStats {
	return metrics.ServeModelStats{
		Model:     m.Name,
		Dims:      m.kruskal.Dims(),
		Rank:      m.Rank(),
		Iter:      m.Iter,
		Queries:   m.stats.queries.Load(),
		Cells:     m.stats.cells.Load(),
		Swaps:     m.stats.swaps.Load(),
		Refreshes: m.stats.refreshes.Load(),
		LoadedAt:  m.loadedAt,
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

// lookup is Get for a name still in its request's bytes: the conversion inside
// the map index does not allocate.
func (r *Registry) lookup(name []byte) (*Model, bool) {
	r.mu.RLock()
	m, ok := r.models[string(name)]
	r.mu.RUnlock()
	return m, ok
}

// Put registers m under m.Name, atomically replacing any existing
// generation. The replacement inherits the retired generation's stats
// object (cumulative counters survive the swap). Returns the retired
// generation, if any.
func (r *Registry) Put(m *Model) (*Model, bool) {
	r.mu.Lock()
	old, existed := r.models[m.Name]
	if existed {
		m.stats = old.stats
		m.stats.swaps.Add(1)
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
