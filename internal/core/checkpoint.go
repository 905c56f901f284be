package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"distenc/internal/mat"
	"distenc/internal/rdd"
	"distenc/internal/sptensor"
)

// Solver checkpointing persists the full ADMM iteration state — factors A(n),
// auxiliary variables B(n), multipliers Y(n), the penalty η, and the iteration
// counter — so an interrupted run resumes exactly where it stopped. The
// residual E is NOT stored: it is a pure function of the factors (Eq. 16) and
// is recomputed after a restore, which keeps the file at 3·Σ I_n·R floats. Because
// every quantity the iteration reads is restored bit-for-bit and the solver's
// arithmetic is deterministic, Resume produces factors bit-identical to the
// uninterrupted run (the resume tests assert this via math.Float64bits).
//
// Layout (little-endian): magic "DTCK", format version, iteration count, η,
// order N, rank R, the N mode sizes, then the factor/aux/multiplier matrices
// row-major. Writes go to a temp file in the same directory and rename into
// place, so a crash mid-write never corrupts the previous checkpoint; only
// the latest checkpoint is kept.

// ErrNoCheckpoint is returned by Resume when CheckpointDir holds no
// checkpoint file.
var ErrNoCheckpoint = errors.New("core: no checkpoint found")

const (
	ckptMagic   = uint32(0x4454434b) // "DTCK"
	ckptVersion = uint32(1)
	ckptFile    = "solver.ckpt"
)

// CheckpointPath returns the checkpoint file location inside dir. Exposed so
// CLIs and tests can check whether a run left a checkpoint behind.
func CheckpointPath(dir string) string { return filepath.Join(dir, ckptFile) }

// checkpointState is the persisted iteration state.
type checkpointState struct {
	iter    int
	eta     float64
	factors []*mat.Dense
	aux     []*mat.Dense
	mult    []*mat.Dense
}

// maybeCheckpoint persists the state entering iteration st.iter+1 when the
// options ask for a checkpoint at this cadence. Call right after the
// iteration's advance, when factors/aux/mult/η already hold the next
// iteration's inputs.
func (st *solverState) maybeCheckpoint() error {
	every := st.opt.CheckpointEvery
	if every <= 0 {
		return nil
	}
	done := st.iter + 1
	if done%every != 0 {
		return nil
	}
	return writeCheckpoint(st.opt.CheckpointDir, &checkpointState{
		iter:    done,
		eta:     st.eta,
		factors: st.factors,
		aux:     st.aux,
		mult:    st.mult,
	})
}

// restore loads a checkpoint into the solver state, replacing the fresh
// initialization.
func (st *solverState) restore(ck *checkpointState) {
	st.factors = ck.factors
	st.aux = ck.aux
	st.mult = ck.mult
	st.eta = ck.eta
	st.iter = ck.iter
}

// writeCheckpoint atomically replaces dir's checkpoint file.
func writeCheckpoint(dir string, ck *checkpointState) error {
	var buf bytes.Buffer
	order := len(ck.factors)
	rank := 0
	if order > 0 {
		rank = ck.factors[0].Cols()
	}
	head := []any{ckptMagic, ckptVersion, uint64(ck.iter), ck.eta, uint32(order), uint32(rank)}
	for _, v := range head {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("core: encoding checkpoint header: %w", err)
		}
	}
	for _, f := range ck.factors {
		if err := binary.Write(&buf, binary.LittleEndian, uint32(f.Rows())); err != nil {
			return fmt.Errorf("core: encoding checkpoint dims: %w", err)
		}
	}
	for _, group := range [][]*mat.Dense{ck.factors, ck.aux, ck.mult} {
		for _, m := range group {
			if err := binary.Write(&buf, binary.LittleEndian, m.Data()); err != nil {
				return fmt.Errorf("core: encoding checkpoint matrices: %w", err)
			}
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: creating checkpoint dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ckptFile+".tmp-")
	if err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	// fsync before rename: without it a crash shortly after the rename can
	// leave solver.ckpt pointing at never-flushed data — a torn checkpoint
	// that Resume would trust over the intact previous one.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("core: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), CheckpointPath(dir)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("core: committing checkpoint: %w", err)
	}
	return nil
}

// Checkpoint is one decoded solver image — the exported read-side view of
// the solver.ckpt format, used by the serving plane (internal/serve) to load
// completed models and warm-start refreshes. Factors/Aux/Duals mirror the
// ADMM state {A(n), B(n), Y(n)}; Model wraps the factors as the Kruskal
// tensor that answers entry reconstructions (Eq. 3).
type Checkpoint struct {
	// Path is where the image was read from.
	Path string
	// Iter is the number of completed outer iterations.
	Iter int
	// Eta is the ADMM penalty entering the next iteration.
	Eta float64
	// Factors are the factor matrices A(n).
	Factors []*mat.Dense
	// Aux are the auxiliary variables B(n).
	Aux []*mat.Dense
	// Duals are the scaled multipliers Y(n).
	Duals []*mat.Dense
}

// Rank returns the model's CP rank R.
func (ck *Checkpoint) Rank() int { return ck.Factors[0].Cols() }

// Dims returns the per-mode sizes I_n.
func (ck *Checkpoint) Dims() []int {
	d := make([]int, len(ck.Factors))
	for n, f := range ck.Factors {
		d[n] = f.Rows()
	}
	return d
}

// Model wraps the checkpointed factors as the completed tensor in Kruskal
// form; Model().At predicts any cell.
func (ck *Checkpoint) Model() *sptensor.Kruskal { return sptensor.NewKruskal(ck.Factors...) }

// maxCkptOrder bounds the tensor order a checkpoint may declare; anything
// larger is a corrupt or hostile header, not a real model.
const maxCkptOrder = 16

// ReadCheckpoint parses the solver checkpoint image at path. Unlike the
// solver's own resume path, which only ever reads files it wrote, this entry
// point is exposed to untrusted paths (the serving plane's admin API loads
// whatever file an operator names), so every rejection is descriptive — the
// file, what was found, what was expected — and the declared matrix sizes
// are validated against the actual byte count before anything is allocated.
func ReadCheckpoint(path string) (*Checkpoint, error) { return readCheckpointGroups(path, 3) }

// ReadCheckpointFactors is ReadCheckpoint for a reader that only predicts:
// the whole image is validated, but only the factor matrices are read (Aux
// and Duals stay nil), a third of the bytes.
func ReadCheckpointFactors(path string) (*Checkpoint, error) { return readCheckpointGroups(path, 1) }

// ckptChunk is the read buffer a matrix is decoded through.
const ckptChunk = 256 << 10

// readCheckpointGroups reads the header and the first groups of the three
// matrix groups (factors, aux, duals). The file is streamed: its size comes
// from Stat, and each matrix is decoded straight into its []float64 through
// one fixed chunk, so loading allocates the matrices and little else.
func readCheckpointGroups(path string, groups int) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	var head [32]byte // magic u32 | version u32 | iter u64 | eta f64 | order u32 | rank u32
	if _, err := io.ReadFull(f, head[:]); err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("core: %s: truncated checkpoint header (%d bytes): %w", path, size, io.ErrUnexpectedEOF)
	} else if err != nil {
		return nil, err // a *PathError: it names the file
	}
	le := binary.LittleEndian
	magic, version := le.Uint32(head[0:]), le.Uint32(head[4:])
	iter, eta := le.Uint64(head[8:]), math.Float64frombits(le.Uint64(head[16:]))
	order, rank := le.Uint32(head[24:]), le.Uint32(head[28:])
	if magic != ckptMagic {
		return nil, fmt.Errorf("core: %s: bad checkpoint magic 0x%08x, want 0x%08x (%q)", path, magic, ckptMagic, "DTCK")
	}
	if version != ckptVersion {
		return nil, fmt.Errorf("core: %s: checkpoint format version %d, want %d", path, version, ckptVersion)
	}
	if order == 0 || order > maxCkptOrder || rank == 0 {
		return nil, fmt.Errorf("core: %s: corrupt checkpoint header: order=%d rank=%d", path, order, rank)
	}
	var dimBytes [4 * maxCkptOrder]byte
	if _, err := io.ReadFull(f, dimBytes[:4*order]); err != nil {
		return nil, fmt.Errorf("core: %s: truncated checkpoint: %d mode sizes declared, file ends inside them: %w", path, order, io.ErrUnexpectedEOF)
	}
	dims := make([]uint32, order)
	for n := range dims {
		dims[n] = le.Uint32(dimBytes[4*n:])
	}
	// Validate the declared geometry against the bytes actually present
	// before allocating: a corrupt rank or mode size must fail with an exact
	// got/want count, not an allocation of whatever the header claims.
	var want uint64
	for _, d := range dims {
		want += uint64(d) * uint64(rank)
	}
	want *= 3 * 8 // factors+aux+duals groups, 8 bytes per float64
	if got := uint64(size) - uint64(len(head)) - 4*uint64(order); got != want {
		return nil, fmt.Errorf("core: %s: checkpoint holds %d bytes of matrix data, want %d for dims=%v rank=%d (truncated or corrupt)",
			path, got, want, dims, rank)
	}
	ck := &Checkpoint{Path: path, Iter: int(iter), Eta: eta}
	chunk := make([]byte, min(uint64(ckptChunk), want))
	for _, group := range []*[]*mat.Dense{&ck.Factors, &ck.Aux, &ck.Duals}[:groups] {
		ms := make([]*mat.Dense, order)
		for n := range ms {
			vals := make([]float64, int(dims[n])*int(rank))
			for rest := vals; len(rest) > 0; {
				b := chunk[:min(len(chunk), 8*len(rest))]
				if _, err := io.ReadFull(f, b); err != nil {
					return nil, fmt.Errorf("core: %s: truncated checkpoint matrices: %w", path, err)
				}
				if _, err := rdd.DecodeF64Vals(rest[:len(b)/8], b); err != nil {
					return nil, fmt.Errorf("core: %s: decoding checkpoint matrices: %w", path, err)
				}
				rest = rest[len(b)/8:]
			}
			ms[n] = mat.NewDenseData(int(dims[n]), int(rank), vals)
		}
		*group = ms
	}
	return ck, nil
}

// readCheckpoint parses dir's checkpoint file into the solver's internal
// resume state.
func readCheckpoint(dir string) (*checkpointState, error) {
	ck, err := ReadCheckpoint(CheckpointPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w in %s", ErrNoCheckpoint, dir)
	}
	if err != nil {
		return nil, err
	}
	return &checkpointState{
		iter:    ck.Iter,
		eta:     ck.Eta,
		factors: ck.Factors,
		aux:     ck.Aux,
		mult:    ck.Duals,
	}, nil
}

// loadCheckpoint reads and validates a checkpoint against the tensor and
// options a resume was asked to continue with.
func loadCheckpoint(dir string, t *sptensor.Tensor, opt Options) (*checkpointState, error) {
	if dir == "" {
		return nil, errors.New("core: Resume requires Options.CheckpointDir")
	}
	ck, err := readCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	if len(ck.factors) != t.Order() {
		return nil, fmt.Errorf("%w: checkpoint holds an order-%d model, tensor is order-%d",
			ErrDimensionMismatch, len(ck.factors), t.Order())
	}
	for n, f := range ck.factors {
		if f.Rows() != t.Dims[n] {
			return nil, fmt.Errorf("%w: checkpoint mode %d has %d rows, tensor mode size %d",
				ErrDimensionMismatch, n, f.Rows(), t.Dims[n])
		}
		if f.Cols() != opt.Rank {
			return nil, fmt.Errorf("%w: checkpoint rank %d, options rank %d",
				ErrDimensionMismatch, f.Cols(), opt.Rank)
		}
	}
	return ck, nil
}
