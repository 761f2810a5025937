package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// Versioned is an append-only dataset: an immutable row log with monotone
// version numbers. Version 0 is the empty dataset; every Append of a
// non-empty row batch produces the next version. Rows are never mutated or
// removed, so row index i identifies the same object in every version that
// contains it — the property the stable fold assignment (StableFold) and the
// content-addressed cell cache build on.
type Versioned struct {
	name     string
	hasLabel bool
	dims     int // 0 until the first append fixes the dimensionality
	rows     [][]float64
	labels   []int
	// counts[v-1] is the total number of rows at version v; version 0 has
	// no entry (zero rows).
	counts []int
}

// NewVersioned returns an empty versioned dataset at version 0. The
// dimensionality is fixed by the first appended batch.
func NewVersioned(name string, hasLabel bool) *Versioned {
	return &Versioned{name: name, hasLabel: hasLabel}
}

// Name returns the dataset name.
func (v *Versioned) Name() string { return v.name }

// HasLabel reports whether rows carry an integer class label.
func (v *Versioned) HasLabel() bool { return v.hasLabel }

// Version returns the current (latest) version number.
func (v *Versioned) Version() int { return len(v.counts) }

// N returns the number of rows at the current version.
func (v *Versioned) N() int { return len(v.rows) }

// Dims returns the dimensionality, or 0 before the first append.
func (v *Versioned) Dims() int { return v.dims }

// NAt returns the number of rows at the given version.
func (v *Versioned) NAt(version int) (int, error) {
	if version < 0 || version > len(v.counts) {
		return 0, fmt.Errorf("dataset %q: no version %d (latest is %d)", v.name, version, len(v.counts))
	}
	if version == 0 {
		return 0, nil
	}
	return v.counts[version-1], nil
}

// CanAppend reports whether Append would accept the batch, without
// mutating the log — callers that must persist a batch before committing
// it (the server's durable append path) validate up front so a rejected
// batch never leaves a record behind.
func (v *Versioned) CanAppend(b RowBatch) error {
	if len(b.Rows) == 0 {
		return fmt.Errorf("dataset %q: empty row batch", v.name)
	}
	if v.hasLabel != (b.Labels != nil) {
		if v.hasLabel {
			return fmt.Errorf("dataset %q: labeled dataset, unlabeled batch", v.name)
		}
		return fmt.Errorf("dataset %q: unlabeled dataset, labeled batch", v.name)
	}
	if b.Labels != nil && len(b.Labels) != len(b.Rows) {
		return fmt.Errorf("dataset %q: %d labels for %d rows", v.name, len(b.Labels), len(b.Rows))
	}
	dims := v.dims
	if dims == 0 {
		dims = len(b.Rows[0])
		if dims == 0 {
			return fmt.Errorf("dataset %q: zero-dimensional rows", v.name)
		}
	}
	for i, row := range b.Rows {
		if len(row) != dims {
			return fmt.Errorf("dataset %q: batch row %d has %d attributes, want %d", v.name, i, len(row), dims)
		}
		for j, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("dataset %q: batch row %d attribute %d is not finite", v.name, i, j)
			}
		}
	}
	return nil
}

// Append validates and appends one row batch, returning the new version
// number. The batch's rows are deep-copied, so callers may reuse their
// buffers. An empty batch is an error: versions are defined by the rows
// they add.
func (v *Versioned) Append(b RowBatch) (int, error) {
	if err := v.CanAppend(b); err != nil {
		return 0, err
	}
	if v.dims == 0 {
		v.dims = len(b.Rows[0])
	}
	for _, row := range b.Rows {
		v.rows = append(v.rows, append([]float64(nil), row...))
	}
	if v.hasLabel {
		v.labels = append(v.labels, b.Labels...)
	}
	v.counts = append(v.counts, len(v.rows))
	return len(v.counts), nil
}

// Snapshot materializes the dataset as of the given version as an ordinary
// Dataset (a deep copy — snapshots never alias the log, so in-place
// preprocessing of one cannot corrupt another). A snapshot is bit-identical
// to a Dataset built from scratch out of the same row batches.
func (v *Versioned) Snapshot(version int) (*Dataset, error) {
	n, err := v.NAt(version)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("dataset %q: version %d has no rows", v.name, version)
	}
	x := make([][]float64, n)
	for i := range x {
		x[i] = append([]float64(nil), v.rows[i]...)
	}
	var y []int
	if v.hasLabel {
		y = append([]int(nil), v.labels[:n]...)
	}
	return New(fmt.Sprintf("%s@v%d", v.name, version), x, y)
}

// StableFold maps row index i to its cross-validation fold under nFolds
// folds. The assignment depends only on the row index, so it is stable
// under append: growing the dataset never moves an existing row to a
// different fold, and a batch of B appended rows dirties at most
// min(B, nFolds) folds.
func StableFold(i, nFolds int) int { return i % nFolds }

// StableFoldIndices partitions row indices [0, n) into nFolds folds by
// StableFold, each fold's indices in ascending order.
func StableFoldIndices(n, nFolds int) [][]int {
	out := make([][]int, nFolds)
	for f := range out {
		out[f] = []int{}
	}
	for i := 0; i < n; i++ {
		f := StableFold(i, nFolds)
		out[f] = append(out[f], i)
	}
	return out
}

// HashRows returns the content hash (hex SHA-256) of the identified rows in
// idx order: per row, the IEEE-754 bit patterns of its attributes followed
// by its label (when y is non-nil). Two datasets hash equal for a row set
// exactly when the rows are bit-identical, which makes the hash usable as a
// content address for fold-level cache keys.
func HashRows(x [][]float64, y []int, idx []int) string {
	h := sha256.New()
	var buf [8]byte
	for _, i := range idx {
		for _, v := range x[i] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		if y != nil {
			binary.LittleEndian.PutUint64(buf[:], uint64(int64(y[i])))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
