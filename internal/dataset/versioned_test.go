package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func batch(rows [][]float64, labels []int) RowBatch {
	return RowBatch{Rows: rows, Labels: labels}
}

func TestVersionedAppendAndSnapshot(t *testing.T) {
	v := NewVersioned("grow", true)
	if v.Version() != 0 || v.N() != 0 {
		t.Fatalf("fresh dataset: version=%d n=%d, want 0/0", v.Version(), v.N())
	}
	ver, err := v.Append(batch([][]float64{{1, 2}, {3, 4}}, []int{0, 1}))
	if err != nil || ver != 1 {
		t.Fatalf("first append: version=%d err=%v", ver, err)
	}
	ver, err = v.Append(batch([][]float64{{5, 6}}, []int{0}))
	if err != nil || ver != 2 {
		t.Fatalf("second append: version=%d err=%v", ver, err)
	}
	if v.N() != 3 || v.Dims() != 2 {
		t.Fatalf("n=%d dims=%d, want 3/2", v.N(), v.Dims())
	}

	s1, err := v.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	if s1.N() != 2 || s1.Y[1] != 1 {
		t.Fatalf("snapshot v1: n=%d y=%v", s1.N(), s1.Y)
	}
	s2, err := v.Snapshot(2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.N() != 3 || s2.X[2][0] != 5 {
		t.Fatalf("snapshot v2: n=%d x2=%v", s2.N(), s2.X[2])
	}
	// Snapshots are copies: mutating one must not leak into the log.
	s1.X[0][0] = 99
	s3, _ := v.Snapshot(2)
	if s3.X[0][0] != 1 {
		t.Fatalf("snapshot aliases the row log: got %v", s3.X[0][0])
	}

	if _, err := v.Snapshot(3); err == nil {
		t.Fatal("snapshot of a future version succeeded")
	}
	if _, err := v.Snapshot(0); err == nil {
		t.Fatal("snapshot of the empty version succeeded")
	}
}

func TestVersionedAppendRejects(t *testing.T) {
	v := NewVersioned("strict", false)
	cases := []RowBatch{
		{}, // empty
		{Rows: [][]float64{{1}}, Labels: []int{0}}, // labeled batch, unlabeled dataset
		{Rows: [][]float64{{math.NaN()}}},          // non-finite
		{Rows: [][]float64{{}}},                    // zero-dim
	}
	for i, b := range cases {
		if _, err := v.Append(b); err == nil {
			t.Errorf("case %d: append succeeded, want error", i)
		}
	}
	if _, err := v.Append(batch([][]float64{{1, 2}}, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Append(batch([][]float64{{1}}, nil)); err == nil {
		t.Error("dimension mismatch append succeeded")
	}
	lv := NewVersioned("lab", true)
	if _, err := lv.Append(batch([][]float64{{1}}, nil)); err == nil {
		t.Error("unlabeled batch into labeled dataset succeeded")
	}
}

// TestStableFoldUnderAppend is the tentpole's fold-stability contract:
// appending rows never moves an existing row to a different fold, and a
// batch of B rows dirties at most min(B, nFolds) folds.
func TestStableFoldUnderAppend(t *testing.T) {
	const nFolds = 5
	before := StableFoldIndices(23, nFolds)
	after := StableFoldIndices(23+7, nFolds)
	for f := 0; f < nFolds; f++ {
		if len(before[f]) > len(after[f]) {
			t.Fatalf("fold %d shrank under append", f)
		}
		for i, idx := range before[f] {
			if after[f][i] != idx {
				t.Fatalf("fold %d: row %d moved to a different position (%d vs %d)", f, idx, after[f][i], idx)
			}
		}
	}
	// Count dirtied folds for a 2-row append to a 23-row dataset.
	dirty := map[int]bool{}
	for i := 23; i < 25; i++ {
		dirty[StableFold(i, nFolds)] = true
	}
	if len(dirty) > 2 {
		t.Fatalf("2-row append dirtied %d folds", len(dirty))
	}
}

func TestHashRowsContentAddressing(t *testing.T) {
	x := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	y := []int{0, 1, 0}
	h1 := HashRows(x, y, []int{0, 2})
	h2 := HashRows(x, y, []int{0, 2})
	if h1 != h2 {
		t.Fatal("hash not deterministic")
	}
	if h1 == HashRows(x, y, []int{0, 1}) {
		t.Fatal("different row sets hash equal")
	}
	if h1 == HashRows(x, nil, []int{0, 2}) {
		t.Fatal("labeled and unlabeled rows hash equal")
	}
	x2 := [][]float64{{1, 2}, {3, 4}, {5, 6.0000000001}}
	if h1 == HashRows(x2, y, []int{0, 2}) {
		t.Fatal("different row content hashes equal")
	}

	// A fold hash is unchanged when an append leaves the fold untouched.
	foldHash := func(x [][]float64, y []int, f int) string {
		return HashRows(x, y, StableFoldIndices(len(x), 3)[f])
	}
	gx := append(append([][]float64{}, x...), []float64{7, 8})
	gy := append(append([]int{}, y...), 1)
	// With nFolds=3 the appended row 3 lands in fold 0, leaving fold 1 untouched.
	if foldHash(x, y, 1) != foldHash(gx, gy, 1) {
		t.Fatal("untouched fold hash changed under append")
	}
	if foldHash(x, y, 0) == foldHash(gx, gy, 0) {
		t.Fatal("dirtied fold hash unchanged under append")
	}
}

func TestRowBatchRoundTrip(t *testing.T) {
	b := RowBatch{
		Rows:   [][]float64{{0.1, math.Pi}, {1e-300, -2.5}},
		Labels: []int{3, -1},
	}
	var buf bytes.Buffer
	if err := EncodeRowBatch(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRowBatch(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 || len(got.Labels) != 2 {
		t.Fatalf("round trip shape: %d rows %d labels", len(got.Rows), len(got.Labels))
	}
	for i := range b.Rows {
		for j := range b.Rows[i] {
			if math.Float64bits(got.Rows[i][j]) != math.Float64bits(b.Rows[i][j]) {
				t.Fatalf("row %d attr %d not bit-identical: % x vs % x", i, j, got.Rows[i][j], b.Rows[i][j])
			}
		}
		if got.Labels[i] != b.Labels[i] {
			t.Fatalf("label %d: %d vs %d", i, got.Labels[i], b.Labels[i])
		}
	}

	// Unlabeled round trip.
	u := RowBatch{Rows: [][]float64{{1}, {2}}}
	buf.Reset()
	if err := EncodeRowBatch(&buf, u); err != nil {
		t.Fatal(err)
	}
	got, err = DecodeRowBatch(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Labels != nil {
		t.Fatal("unlabeled batch decoded with labels")
	}
}

func TestDecodeRowBatchRejects(t *testing.T) {
	cases := []string{
		"",
		"not-a-batch\n1,2\n",
		"cvcp-rowbatch/1\n1,2\n",           // missing kind
		"cvcp-rowbatch/1 maybe\n1,2\n",     // bad kind
		"cvcp-rowbatch/1 unlabeled\nx,y\n", // non-numeric attrs
		"cvcp-rowbatch/1 unlabeled\n",      // no rows
		"cvcp-rowbatch/1 labeled\n1,zz\n",  // bad label
	}
	for i, in := range cases {
		if _, err := DecodeRowBatch(strings.NewReader(in), 0); err == nil {
			t.Errorf("case %d (%q): decode succeeded, want error", i, in)
		}
	}
	// Size limit enforcement.
	big := "cvcp-rowbatch/1 unlabeled\n" + strings.Repeat("1,2\n", 100)
	if _, err := DecodeRowBatch(strings.NewReader(big), 16); err == nil {
		t.Error("oversized batch decoded under a 16-byte limit")
	}
}
