package dataset

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"cvcp/internal/stats"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("empty", nil, nil); err == nil {
		t.Error("expected error for empty dataset")
	}
	if _, err := New("ragged", [][]float64{{1, 2}, {3}}, nil); err == nil {
		t.Error("expected error for ragged rows")
	}
	if _, err := New("nan", [][]float64{{math.NaN()}}, nil); err == nil {
		t.Error("expected error for NaN")
	}
	if _, err := New("inf", [][]float64{{math.Inf(1)}}, nil); err == nil {
		t.Error("expected error for Inf")
	}
	if _, err := New("labels", [][]float64{{1}}, []int{0, 1}); err == nil {
		t.Error("expected error for label count mismatch")
	}
	ds, err := New("ok", [][]float64{{1, 2}, {3, 4}}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 2 || ds.Dims() != 2 || !ds.Labeled() {
		t.Errorf("N=%d Dims=%d Labeled=%v", ds.N(), ds.Dims(), ds.Labeled())
	}
}

func TestClassQueries(t *testing.T) {
	ds := MustNew("t", [][]float64{{0}, {1}, {2}, {3}}, []int{2, 0, 2, -1})
	cls := ds.Classes()
	if len(cls) != 2 || cls[0] != 0 || cls[1] != 2 {
		t.Errorf("Classes = %v", cls)
	}
	if ds.NumClasses() != 2 {
		t.Errorf("NumClasses = %d", ds.NumClasses())
	}
}

func TestCloneIndependence(t *testing.T) {
	ds := MustNew("t", [][]float64{{1}}, []int{5})
	c := ds.Clone()
	c.X[0][0] = 99
	c.Y[0] = 7
	if ds.X[0][0] != 1 || ds.Y[0] != 5 {
		t.Error("Clone shares storage")
	}
}

func TestSampleLabels(t *testing.T) {
	x := make([][]float64, 40)
	y := make([]int, 40)
	for i := range x {
		x[i] = []float64{float64(i)}
		y[i] = i % 4
	}
	ds := MustNew("t", x, y)
	r := stats.NewRand(1)
	idx := ds.SampleLabels(r, 0.25)
	if len(idx) != 10 {
		t.Errorf("sampled %d objects, want 10", len(idx))
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Error("indices not sorted/unique")
		}
	}
	// Tiny fractions still return at least two objects.
	if got := ds.SampleLabels(r, 0.001); len(got) != 2 {
		t.Errorf("minimum sample = %d, want 2", len(got))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := MustNew("rt", [][]float64{{1.5, -2}, {0.25, 3}}, []int{1, 0})
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("rt", &buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 2 || back.Dims() != 2 {
		t.Fatalf("shape %dx%d", back.N(), back.Dims())
	}
	for i := range ds.X {
		for j := range ds.X[i] {
			if ds.X[i][j] != back.X[i][j] {
				t.Errorf("X[%d][%d] = %v, want %v", i, j, back.X[i][j], ds.X[i][j])
			}
		}
		if ds.Y[i] != back.Y[i] {
			t.Errorf("Y[%d] = %d, want %d", i, back.Y[i], ds.Y[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("bad", strings.NewReader("a,b\n"), false); err == nil {
		t.Error("expected parse error for non-numeric attribute")
	}
	if _, err := ReadCSV("bad", strings.NewReader("1.0,x\n"), true); err == nil {
		t.Error("expected parse error for non-integer label")
	}
	if _, err := ReadCSV("empty", strings.NewReader(""), false); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := ReadCSV("labelonly", strings.NewReader("1\n"), true); err == nil {
		t.Error("expected error when only a label column exists")
	}
}

func TestReadCSVUnlabeled(t *testing.T) {
	ds, err := ReadCSV("u", strings.NewReader("1,2\n3,4\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Labeled() {
		t.Error("unlabeled dataset reports labels")
	}
	if ds.N() != 2 || ds.Dims() != 2 {
		t.Errorf("shape %dx%d", ds.N(), ds.Dims())
	}
}

func TestReadCSVLimited(t *testing.T) {
	csvData := "1.0,2.0,0\n3.0,4.0,1\n"

	// Limit above the input size: parses normally.
	ds, err := ReadCSVLimited("ok", strings.NewReader(csvData), true, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 2 {
		t.Fatalf("N = %d, want 2", ds.N())
	}

	// Limit exactly the input size: still fine.
	if _, err := ReadCSVLimited("exact", strings.NewReader(csvData), true, int64(len(csvData))); err != nil {
		t.Fatalf("input at exactly the limit should parse, got %v", err)
	}

	// Limit below the input size: typed *SizeError, detectable via errors.As.
	_, err = ReadCSVLimited("big", strings.NewReader(csvData), true, int64(len(csvData))-1)
	var se *SizeError
	if !errors.As(err, &se) {
		t.Fatalf("want *SizeError, got %v", err)
	}
	if se.Limit != int64(len(csvData))-1 {
		t.Fatalf("SizeError.Limit = %d, want %d", se.Limit, len(csvData)-1)
	}

	// Zero limit means unlimited.
	if _, err := ReadCSVLimited("nolimit", strings.NewReader(csvData), true, 0); err != nil {
		t.Fatalf("maxBytes <= 0 should be unlimited, got %v", err)
	}

	// Malformed CSV under the limit is a parse error, not a SizeError.
	_, err = ReadCSVLimited("bad", strings.NewReader("not,a,number\n"), true, 1024)
	if err == nil || errors.As(err, &se) {
		t.Fatalf("want a parse error, got %v", err)
	}
}
