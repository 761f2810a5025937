package linalg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The first caller of Nearest gets no table; every later one gets the
// same table, whose row i, filled from RowInto's row, is the sorted row's
// first min(n, NearestWidth) entries, bit for bit. A published row is
// read back without the row it was filled from, and a row another caller
// is filling reads as absent.
func TestNearestRowsAreSortedPrefixes(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for _, n := range []int{1, 2, 5, NearestWidth - 1, NearestWidth, NearestWidth + 1, 100} {
		x := randomRows(r, n, 3)
		for i := 1; i < n; i += 3 {
			x[i] = x[i-1] // exact ties, zeros off the diagonal
		}
		for _, m := range []*DistMatrix{NewDistMatrix(x), NewDistMatrixCondensed(x), NewDistMatrixCondensed32(x)} {
			if m.Nearest() != nil {
				t.Fatalf("n=%d: the first caller got a table", n)
			}
			tab := m.Nearest()
			if tab == nil || m.Nearest() != tab {
				t.Fatalf("n=%d: later callers got %p and %p, want one table", n, tab, m.Nearest())
			}
			w := min(n, NearestWidth)
			row := make([]float64, n)
			for i := 0; i < n; i++ {
				m.RowInto(row, i)
				got := tab.Row(i, row)
				want := slices.Clone(row)
				slices.Sort(want)
				for k := 0; k < w; k++ {
					if len(got) != w || math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("n=%d: row %d = %v, want %v", n, i, got, want[:w])
					}
				}
				if again := tab.Row(i, nil); &again[0] != &got[0] {
					t.Fatalf("n=%d: row %d was not read back from the table", n, i)
				}
			}
			if n > 1 {
				tab.state[0].Store(rowFilling)
				if got := tab.Row(0, nil); got != nil {
					t.Fatalf("n=%d: a row being filled read as %v", n, got)
				}
			}
		}
	}
	var none *Nearest
	if got := none.Row(0, []float64{0}); got != nil {
		t.Fatalf("a nil table returned row %v", got)
	}
}
