package cvcp

import (
	"context"
	"testing"

	"cvcp/internal/constraints"
)

// FuzzSelectConstraintFile feeds arbitrary constraint-file bytes through
// the shared parser into a Scenario II selection: MPCK-Means on 12 points,
// 2 folds, Workers 2. Select must return a result or an error, never
// panic, and it must reject every constraint outside the dataset. A
// self-pair is the one line a constraint set cannot hold; the parser's
// Check rejects it before a Set sees it, as every caller does.
func FuzzSelectConstraintFile(f *testing.F) {
	for _, seed := range []string{
		"0 1 ml\n2 3 cl\n6 7 ml\n0 6 cl\n",
		"# neighbourhoods\n0 1 must-link\n1 2 ML\n6 7 ml\n7 8 must\n0 7 cannot\n3 9 cl\n",
		"0 1 ml\n1 2 ml\n0 2 cl\n",
		"0 1 ml\n0 1 cl\n",
		"0 500 ml\n1 2 cl\n",
		"-1 8 cl\n",
		"7 7 ml\n",
		"0 11 cl\n",
		"0 1 maybe\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	ds := blobsDataset(130, 2, 6, 10)
	f.Fuzz(func(t *testing.T, data []byte) {
		lines, err := constraints.ParseLines(string(data))
		if err != nil {
			return
		}
		cons := constraints.NewSet()
		outside := false
		for _, c := range lines {
			if c.A == c.B {
				if c.Check(ds.N()) == nil {
					t.Fatalf("Check accepted the self-pair %v", c)
				}
				return
			}
			outside = outside || c.Check(ds.N()) != nil
			cons.Add(c.A, c.B, c.MustLink)
		}
		res, err := Select(context.Background(), Spec{
			Dataset:     ds,
			Grid:        Grid{{Algorithm: MPCKMeans{}, Params: KRange(2, 4)}},
			Supervision: ConstraintSet(cons),
			Options:     Options{NFolds: 2, Seed: 131, Workers: 2},
		})
		switch {
		case err == nil && outside:
			t.Fatalf("selected with a constraint outside [0, %d)", ds.N())
		case err == nil && len(res.Winner.FinalLabels) != ds.N():
			t.Fatalf("%d final labels for %d objects", len(res.Winner.FinalLabels), ds.N())
		}
	})
}
