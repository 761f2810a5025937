package cvcp

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cvcp/internal/constraints"
)

// Supervision that names objects the dataset lacks must fail the selection
// with an error naming the object, never panic: at Workers >= 2 the panic
// would happen on an engine goroutine and take the whole process down.
func TestSelectRejectsInvalidSupervision(t *testing.T) {
	ds := blobsDataset(120, 2, 10, 10)
	n := ds.N()
	withPair := func(a, b int) *constraints.Set {
		s := constraints.FromLabels(allIdx(8), ds.Y)
		s.Add(a, b, false)
		return s
	}
	silhouette, err := ScorerByName("silhouette", 0)
	if err != nil {
		t.Fatal(err)
	}
	labelScorers := []Scorer{CrossValidation{}, Bootstrap{Rounds: 3}, silhouette}
	consScorers := []Scorer{CrossValidation{}, silhouette}
	cases := []struct {
		name    string
		sup     Supervision
		scorers []Scorer
		want    string
	}{
		{"labels repeat an index", Labels([]int{0, 1, 2, 3, 11, 2, 12}), labelScorers, "labeled object 2 listed twice"},
		{"labels index n", Labels([]int{0, 1, 2, 3, 11, n}), labelScorers, fmt.Sprintf("labeled object %d outside [0, %d)", n, n)},
		{"labels negative index", Labels([]int{0, 1, -1, 3, 11, 12}), labelScorers, fmt.Sprintf("labeled object -1 outside [0, %d)", n)},
		{"constraint endpoint n", ConstraintSet(withPair(0, n)), consScorers, fmt.Sprintf("object %d outside [0, %d)", n, n)},
		{"constraint endpoint -1", ConstraintSet(withPair(-1, 8)), consScorers, fmt.Sprintf("object -1 outside [0, %d)", n)},
		{"constraint endpoint far out", ConstraintSet(withPair(3, 1<<40)), consScorers, fmt.Sprintf("object %d outside [0, %d)", 1<<40, n)},
	}
	algs := []Candidate{
		{Algorithm: MPCKMeans{}, Params: []int{2, 3}},
		{Algorithm: FOSCOpticsDend{}, Params: []int{3, 6}},
	}
	for _, c := range cases {
		for _, cand := range algs {
			for _, sc := range c.scorers {
				for _, workers := range []int{1, 2} {
					name := fmt.Sprintf("%s/%s/%s/workers=%d", c.name, cand.Algorithm.Name(), sc.Name(), workers)
					_, err := Select(context.Background(), Spec{
						Dataset:     ds,
						Grid:        Grid{cand},
						Supervision: c.sup,
						Scorer:      sc,
						Options:     Options{NFolds: 3, Seed: 121, Workers: workers},
					})
					if err == nil || !strings.Contains(err.Error(), c.want) {
						t.Errorf("%s: err = %v, want one naming %q", name, err, c.want)
					}
				}
			}
		}
	}
}
