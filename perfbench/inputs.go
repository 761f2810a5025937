package main

import (
	"bytes"

	"cvcp/internal/constraints"
	"cvcp/internal/cvcp"
	"cvcp/internal/datagen"
	"cvcp/internal/dataset"
	"cvcp/internal/stats"
)

// Every input derives from (workload seed, op index) alone, so the same
// seed gives the same inputs and op i sees the same data on every
// commit.
func opSeed(seed int64, op int) int64 { return stats.SplitSeed(seed, op+1_000_000) }

// The warm-up ops of a library workload's set-up draw their inputs from
// setupSeed whatever the run's seed: op j of round r uses op index
// -1-r·warmupOps-j, so no two warm-up ops and no timed op share content.
// A set-up time then measures the same work on every run: with one
// warm-up op a round drawn from the run's seed, select-mpck's set-up
// time spread by 28% over ten seeds.
const (
	setupSeed = 0
	warmupOps = 4
)

// gaussians draws n labeled points in d dimensions from k Gaussian
// classes of equal size. Class centers are N(0, 1) on every axis and
// points scatter N(0, 1) around them, so the distance between two
// centers is about the distance between two points of one class: the
// classes overlap, as real data does, and clustering them takes work.
func gaussians(seed int64, n, d, k int) *dataset.Dataset {
	r := stats.NewRand(seed)
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, d)
		for j := range centers[c] {
			centers[c][j] = r.NormFloat64()
		}
	}
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		c := r.Intn(k)
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = centers[c][j] + r.NormFloat64()
		}
		y[i] = c
	}
	return dataset.MustNew("gaussians", x, y)
}

// Library workload sizes. select-fosc runs the paper's density method on
// n=768: at n=1024 one op takes about 0.35 s on the 2-core reference
// machine, too long for 100 timed ops per run within the benchmark's
// time budget.
const (
	foscN, foscD     = 768, 64
	mpckN, mpckD     = 512, 16
	libClasses       = 5
	libFolds         = 10
	labelFraction    = 0.1 // Scenario I labels and the Scenario II pool
	constraintSample = 0.5 // share of the pool's pairs kept (Scenario II)
	libWorkers       = 2
)

// foscSpec is one select-fosc op: FOSC-OPTICSDend over MinPts 3..24 in
// steps of 3, Scenario I labels on 10% of the objects.
func foscSpec(seed int64, op int) cvcp.Spec {
	s := opSeed(seed, op)
	ds := gaussians(s, foscN, foscD, libClasses)
	idx := ds.SampleLabels(stats.NewRand(s+1), labelFraction)
	return cvcp.Spec{
		Dataset:     ds,
		Grid:        cvcp.Grid{{Algorithm: cvcp.FOSCOpticsDend{}, Params: cvcp.DefaultMinPtsRange}},
		Supervision: cvcp.Labels(idx),
		Options:     cvcp.Options{NFolds: libFolds, Seed: s, Workers: libWorkers},
	}
}

// mpckSpec is one select-mpck op: MPCKMeans over k = 2..8, Scenario II
// constraints — all pairs among 10% of each class's objects, half of
// them kept.
func mpckSpec(seed int64, op int) cvcp.Spec {
	s := opSeed(seed, op)
	ds := gaussians(s, mpckN, mpckD, libClasses)
	r := stats.NewRand(s + 1)
	cons := constraints.Sample(r, constraints.Pool(r, ds.Y, labelFraction), constraintSample)
	return cvcp.Spec{
		Dataset:     ds,
		Grid:        cvcp.Grid{{Algorithm: cvcp.MPCKMeans{}, Params: cvcp.KRange(2, 8)}},
		Supervision: cvcp.ConstraintSet(cons),
		Options:     cvcp.Options{NFolds: libFolds, Seed: s, Workers: libWorkers},
	}
}

// Service workload sizes.
const (
	reselectRows   = 1536 // rows of each dataset registered at set-up
	reselectDims   = 16
	reselectAppend = 2 // rows appended per op: dirties 2 of 10 folds
	reselectFrac   = 0.2
	// reselectSets datasets take turns: op i re-selects dataset i mod 24.
	// Each dataset's job seed draws its supervision rows, and their count
	// sets the cost of its re-selections: with one dataset, runs differed
	// by 40% in op time with the host's speed unchanged. With eight, the
	// slowest dataset's ops were the top tenth of a run, so op_s_p90 was
	// one draw, the slowest of eight; 24 make it the tail of 24 draws.
	reselectSets = 24
	distN, distD = 512, 16
)

// growthRows is the batch-th row batch of svc-reselect dataset set of
// set-up round round (batch 0 is the registered base).
func growthRows(seed int64, round, set, batch, rows int) dataset.RowBatch {
	return datagen.GrowthBatch(stats.SplitSeed(seed, round*reselectSets+set), batch, rows, reselectDims, libClasses)
}

// csvOf renders rows as the CSV the server parses (label last).
func csvOf(b dataset.RowBatch) (string, error) {
	ds, err := dataset.New("rows", b.Rows, b.Labels)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// distCSV is the inline dataset of svc-dist op op.
func distCSV(seed int64, op int) (string, error) {
	ds := gaussians(opSeed(seed, op), distN, distD, libClasses)
	return csvOf(dataset.RowBatch{Rows: ds.X, Labels: ds.Y})
}
