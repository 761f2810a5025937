// Command cvcp runs CVCP model selection on a CSV dataset through the
// library's unified Select(ctx, Spec) API.
//
// Scenario I — the CSV carries labels in its last column and a fraction of
// them is used as supervision:
//
//	cvcp -data mydata.csv -labeled -algo fosc -labelfrac 0.10
//
// Scenario II — supervision is a constraint file (lines "a b ml" or
// "a b cl", object indices are zero-based CSV row numbers):
//
//	cvcp -data mydata.csv -algo mpck -constraints cons.txt -kmin 2 -kmax 10
//
// Cross-method selection — a comma-separated -algo list puts every method
// into one shared selection grid and the best method+parameter wins:
//
//	cvcp -data mydata.csv -labeled -algo fosc,mpck,copk
//
// The -scorer flag swaps the scoring strategy: cv (default), bootstrap, or
// a relative validity index (silhouette, davies-bouldin, calinski-harabasz,
// dunn).
//
// Incremental re-selection — -dataset-dir replays a directory of encoded
// row-batch files (cmd/datagen -append output, lexical file order) as a
// growing versioned dataset, scores it with append-stable folds, and keeps
// a persistent cell cache next to the batches; re-running after new
// batches arrive recomputes only the folds the appended rows dirtied, with
// a result bit-identical to a from-scratch run:
//
//	datagen -append -out ./growth -batches 3
//	cvcp -dataset-dir ./growth -algo fosc -labelfrac 0.5 -folds 2
//	datagen -append -out ./growth -batches 1 -batch0 3
//	cvcp -dataset-dir ./growth -algo fosc -labelfrac 0.5 -folds 2  # reuses clean folds
//
// The tool prints the per-parameter scores of every candidate, the selected
// method and parameter, and the final cluster assignment (one
// "object cluster" line per object; -1 is noise).
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"

	root "cvcp"
	"cvcp/internal/constraints"
	corecvcp "cvcp/internal/cvcp"
	"cvcp/internal/dataset"
	"cvcp/internal/runner"
	"cvcp/internal/store"
)

func main() {
	var (
		data     = flag.String("data", "", "CSV dataset path (required unless -dataset-dir)")
		dsetDir  = flag.String("dataset-dir", "", "directory of row-batch files (*.rowbatch, lexical order): incremental re-selection with a persistent cell cache in <dir>/cellcache")
		labeled  = flag.Bool("labeled", false, "last CSV column is an integer class label")
		algo     = flag.String("algo", "fosc", "comma-separated candidate algorithms: fosc (MinPts selection), mpck and/or copk (k selection)")
		scorer   = flag.String("scorer", "cv", "scoring strategy: cv, bootstrap, or a validity index (silhouette, davies-bouldin, calinski-harabasz, dunn)")
		rounds   = flag.Int("rounds", 0, "bootstrap rounds when -scorer bootstrap (0 = default 10)")
		consPath = flag.String("constraints", "", "constraint file for Scenario II")
		frac     = flag.Float64("labelfrac", 0.10, "fraction of labels used as supervision in Scenario I")
		kmin     = flag.Int("kmin", 2, "smallest k candidate (mpck/copk)")
		kmax     = flag.Int("kmax", 10, "largest k candidate (mpck/copk)")
		folds    = flag.Int("folds", 10, "cross-validation folds")
		seed     = flag.Int64("seed", 1, "random seed")
		workers  = flag.Int("workers", -1, "concurrent grid tasks (-1 = one per CPU, 1 = serial; results are identical either way)")
		matrix32 = flag.Bool("matrix32", false, "store the FOSC OPTICS distance matrix in float32 (half the memory; requires fosc in -algo)")
		eps      = flag.Float64("eps", 0, "finite OPTICS generating distance for fosc: compute neighborhoods within this radius on demand instead of the dense matrix (0 = dense)")
		progress = flag.Bool("progress", false, "report grid progress on stderr")
		quiet    = flag.Bool("quiet", false, "suppress the per-object assignment output")
	)
	flag.Parse()
	if (*data == "") == (*dsetDir == "") {
		fmt.Fprintln(os.Stderr, "cvcp: exactly one of -data and -dataset-dir is required")
		flag.Usage()
		os.Exit(2)
	}
	// Mirror the server's strict option handling: an option that the
	// chosen scorer would silently ignore is an error, not a no-op.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if explicit["folds"] && *scorer != "cv" {
		fatal(fmt.Errorf("-folds applies only to the cross-validation scorer (-scorer cv)"))
	}
	if explicit["rounds"] && *scorer != "bootstrap" {
		fatal(fmt.Errorf("-rounds requires -scorer bootstrap"))
	}
	if *folds < 0 {
		fatal(fmt.Errorf("-folds must be >= 0 (0 means the default)"))
	}
	if *rounds < 0 {
		fatal(fmt.Errorf("-rounds must be >= 0 (0 means the default)"))
	}
	if explicit["labelfrac"] && *consPath != "" {
		fatal(fmt.Errorf("-labelfrac and -constraints are mutually exclusive"))
	}
	if !(*frac > 0 && *frac <= 1) {
		fatal(fmt.Errorf("-labelfrac %v: want a value in (0, 1]", *frac))
	}
	if *dsetDir != "" {
		// The incremental path is exactly the server's dataset-job shape:
		// stable-fold cross-validation over labeled row batches. Options
		// that contradict it are errors, like everywhere else.
		if *scorer != "cv" {
			fatal(fmt.Errorf("-dataset-dir requires the cross-validation scorer (-scorer cv): cached cell scores are fold scores"))
		}
		if *consPath != "" {
			fatal(fmt.Errorf("-dataset-dir selections take Scenario I supervision from the batch labels, not -constraints"))
		}
		if explicit["labeled"] {
			fatal(fmt.Errorf("-labeled is implied by -dataset-dir (row batches declare their label layout)"))
		}
	}

	// Ctrl-C abandons the selection mid-grid instead of waiting it out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var (
		ds        *root.Dataset
		cellCache *runner.ScoreCache
		err       error
	)
	if *dsetDir != "" {
		var closeCache func()
		ds, cellCache, closeCache, err = openDatasetDir(*dsetDir)
		if err != nil {
			fatal(err)
		}
		defer closeCache()
	} else {
		ds, err = root.LoadCSV(*data, *data, *labeled)
		if err != nil {
			fatal(err)
		}
	}

	var grid root.Grid
	seen := map[string]bool{}
	for _, name := range strings.Split(*algo, ",") {
		name = strings.TrimSpace(name)
		if seen[name] {
			fatal(fmt.Errorf("duplicate algorithm %q in -algo", name))
		}
		seen[name] = true
		switch name {
		case "fosc":
			grid = append(grid, root.Candidate{Algorithm: root.FOSCOpticsDend{Matrix32: *matrix32, Eps: *eps}, Params: root.DefaultMinPtsRange})
		case "mpck":
			grid = append(grid, root.Candidate{Algorithm: root.MPCKMeans{}, Params: root.KRange(*kmin, *kmax)})
		case "copk":
			grid = append(grid, root.Candidate{Algorithm: root.COPKMeans{}, Params: root.KRange(*kmin, *kmax)})
		default:
			fatal(fmt.Errorf("unknown -algo %q (want fosc, mpck or copk)", name))
		}
	}
	if *matrix32 && !seen["fosc"] {
		fatal(fmt.Errorf("-matrix32 applies only to the fosc method (add fosc to -algo)"))
	}
	if (explicit["kmin"] || explicit["kmax"]) && !seen["mpck"] && !seen["copk"] {
		fatal(fmt.Errorf("-kmin and -kmax apply only to the mpck and copk methods (add one to -algo)"))
	}
	switch {
	case *eps < 0 || math.IsNaN(*eps):
		fatal(fmt.Errorf("-eps %v: want a positive radius", *eps))
	case math.IsInf(*eps, 1):
		fatal(fmt.Errorf("-eps must be finite (omit it for the dense ε=∞ path)"))
	case *eps > 0 && !seen["fosc"]:
		fatal(fmt.Errorf("-eps applies only to the fosc method (add fosc to -algo)"))
	case *eps > 0 && *matrix32:
		fatal(fmt.Errorf("-eps and -matrix32 are mutually exclusive (the ε-range driver computes distances on demand, not from a matrix)"))
	}

	var sup root.Supervision
	switch {
	case *dsetDir != "":
		// Append-stable folds and per-fold supervision: the cached score
		// of a fold no new row landed in stays valid across appends.
		sup = corecvcp.StableLabels(*frac)
	case *consPath != "":
		cons, err := loadConstraints(*consPath, ds.N())
		if err != nil {
			fatal(err)
		}
		sup = root.ConstraintSet(cons)
	case *labeled:
		r := root.NewRand(*seed)
		sup = root.Labels(ds.SampleLabels(r, *frac))
	default:
		fatal(fmt.Errorf("need either -labeled (Scenario I) or -constraints FILE (Scenario II)"))
	}

	strategy, err := root.ScorerByName(*scorer, *rounds)
	if err != nil {
		fatal(err)
	}

	opt := root.Options{NFolds: *folds, Seed: *seed, Workers: *workers, CellCache: cellCache}
	if *progress {
		opt.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rcvcp: %d/%d grid tasks", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	res, err := root.Select(ctx, root.Spec{
		Dataset:     ds,
		Grid:        grid,
		Supervision: sup,
		Scorer:      strategy,
		Options:     opt,
	})
	if err != nil {
		fatal(err)
	}

	for _, sel := range res.PerCandidate {
		fmt.Printf("algorithm: %s\n", sel.Algorithm)
		fmt.Println("parameter scores:")
		for _, ps := range sel.Scores {
			marker := " "
			if ps.Param == sel.Best.Param {
				marker = "*"
			}
			fmt.Printf(" %s param=%-4d score=%.4f\n", marker, ps.Param, ps.Score)
		}
	}
	if len(res.PerCandidate) > 1 {
		fmt.Printf("selected algorithm: %s\n", res.Winner.Algorithm)
	}
	fmt.Printf("selected parameter: %d\n", res.Winner.Best.Param)
	if *dsetDir != "" {
		fmt.Printf("grid cells computed: %d, reused from cache: %d\n", res.Cells.Computed, res.Cells.Reused)
	}
	if !*quiet {
		fmt.Println("final assignment (object cluster):")
		for i, l := range res.Winner.FinalLabels {
			fmt.Printf("%d %d\n", i, l)
		}
	}
}

// datasetDirOwner is the owning record of every cell score the
// -dataset-dir cache persists. The file store's startup sweep deletes
// cell records whose owner record is gone, so the owner is written before
// any score is cached.
const datasetDirOwner = "ds-local"

// openDatasetDir replays the *.rowbatch files of dir (lexical order —
// cmd/datagen -append names them so that this is batch order) into a
// versioned dataset, snapshots its latest version, and opens the
// persistent cell cache in dir/cellcache. Identical batch sequences build
// bit-identical snapshots, so cached cell scores carry across runs: a
// re-run after new batches recomputes only the dirtied folds.
func openDatasetDir(dir string) (*root.Dataset, *runner.ScoreCache, func(), error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.rowbatch"))
	if err != nil {
		return nil, nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, nil, fmt.Errorf("no *.rowbatch files in %s (generate them with datagen -append)", dir)
	}
	sort.Strings(paths)
	first, err := readBatch(paths[0])
	if err != nil {
		return nil, nil, nil, err
	}
	if first.Labels == nil {
		return nil, nil, nil, fmt.Errorf("%s: unlabeled batch (the incremental path needs Scenario I labels)", paths[0])
	}
	v := dataset.NewVersioned(filepath.Base(filepath.Clean(dir)), true)
	if _, err := v.Append(first); err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", paths[0], err)
	}
	for _, p := range paths[1:] {
		b, err := readBatch(p)
		if err != nil {
			return nil, nil, nil, err
		}
		if _, err := v.Append(b); err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	ds, err := v.Snapshot(v.Version())
	if err != nil {
		return nil, nil, nil, err
	}
	st, err := store.Open(filepath.Join(dir, "cellcache"))
	if err != nil {
		return nil, nil, nil, err
	}
	if _, ok, err := st.Get(datasetDirOwner); err != nil {
		st.Close()
		return nil, nil, nil, err
	} else if !ok {
		if err := st.Put(store.Record{ID: datasetDirOwner, Status: "dataset"}); err != nil {
			st.Close()
			return nil, nil, nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "cvcp: %s at version %d (%d batches, %d rows)\n", v.Name(), v.Version(), len(paths), v.N())
	cache := runner.NewScoreCache(store.NewCellCache(st, datasetDirOwner), 0)
	return ds, cache, func() { st.Close() }, nil
}

// readBatch decodes one encoded row-batch file.
func readBatch(path string) (dataset.RowBatch, error) {
	f, err := os.Open(path)
	if err != nil {
		return dataset.RowBatch{}, err
	}
	defer f.Close()
	b, err := dataset.DecodeRowBatch(f, 0)
	if err != nil {
		return dataset.RowBatch{}, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// loadConstraints reads a constraint file for an n-object dataset (the
// format of constraints.ParseLines: "<a> <b> ml|cl" lines with zero-based
// object indices), rejecting indices outside the dataset and self-pairs
// with the messages the selection service gives.
func loadConstraints(path string, n int) (*root.Constraints, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines, err := constraints.ParseLines(string(text))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	cs := make([]constraints.Constraint, len(lines))
	for i, c := range lines {
		if err := c.Check(n); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		cs[i] = constraints.Constraint{Pair: constraints.MakePair(c.A, c.B), MustLink: c.MustLink}
	}
	return constraints.NewSet(cs...), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cvcp:", err)
	os.Exit(1)
}
