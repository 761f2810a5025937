// Command bench is the repository's benchmark harness: it runs the
// performance-critical micro-benchmarks (distance kernels, blocked
// DistMatrix builders, OPTICS on a shared matrix) plus one end-to-end CVCP
// selection, and appends the measurements as a schema-validated record to
// the BENCH_v5.json ledger (see internal/benchjson). CI's bench-smoke job
// runs it with -short to keep the harness and schema honest on every PR;
// full runs are committed per PR so performance history travels with the
// code.
//
// Usage:
//
//	bench                     # full run, append to BENCH_v5.json
//	bench -short -o /tmp/b.json   # reduced sizes (CI smoke)
//	bench -validate BENCH_v5.json # schema-check an existing ledger
//	bench -trend BENCH_v5.json    # fail if the last record regressed >20%
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"cvcp/internal/benchjson"
	"cvcp/internal/cluster/optics"
	"cvcp/internal/constraints"
	"cvcp/internal/cvcp"
	"cvcp/internal/dataset"
	"cvcp/internal/linalg"
	"cvcp/internal/stats"
)

func main() {
	var (
		out      = flag.String("o", "BENCH_v5.json", "benchmark ledger to append to")
		short    = flag.Bool("short", false, "reduced problem sizes (CI smoke run)")
		validate = flag.String("validate", "", "validate the ledger at this path and exit")
		trend    = flag.String("trend", "", "compare the ledger's last two comparable records and fail on regression, then exit")
		trendMax = flag.Float64("trend-max", 0.20, "maximum tolerated ns/op regression fraction for -trend")
	)
	flag.Parse()

	if *trend != "" {
		os.Exit(trendCheck(*trend, *trendMax))
	}

	if *validate != "" {
		recs, err := benchjson.Load(*validate)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if len(recs) == 0 {
			fmt.Fprintf(os.Stderr, "%s: ledger has no records\n", *validate)
			os.Exit(1)
		}
		fmt.Printf("%s: %d valid record(s), schema %d\n", *validate, len(recs), benchjson.Schema)
		return
	}

	rec := &benchjson.Record{
		Schema:    benchjson.Schema,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GitSHA:    gitSHA(),
		GoVersion: runtime.Version(),
		Short:     *short,
	}

	n, dim := 256, 64
	if *short {
		n = 96
	}
	rows := randRows(1, n, dim)

	// Pairwise kernels: four squared distances per op either way, so the
	// speedup is a pure kernel comparison.
	panel := make([]float64, 4*dim)
	linalg.Pack4(panel, rows[1], rows[2], rows[3], rows[4])
	var sink float64
	scalarKernel := measure("SqDist/scalar4x", 4*dim*8, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += linalg.SqDist(rows[0], rows[1])
			sink += linalg.SqDist(rows[0], rows[2])
			sink += linalg.SqDist(rows[0], rows[3])
			sink += linalg.SqDist(rows[0], rows[4])
		}
	})
	quadKernel := measure("SqDist/quad", 4*dim*8, func(b *testing.B) {
		var dst [4]float64
		for i := 0; i < b.N; i++ {
			linalg.SqDist4(&dst, rows[0], panel)
			sink += dst[0] + dst[1] + dst[2] + dst[3]
		}
	})
	quadKernel.SpeedupVsBaseline = round2(scalarKernel.NsPerOp / quadKernel.NsPerOp)

	// Matrix builders: same n·(n−1)/2 pairs per op, naive scalar builder
	// as the baseline.
	pairBytes := n * (n - 1) / 2 * dim * 8
	naive := measure(fmt.Sprintf("DistMatrixBuild/naive/n=%d,d=%d", n, dim), pairBytes, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.NewDistMatrixNaive(rows)
		}
	})
	blocked := measure(fmt.Sprintf("DistMatrixBuild/blocked/n=%d,d=%d", n, dim), pairBytes, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.NewDistMatrix(rows)
		}
	})
	condensed := measure(fmt.Sprintf("DistMatrixBuild/blocked-condensed/n=%d,d=%d", n, dim), pairBytes, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.NewDistMatrixCondensed(rows)
		}
	})
	condensed32 := measure(fmt.Sprintf("DistMatrixBuild/blocked-condensed32/n=%d,d=%d", n, dim), pairBytes, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.NewDistMatrixCondensed32(rows)
		}
	})
	blocked.SpeedupVsBaseline = round2(naive.NsPerOp / blocked.NsPerOp)
	condensed.SpeedupVsBaseline = round2(naive.NsPerOp / condensed.NsPerOp)
	condensed32.SpeedupVsBaseline = round2(naive.NsPerOp / condensed32.NsPerOp)

	// OPTICS on a condensed matrix (the selection engine's hot path:
	// RowInto-driven core distances plus the flat-scan expansion). Each
	// iteration runs on a fresh matrix, built outside the timer: the
	// second and later runs on one matrix read their core distances from
	// its nearest-distance table, so a reused matrix would time table
	// reads instead of the per-row selection a sweep's first run pays.
	opticsBench := measure(fmt.Sprintf("OpticsRunWithMatrix/n=%d,minPts=6", n), 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dm := linalg.NewDistMatrixCondensed(rows)
			b.StartTimer()
			if _, err := optics.RunWithMatrix(dm, 6); err != nil {
				b.Fatal(err)
			}
		}
	})

	rec.Benchmarks = []benchjson.Benchmark{
		scalarKernel, quadKernel, naive, blocked, condensed, condensed32, opticsBench,
	}

	// End-to-end: one cold FOSC-OPTICSDend selection (grid × folds,
	// including the shared matrix build), the number a PR is judged by.
	rec.SelectionWallNs = selectionWall(*short)

	if err := benchjson.Append(*out, rec); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("commit %s  %s  short=%v\n", rec.GitSHA, rec.GoVersion, rec.Short)
	for _, b := range rec.Benchmarks {
		line := fmt.Sprintf("%-48s %12.0f ns/op %8d B/op %6d allocs/op", b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
		if b.MBPerSec > 0 {
			line += fmt.Sprintf(" %9.1f MB/s", b.MBPerSec)
		}
		if b.SpeedupVsBaseline > 0 {
			line += fmt.Sprintf("   %.2fx", b.SpeedupVsBaseline)
		}
		fmt.Println(line)
	}
	fmt.Printf("%-48s %12d ns\n", "SelectionWall/FOSC-OPTICSDend", rec.SelectionWallNs)
	fmt.Printf("appended record %d to %s\n", len(mustLoad(*out)), *out)
	_ = sink
}

// trendCheck compares the ledger's newest record against the most recent
// earlier record of the same flavor (full vs -short — their problem sizes
// differ, so cross-flavor ns/op is not comparable) and reports, per
// benchmark name present in both, how ns/op moved. A regression beyond
// maxRegression (fractional; 0.20 means +20%) fails the check. Fewer than
// two comparable records is a trivial pass: the first committed record of
// a flavor has no baseline yet.
func trendCheck(path string, maxRegression float64) int {
	recs := mustLoad(path)
	if len(recs) == 0 {
		fmt.Fprintf(os.Stderr, "%s: ledger has no records\n", path)
		return 1
	}
	cur := recs[len(recs)-1]
	var prev *benchjson.Record
	for i := len(recs) - 2; i >= 0; i-- {
		if recs[i].Short == cur.Short {
			prev = &recs[i]
			break
		}
	}
	if prev == nil {
		fmt.Printf("%s: no earlier short=%v record to compare against; trend check trivially passes\n", path, cur.Short)
		return 0
	}

	base := map[string]float64{}
	for _, b := range prev.Benchmarks {
		base[b.Name] = b.NsPerOp
	}
	fmt.Printf("trend %s: %s -> %s (short=%v, limit +%.0f%%)\n",
		path, shortSHA(prev.GitSHA), shortSHA(cur.GitSHA), cur.Short, maxRegression*100)
	failed := false
	compared := 0
	for _, b := range cur.Benchmarks {
		was, ok := base[b.Name]
		if !ok || was <= 0 {
			continue
		}
		compared++
		delta := b.NsPerOp/was - 1
		verdict := "ok"
		if delta > maxRegression {
			verdict = "REGRESSED"
			failed = true
		}
		fmt.Printf("  %-48s %12.0f -> %12.0f ns/op  %+6.1f%%  %s\n", b.Name, was, b.NsPerOp, delta*100, verdict)
	}
	if compared == 0 {
		fmt.Println("  no benchmark names in common; trend check trivially passes")
		return 0
	}
	if failed {
		fmt.Fprintf(os.Stderr, "trend check failed: ns/op regressed more than %.0f%% since the previous record\n", maxRegression*100)
		return 1
	}
	return 0
}

func shortSHA(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}

// measure runs one benchmark function with testing.Benchmark and converts
// the result to a ledger entry. bytes is the data volume per op (0 to skip
// throughput).
func measure(name string, bytes int, f func(b *testing.B)) benchjson.Benchmark {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		if bytes > 0 {
			b.SetBytes(int64(bytes))
		}
		f(b)
	})
	out := benchjson.Benchmark{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if bytes > 0 && r.T > 0 {
		out.MBPerSec = round2(float64(bytes) * float64(r.N) / r.T.Seconds() / 1e6)
	}
	return out
}

// selectionWall times one full constraint-supervised selection on a
// three-blob reference dataset and returns the wall time in nanoseconds.
func selectionWall(short bool) int64 {
	m := 20
	params := []int{3, 6, 9, 12}
	if short {
		m = 12
		params = []int{3, 6}
	}
	r := stats.NewRand(7)
	var x [][]float64
	var y []int
	for c := 0; c < 3; c++ {
		for i := 0; i < m; i++ {
			x = append(x, []float64{12 * float64(c%2) * 1.5, 12 * float64(c/2) * 1.5})
			x[len(x)-1][0] += r.NormFloat64()
			x[len(x)-1][1] += r.NormFloat64()
			y = append(y, c)
		}
	}
	ds := dataset.MustNew("bench-blobs", x, y)
	cr := stats.NewRand(8)
	cons := constraints.Sample(cr, constraints.Pool(cr, y, 0.3), 0.5)
	start := time.Now()
	_, err := cvcp.Select(context.Background(), cvcp.Spec{
		Dataset:     ds,
		Grid:        cvcp.Grid{{Algorithm: cvcp.FOSCOpticsDend{}, Params: params}},
		Supervision: cvcp.ConstraintSet(cons),
		Options:     cvcp.Options{Seed: 9, NFolds: 4},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return time.Since(start).Nanoseconds()
}

func randRows(seed int64, n, d int) [][]float64 {
	r := stats.NewRand(seed)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = r.NormFloat64()
		}
	}
	return rows
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func mustLoad(path string) []benchjson.Record {
	recs, err := benchjson.Load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return recs
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}
