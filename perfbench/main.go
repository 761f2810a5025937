// Command perfbench is the repository's benchmark. One invocation runs
// one workload in its own process as a closed loop — a fixed number of
// ops, each waiting for the previous one, each timed and its output
// checked — after a set-up that is itself timed:
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1> [-workdir <dir>]
//
// Every input derives from the seed. With -trace 0 the run reports the
// end-to-end metrics; with -trace 1 it reports the per-layer metrics,
// gathered by replaying every fifth op through each layer's exported
// functions, timed from this package, and then runs the workload
// untraced in a child process as trace.overhead's reference. The last
// line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. The exit status is 1 when any op or check
// failed. -workload all runs every workload, each in its own child
// process, and prints each one's result.
//
// run.sh builds and runs it from the root of a checkout; README.md in
// this directory explains the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart and processHost are where set-up round 1 counts from.
var processStart, processHost = time.Now(), readHost()

// Run shape, the same on every commit.
const (
	// opsPerSecond sizes a run: -seconds s makes round(5·s) ops, about s
	// seconds of ops on the 2-core reference machine. The count is fixed
	// rather than time-bound, so op i has the same inputs — and on
	// svc-reselect the same dataset size — on every commit; at the
	// default 20 s, p90 rests on 100 ops with 10 beyond it.
	opsPerSecond = 5
	// setupRounds set-ups run per process; setup_s is their median.
	// svc-reselect's round registers 24 datasets, so it runs three.
	setupRounds         = 5
	reselectSetupRounds = 3
	// traceEvery: a traced run replays every fifth op, 20 of 100. Five
	// is coprime with svc-reselect's 24 datasets, so the traced ops
	// visit 20 different ones.
	traceEvery = 5
	// opTimeout fails one op; runBudget stops starting ops, so a
	// process ends well within the 180 s a run may take.
	opTimeout = 20 * time.Second
	runBudget = 150 * time.Second
	procs     = 2 // GOMAXPROCS, pinned to the reference machine's cores
	// childDeadline bounds a traced run's untraced reference run, so
	// the process ends within 180 s.
	childDeadline = 175 * time.Second
)

// trace.coverage on the library workloads must fall in this range when
// at least coverageOps ops were traced: the replayed layer calls account
// for the stage time they replay. Fewer ops leave the ratio to the
// host's noise.
const (
	coverageMin, coverageMax = 0.8, 1.25
	coverageOps              = 10
)

// workload is one benchmark workload.
type workload interface {
	// setUp runs one set-up round: everything before the first timed
	// op. Rounds run from the highest number down, and round 0's state
	// serves the timed phase. It samples cal before each unit of its
	// work, once the process is idle.
	setUp(ctx context.Context, round int, cal *calibrator) error
	// tearDown releases what setUp acquired.
	tearDown()
	// settle waits until the work an earlier op left in flight after
	// its result — a service job's trailing store writes — is done.
	settle(ctx context.Context) error
	// op runs op i and returns the latency of its timed interval; the
	// error reports a failure or a failed output check. counted is
	// non-nil in traced runs and receives the op's counter deltas; o is
	// non-nil for traced ops and receives their replay observations,
	// all outside the timed interval.
	op(ctx context.Context, i int, o *opObs, counted map[string]float64) (time.Duration, error)
	// finish runs the output checks that need the whole timed phase.
	finish(ctx context.Context) error
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"select-fosc", "select-mpck", "svc-reselect", "svc-dist"}

func newWorkload(name string, seed int64, root string, tr *tracer, ops int) (workload, error) {
	switch name {
	case "select-fosc":
		return &libWorkload{seed: seed, spec: foscSpec}, nil
	case "select-mpck":
		return &libWorkload{seed: seed, spec: mpckSpec}, nil
	case "svc-reselect":
		return &reselectWorkload{seed: seed, root: root, tr: tr, tracing: tr != nil}, nil
	case "svc-dist":
		return &distWorkload{seed: seed, root: root, tr: tr, ops: ops}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v and all)", name, workloadNames)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// tracedP50 is a traced run's p50 over its traced ops, in the unit
	// of op_s_p50: trace.overhead's numerator.
	tracedP50 float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "run length; the run makes 5 ops per second")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	workdir := fs.String("workdir", ".bench_build", "directory for stores and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ops := int(math.Round(opsPerSecond * *seconds))
	if ops < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must allow at least one op and -trace must be 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	runtime.GOMAXPROCS(procs)
	res, err := runWorkload(processStart, *name, *seed, ops, *trace == 1, *workdir, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *trace == 1 {
		ctx, cancel := context.WithDeadline(context.Background(), processStart.Add(childDeadline))
		p50, err := untracedP50(ctx, args, stderr)
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: untraced reference run: %v\n", err)
			res.Correct = false
		} else {
			res.Metrics["trace.overhead"] = metric{finite(res.tracedP50 / p50), "ratio"}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload's set-up rounds, timed phase and final
// checks; start is when the process started, where set-up round 1 and
// the run budget count from. An error means the run produced no result.
func runWorkload(start time.Time, name string, seed int64, ops int, traced bool, workdir string, stderr io.Writer) (*result, error) {
	root, err := filepath.Abs(filepath.Join(workdir, fmt.Sprintf("run-%s-%d-%d", name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	w, err := newWorkload(name, seed, root, tr, ops)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	deadline := start.Add(runBudget)

	// A round's time leaves out the kernel passes it ran and is
	// multiplied by the round's run share (calibrate.go). Round numbers
	// count down, so round 0 serves the timed phase whatever the count:
	// a traced run, which reports no setup_s, sets up once and runs its
	// ops on the data an untraced run's ops see.
	var setups, setupShares []float64
	cal := newCalibrator()
	rounds := setupRounds
	switch {
	case traced:
		rounds = 1
	case name == "svc-reselect":
		rounds = reselectSetupRounds
	}
	for r := 0; r < rounds; r++ {
		roundStart, roundHost := start, processHost
		if r > 0 {
			w.tearDown()
			roundStart, roundHost = time.Now(), readHost()
		}
		spent := cal.spent
		rctx, cancel := context.WithDeadline(ctx, deadline)
		err := w.setUp(rctx, rounds-1-r, cal)
		cancel()
		if err != nil {
			w.tearDown()
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		share := runShare(roundHost, readHost())
		setups = append(setups, (time.Since(roundStart) - (cal.spent - spent)).Seconds())
		setupShares = append(setupShares, share)
	}
	defer w.tearDown()
	setupScale := cal.scale()
	cal.samples = nil

	var (
		lat, shares      []float64 // every successful op's wall seconds and run share
		tracedIdx        []int     // the traced ones' indices in lat
		counted, tracedO []map[string]float64
		failed           int
	)
	phase, phaseHost := time.Now(), readHost()
	for i := 0; i < ops; i++ {
		if time.Now().After(deadline) {
			fmt.Fprintf(stderr, "perfbench: %s: run budget spent after %d of %d ops\n", name, i, ops)
			failed += ops - i
			break
		}
		var o *opObs
		var c map[string]float64
		if traced {
			c = map[string]float64{}
			if i%traceEvery == 0 {
				o = newOpObs(tr, i)
			}
		}
		octx, cancel := context.WithTimeout(ctx, opTimeout)
		err := w.settle(octx)
		cal.sample()
		opHost, opStart := readHost(), time.Now()
		var d time.Duration
		if err == nil {
			d, err = w.op(octx, i, o, c)
		}
		share := runShare(opHost, readHost())
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s op %d: %v\n", name, i, err)
			failed++
			continue
		}
		lat = append(lat, d.Seconds())
		shares = append(shares, share)
		if !traced {
			continue
		}
		counted = append(counted, c)
		if o != nil {
			tr.finish(o.root, i, 0, "op", opStart, time.Now())
			tracedO = append(tracedO, o.v)
			tracedIdx = append(tracedIdx, len(lat)-1)
		}
	}
	// The timed phase ends when the last op's trailing work has.
	sctx, cancel := context.WithTimeout(ctx, opTimeout)
	settleErr := w.settle(sctx)
	cancel()
	elapsed := time.Since(phase).Seconds()
	phaseShare := runShare(phaseHost, readHost())
	rss, rssErr := peakRSSMB()

	correct := failed == 0 && settleErr == nil && rssErr == nil
	if settleErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s after the last op: %v\n", name, settleErr)
	}
	if rssErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, rssErr)
	}
	fctx, cancel := context.WithDeadline(ctx, start.Add(runBudget+20*time.Second))
	defer cancel()
	if err := w.finish(fctx); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s check: %v\n", name, err)
		correct = false
	}

	res := &result{Attempted: ops, Failed: failed, Metrics: map[string]metric{}}
	scale := cal.scale()
	// Times in reference seconds, rates per reference second: wall
	// seconds times the interval's run share and the phase's scale (see
	// calibrate.go); stderr keeps the wall-clock figures.
	opTimes := product(lat, shares)
	if !traced {
		p50 := median(opTimes)
		p90, beyond := percentile(opTimes, 90)
		if beyond < minTail {
			fmt.Fprintf(stderr, "perfbench: %s: op_s_p90 rests on %d ops, only %d beyond it\n", name, len(lat), beyond)
		}
		res.Metrics["setup_s"] = metric{median(product(setups, setupShares)) * setupScale, "s"}
		res.Metrics["op_s_p50"] = metric{finite(p50 * scale), "s"}
		res.Metrics["op_s_p90"] = metric{finite(p90 * scale), "s"}
		res.Metrics["ops_per_s"] = metric{float64(len(lat)) / (elapsed * phaseShare) / scale, "1/s"}
		res.Metrics["max_rss_mb"] = metric{rss, "MB"}
		wp90, _ := percentile(lat, 90)
		fmt.Fprintf(stderr, "perfbench: %s: %d ops; wall seconds: p50 %.4f, p90 %.4f over %d ops (%d beyond), set-up rounds %.4f; run share %.4f, in set-up %.4f; host scale %.4f, in set-up %.4f\n",
			name, ops, median(lat), wp90, len(lat), beyond, setups, phaseShare, setupShares, scale, setupScale)
	} else {
		layers := aggregate(counted, tracedO)
		var tracedTimes []float64
		for _, i := range tracedIdx {
			tracedTimes = append(tracedTimes, opTimes[i])
		}
		res.tracedP50 = median(tracedTimes) * scale
		layers["host.scale"] = scale
		layers["host.run_share"] = phaseShare
		if (name == "select-fosc" || name == "select-mpck") && len(tracedO) >= coverageOps {
			if c := layers["trace.coverage"]; !(c >= coverageMin && c <= coverageMax) {
				fmt.Fprintf(stderr, "perfbench: %s: trace.coverage %.3f outside [%.2f, %.2f]\n", name, c, coverageMin, coverageMax)
				correct = false
			}
		}
		for _, m := range layerMetrics {
			res.Metrics[m.Name] = metric{finite(layers[m.Name]), m.Unit}
		}
		path := filepath.Join(filepath.Dir(root), fmt.Sprintf("trace-%s-%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			correct = false
		}
	}
	res.Correct = correct
	return res, nil
}

// runAll runs every workload in its own child process with the same
// flags and prints each result line after the workload's name.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	status := 0
	for _, name := range workloadNames {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", name)...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		line := lines[len(lines)-1]
		var res result
		if jerr := json.Unmarshal([]byte(line), &res); jerr != nil || err != nil {
			fmt.Fprintf(stdout, "%s: failed: %v\n", name, errors.Join(err, jerr))
			status = 1
			continue
		}
		keys := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(stdout, "%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
		for _, k := range keys {
			fmt.Fprintf(stdout, "  %-28s %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
		}
	}
	return status
}

// untracedP50 runs this workload untraced in a child process with the
// same arguments and returns its op_s_p50.
func untracedP50(ctx context.Context, args []string, stderr io.Writer) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, self, append(append([]string(nil), args...), "-trace", "0")...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return 0, err
	}
	if p50 := res.Metrics["op_s_p50"].Value; p50 > 0 {
		return p50, nil
	}
	return 0, fmt.Errorf("no op_s_p50 in %s", lines[len(lines)-1])
}

// product multiplies xs and ys element by element.
func product(xs, ys []float64) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = xs[i] * ys[i]
	}
	return out
}

// finite maps the NaN of a statistic over no samples (every op failed)
// to 0, which JSON can carry; such a run is reported incorrect anyway.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
