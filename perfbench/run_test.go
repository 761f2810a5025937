package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"
)

// benchmarkFile is the subset of ../BENCHMARK.json the run must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesRun(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the run knows %v", names, workloadNames)
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the run reports %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		p := b.PerLayer[i]
		if p.Name != m.Name || p.Unit != m.Unit || p.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, the run reports %s %s %s", i, p, m.Name, m.Unit, m.Better)
		}
	}
}

// runTiny runs a workload with a few ops and returns its result.
func runTiny(t *testing.T, name string, ops int, traced bool) *result {
	t.Helper()
	res, err := runWorkload(time.Now(), name, 21, ops, traced, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != ops {
		var b bytes.Buffer
		_ = json.NewEncoder(&b).Encode(res)
		t.Fatalf("%s run: %s", name, b.String())
	}
	return res
}

// deterministicCounts are the per-layer counts that must not depend on
// timing, by workload.
var deterministicCounts = map[string][]string{
	"select-fosc": {"cvcp.cells", "optics.runs", "hierarchy.builds", "fosc.extracts", "constraints.train_pairs",
		"constraints.test_pairs", "runner.runcache_misses"},
	"select-mpck": {"cvcp.cells", "mpckmeans.runs", "mpckmeans.iters", "constraints.train_pairs",
		"constraints.test_pairs", "runner.runcache_misses"},
	"svc-reselect": {"cvcp.cells", "optics.runs", "fosc.extracts", "runner.cellcache_writes", "store.put_calls",
		"store.append_events_calls", "server.events"},
	"svc-dist": {"cvcp.cells", "optics.runs", "dist.shards"},
}

// TestWorkloadsEndToEnd runs every workload briefly, untraced and twice
// traced with one seed: each reports exactly its metrics, and the
// timing-independent counts repeat exactly.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkFile(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			plain := runTiny(t, name, 2, false)
			if len(plain.Metrics) != len(b.EndToEnd) {
				t.Errorf("untraced run reports %d metrics, BENCHMARK.json lists %d", len(plain.Metrics), len(b.EndToEnd))
			}
			for _, m := range b.EndToEnd {
				got, ok := plain.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s = %+v", m.Name, got)
				}
			}
			first := runTiny(t, name, 2, true)
			second := runTiny(t, name, 2, true)
			if len(first.Metrics) != len(layerMetrics) {
				t.Errorf("traced run reports %d metrics, want %d", len(first.Metrics), len(layerMetrics))
			}
			if first.Metrics["cvcp.cells"].Value == 0 {
				t.Error("the traced run replayed no cells")
			}
			for _, k := range deterministicCounts[name] {
				if a, c := first.Metrics[k].Value, second.Metrics[k].Value; a != c {
					t.Errorf("%s: %v then %v over two traced runs of one seed", k, a, c)
				}
			}
		})
	}
}
