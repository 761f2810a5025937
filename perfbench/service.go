package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"cvcp/internal/cvcp"
	"cvcp/internal/dataset"
	"cvcp/internal/server"
	"cvcp/internal/store"
)

// Pinned service sizes: the 2-core reference machine runs one workload
// per process, so every budget is 2 and never a machine default.
const (
	svcWorkerBudget = 2
	svcRunningJobs  = 2
	svcRetain       = 64 // finished jobs the server keeps (its default)
	svcQueueDepth   = 64
	// distPoll is svc-dist's coordinator watch and worker idle-scan
	// interval, for 100 ms by default. At 100 ms an op ended on the
	// first or the second tick of the coordinator's watch, and the share
	// that made the first moved between 19% and 55% from run to run, so
	// op_s_p50 jumped between 0.13 and 0.23 s. At 10 ms the latency is
	// the work plus a few milliseconds of waiting.
	distPoll = 10 * time.Millisecond
)

// client is the workload's one HTTP client. It keeps at most two
// connections to the server: one for requests, one for an SSE stream.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr}}
}

// do sends one request and decodes a 2xx JSON response into out.
func (c *client) do(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (c *client) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, path, "application/json", body, out)
}

// sseEvent is the data of one job event as the server streams it.
type sseEvent struct {
	Seq         int    `json:"seq"`
	Type        string `json:"type"`
	Status      string `json:"status"`
	Shard       int    `json:"shard"`
	Shards      int    `json:"shards"`
	ShardStatus string `json:"shard_status"`
}

func terminalStatus(s string) bool { return s == "done" || s == "failed" || s == "cancelled" }

// waitTerminal follows the job's SSE stream until its terminal status
// event and returns that status and when it arrived. Completion comes
// from the stream, never from polling. onEvent, when non-nil, sees every
// event with its receipt time.
func (c *client) waitTerminal(ctx context.Context, jobID string, onEvent func(sseEvent, time.Time)) (string, time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		return "", time.Time{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", time.Time{}, fmt.Errorf("events of %s: %s", jobID, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		at := time.Now()
		var ev sseEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", time.Time{}, fmt.Errorf("events of %s: %w", jobID, err)
		}
		if onEvent != nil {
			onEvent(ev, at)
		}
		if ev.Type == "status" && terminalStatus(ev.Status) {
			return ev.Status, at, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", time.Time{}, err
	}
	return "", time.Time{}, fmt.Errorf("events of %s ended before a terminal status", jobID)
}

// jobView is the part of server.JobView the benchmark reads.
type jobView struct {
	ID       string     `json:"id"`
	Status   string     `json:"status"`
	Error    string     `json:"error"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Result   *struct {
		BestParam int `json:"best_param"`
		Scores    []struct {
			Param      int       `json:"param"`
			FoldScores []float64 `json:"fold_scores"`
		} `json:"scores"`
		FinalLabels   []int `json:"final_labels"`
		CellsComputed int   `json:"cells_computed"`
		CellsReused   int   `json:"cells_reused"`
	} `json:"result"`
}

// outcome converts the view's result; JSON carries float64s exactly, so
// the bits survive the round trip.
func (v jobView) outcome() (outcome, error) {
	if v.Status != "done" || v.Result == nil {
		return outcome{}, fmt.Errorf("job %s ended %s %s", v.ID, v.Status, v.Error)
	}
	o := outcome{Best: v.Result.BestParam, Labels: v.Result.FinalLabels}
	for _, s := range v.Result.Scores {
		o.Scores = append(o.Scores, floatBits(s.FoldScores))
	}
	return o, nil
}

// checkView is the shape check of a service op's result: the best
// parameter is in the grid, fold scores lie in [0, 1], one label per
// object.
func checkView(o outcome, params []int, n int) error {
	inGrid := false
	for _, p := range params {
		inGrid = inGrid || p == o.Best
	}
	if !inGrid {
		return fmt.Errorf("best parameter %d outside the grid", o.Best)
	}
	if len(o.Scores) != len(params) {
		return fmt.Errorf("%d parameters scored, want %d", len(o.Scores), len(params))
	}
	for _, fs := range o.Scores {
		for _, b := range fs {
			s := math.Float64frombits(b)
			if !(s >= 0 && s <= 1) {
				return fmt.Errorf("fold score %v outside [0, 1]", s)
			}
		}
	}
	if len(o.Labels) != n {
		return fmt.Errorf("%d final labels for %d objects", len(o.Labels), n)
	}
	return nil
}

// submitJob posts a job request and returns the new job's ID.
func (c *client) submitJob(ctx context.Context, req any) (string, error) {
	var v jobView
	if err := c.postJSON(ctx, "/v1/jobs", req, &v); err != nil {
		return "", err
	}
	return v.ID, nil
}

// runJob submits a job and waits for its terminal event; set-up's warm
// jobs use it.
func (c *client) runJob(ctx context.Context, req any) (jobView, error) {
	id, err := c.submitJob(ctx, req)
	if err != nil {
		return jobView{}, err
	}
	if _, _, err := c.waitTerminal(ctx, id, nil); err != nil {
		return jobView{}, err
	}
	var v jobView
	err = c.do(ctx, http.MethodGet, "/v1/jobs/"+id, "", nil, &v)
	return v, err
}

// node is one in-process server role listening on loopback.
type node struct {
	mgr  *server.Manager
	srv  *http.Server
	addr string
	done chan error
}

func startNode(cfg server.Config) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mgr := server.NewManager(cfg)
	n := &node{mgr: mgr, srv: &http.Server{Handler: server.NewHandler(mgr)}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- n.srv.Serve(ln) }()
	return n, nil
}

// stop shuts the HTTP server, then the manager, and waits for both.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if serr := <-n.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if merr := n.mgr.Shutdown(ctx); err == nil {
		err = merr
	}
	return err
}

// workerPool runs dist workers until stop.
type workerPool struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startWorkers(stores []store.Store) *workerPool {
	ctx, cancel := context.WithCancel(context.Background())
	p := &workerPool{cancel: cancel}
	for k, st := range stores {
		cfg := server.WorkerConfig{Store: st, ID: fmt.Sprintf("worker-%d", k+1), Workers: 1, Poll: distPoll}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			_ = server.RunWorker(ctx, cfg) // returns only once ctx is cancelled
		}()
	}
	return p
}

func (p *workerPool) stop() {
	p.cancel()
	p.wg.Wait()
}

// dirBytes is the total size of the files in dir.
func dirBytes(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total)
}

// storeDeltas adds the decorator's per-op call counts to counted and,
// for a traced op, its per-op call milliseconds to o.
func storeDeltas(counted map[string]float64, o *opObs, callsBefore, callsAfter, msBefore, msAfter [numStoreOps]float64) {
	for i, name := range storeOpNames {
		counted["store."+name+"_calls"] += callsAfter[i] - callsBefore[i]
		if o != nil {
			o.add("store."+name+"_ms", msAfter[i]-msBefore[i])
		}
	}
}

// endedJobs counts the jobs of one server whose terminal event the
// client has received, and remembers the latest.
type endedJobs struct {
	last  string
	count int
}

func (e *endedJobs) add(id string) { e.last, e.count = id, e.count+1 }

// settle waits for the trailing writes the server makes after it
// publishes a job's terminal event: the latest ended job's terminal
// record and the eviction of every finished job beyond the retention
// window. Afterwards no job work is in flight, so a traced op's store
// counts cover all of its own writes and none of the next op's, and a
// calibration sample sees the host alone.
func (e *endedJobs) settle(ctx context.Context, stats *storeStats) error {
	if e.last == "" {
		return nil
	}
	deletes := e.count - svcRetain
	for !stats.quiet(e.last, deletes) {
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for job %s to be persisted: %w", e.last, ctx.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
	return nil
}

// foscJobSpec is the library spec a server builds for a FOSC job with
// default MinPts, 10 folds and the given supervision and seed.
func foscJobSpec(ds *dataset.Dataset, sup cvcp.Supervision, seed int64) cvcp.Spec {
	return cvcp.Spec{
		Dataset:     ds,
		Grid:        cvcp.Grid{{Algorithm: cvcp.FOSCOpticsDend{}, Params: cvcp.DefaultMinPtsRange}},
		Supervision: sup,
		Options:     cvcp.Options{NFolds: libFolds, Seed: seed, Workers: libWorkers},
	}
}
