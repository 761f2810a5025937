package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// e2eDataset builds a deterministic labeled three-cluster CSV, large
// enough that a distributed run spans many shards and survives losing a
// worker mid-grid.
func e2eDataset() string {
	var b strings.Builder
	for i := 0; i < 300; i++ {
		cl := i % 3
		bx, by := 0.0, 0.0
		switch cl {
		case 1:
			bx = 12
		case 2:
			by = 12
		}
		fmt.Fprintf(&b, "%g,%g,%d\n", bx+0.3*float64(i%7), by+0.2*float64(i%5), cl)
	}
	return b.String()
}

const e2eQuery = "name=blobs&algorithm=fosc&params=3,4,5,6,7,8&folds=3&seed=7&label_fraction=0.4&has_label=1"

func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// startCvcpd launches one cvcpd process and returns it with its stderr
// buffer. The caller owns termination.
func startCvcpd(t *testing.T, bin string, args ...string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	cmd.Stdout = &errBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd, &errBuf
}

func waitHealthy(t *testing.T, addr string, logs *bytes.Buffer) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("server on %s never became healthy; logs:\n%s", addr, logs.String())
}

// submitAndWait submits the e2e job as a raw CSV body and polls until it
// is terminal, returning the final job document.
func submitAndWait(t *testing.T, addr, csv string, onRunning func()) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/v1/jobs?"+e2eQuery, "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil || created.ID == "" {
		t.Fatalf("submit: status %d, decode err %v", resp.StatusCode, err)
	}

	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/v1/jobs/" + created.ID)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]json.RawMessage
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var status string
		_ = json.Unmarshal(doc["status"], &status)
		switch status {
		case "running":
			if onRunning != nil {
				onRunning()
				onRunning = nil
			}
		case "done":
			return doc
		case "failed", "cancelled":
			var msg string
			_ = json.Unmarshal(doc["error"], &msg)
			t.Fatalf("job %s finished as %s: %s", created.ID, status, msg)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job never finished")
	return nil
}

func terminate(cmd *exec.Cmd) {
	if cmd.Process == nil {
		return
	}
	_ = cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _, _ = cmd.Process.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = cmd.Process.Kill()
		<-done
	}
}

// TestE2ETopologyBitIdentical is the process-level topology smoke CI
// runs: real cvcpd binaries — one single-node, then one coordinator with
// two workers over a shared store directory — must produce byte-identical
// result documents for the same submission, even though one worker is
// SIGKILLed while the job runs and its leased shards must be reclaimed
// and recomputed by the survivor.
func TestE2ETopologyBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level e2e; skipped with -short")
	}
	bin := filepath.Join(t.TempDir(), "cvcpd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building cvcpd: %v\n%s", err, out)
	}
	csv := e2eDataset()

	// Reference: one single-node server, in-memory store.
	singleAddr := freePort(t)
	single, singleLogs := startCvcpd(t, bin, "-role=single", "-addr", singleAddr, "-workers", "2")
	defer terminate(single)
	waitHealthy(t, singleAddr, singleLogs)
	want := submitAndWait(t, singleAddr, csv, nil)
	terminate(single)

	// Topology: coordinator + two workers over one shared store
	// directory. Short lease TTL so the killed worker's shards reclaim
	// quickly.
	dir := t.TempDir()
	coordAddr := freePort(t)
	shared := []string{"-store-dir", dir, "-lease-ttl", "500ms", "-poll", "5ms"}
	coord, coordLogs := startCvcpd(t, bin, append([]string{"-role=coordinator", "-addr", coordAddr}, shared...)...)
	defer terminate(coord)
	w1, _ := startCvcpd(t, bin, append([]string{"-role=worker", "-worker-id", "w1", "-workers", "2"}, shared...)...)
	defer terminate(w1)
	w2, _ := startCvcpd(t, bin, append([]string{"-role=worker", "-worker-id", "w2", "-workers", "2"}, shared...)...)
	defer terminate(w2)
	waitHealthy(t, coordAddr, coordLogs)

	got := submitAndWait(t, coordAddr, csv, func() {
		// The job is running (its shards are being computed): kill one
		// worker the hard way. Whatever it held mid-shard must expire and
		// recompute — to the same bits — on the survivor.
		_ = w1.Process.Kill() // SIGKILL: no drain, no cleanup
	})

	// Byte-equal result documents ARE bit-identical selections: Go's
	// float JSON encoding is the shortest exact representation, so equal
	// text means equal float64 bits for every score, and equal labels.
	if string(got["result"]) != string(want["result"]) {
		t.Fatalf("distributed result differs from single-node:\n got: %s\nwant: %s", got["result"], want["result"])
	}
}
