package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
)

// experimentsPinnedDigest is the SHA-256 of the reduced reproduction
// TestExperimentsPinned runs. It equals
//
//	go run ./cmd/experiments -trials 2 -aloisets 4 | grep -v '^(.* in .*s)$' | sha256sum
//
// (the command's output with its timing lines left out). Any change to it
// is a change of a reproduced table or figure.
const experimentsPinnedDigest = "0f233e3a2cadec5976415a7f77f67aa691041fa1af68733259422d55ec43b0e7"

// TestExperimentsPinned pins the paper reproduction across commits: every
// registered experiment, in registry order, at the default settings with
// 2 trials and 4 ALOI sets, framed as cmd/experiments frames it. That
// covers both methods and both scenarios through CVCP selection, the
// Overall F-measure, the correlation, boxplot and paired t-test columns,
// and the two ablations. Skipped off amd64, where the compiler may fuse
// multiply-adds.
func TestExperimentsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	var buf bytes.Buffer
	cfg := Default(&buf)
	cfg.Trials = 2
	cfg.ALOISets = 4
	for _, r := range Registry() {
		fmt.Fprintf(&buf, "== %s: %s ==\n", r.Name, r.Description)
		if err := r.Run(cfg); err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		buf.WriteString("\n")
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != experimentsPinnedDigest {
		t.Errorf("digest over %d output bytes = %s, pinned %s", buf.Len(), got, experimentsPinnedDigest)
	}
}
