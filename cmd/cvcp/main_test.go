package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	root "cvcp"
	"cvcp/internal/constraints"
	"cvcp/internal/dataset"
)

// TestMain runs the command itself when CVCP_TEST_MAIN is set, so tests
// can run the CLI as a child process and check its exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("CVCP_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A constraint file naming an object the dataset lacks, or one object
// twice, is an error that names the constraint, not a panic.
func TestLoadConstraints(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cons, err := loadConstraints(write("ok.txt", "# two\n0 1 ml\n\n2 1 cannot-link\n"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !cons.HasMustLink(0, 1) || !cons.HasCannotLink(1, 2) || cons.Len() != 2 {
		t.Errorf("parsed %v", cons.Constraints())
	}
	// Lines in any order, repeats and reversed pairs included, load as
	// one sorted set.
	cons, err = loadConstraints(write("unsorted.txt", "5 4 cl\n2 1 ml\n1 0 ml\n0 1 must\n3 0 cl\n4 5 cl\n"), 6)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cons.Constraints(), []constraints.Constraint{
		{Pair: constraints.Pair{A: 0, B: 1}, MustLink: true}, {Pair: constraints.Pair{A: 1, B: 2}, MustLink: true},
		{Pair: constraints.Pair{A: 0, B: 3}}, {Pair: constraints.Pair{A: 4, B: 5}},
	}; !slices.Equal(got, want) {
		t.Errorf("unsorted.txt: parsed %v, want %v", got, want)
	}
	for _, c := range []struct{ name, text, want string }{
		{"far.txt", "0 1 ml\n0 500 ml\n", "far.txt: constraint (0, 500): object index out of range [0, 150)"},
		{"neg.txt", "-1 8 cl\n", "neg.txt: constraint (-1, 8): object index out of range [0, 150)"},
		{"self.txt", "7 7 ml\n", "self.txt: constraint (7, 7): a pair needs two distinct objects"},
		{"kind.txt", "0 1 ml\n1 2 maybe\n", `kind.txt: line 2: unknown constraint kind "maybe" (want ml or cl)`},
	} {
		path := write(c.name, c.text)
		_, err := loadConstraints(path, 150)
		if want := filepath.Join(dir, c.want); err == nil || err.Error() != want {
			t.Errorf("%s: err %v, want %q", c.name, err, want)
		}
	}
}

// The command exits 1 with a one-line message, not a stack trace, for a
// constraint file naming an object the dataset lacks or one object twice,
// and for an option value the selection service would also refuse.
func TestCLIInvalidConstraintsExit1(t *testing.T) {
	dir := t.TempDir()
	var csv strings.Builder
	for i := range 20 {
		fmt.Fprintf(&csv, "%d,%d,%d\n", i%2*10+i%3, i%5, i%2)
	}
	data := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(data, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	consFile := func(name, text string) string {
		path := filepath.Join(dir, name+".txt")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	valid := "0 2 ml\n2 4 ml\n1 3 ml\n3 5 ml\n0 1 cl\n4 5 cl\n6 8 ml\n7 9 ml\n6 7 cl\n"
	far, negative, self := consFile("far", valid+"0 500 ml\n"), consFile("negative", valid+"-1 8 cl\n"), consFile("self", valid+"7 7 ml\n")
	// Four cannot-links inside must-link components: the error names the
	// smallest, (0,5), on every run.
	inconsistent := consFile("inconsistent", "0 8 ml\n5 8 ml\n1 10 ml\n4 10 ml\n3 11 ml\n9 11 ml\n2 7 ml\n"+
		"3 9 cl\n2 7 cl\n1 4 cl\n0 5 cl\n0 1 cl\n")
	mpck := func(cons string) []string {
		return []string{"-algo", "mpck", "-constraints", cons, "-kmin", "2", "-kmax", "3", "-folds", "2"}
	}
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"far", mpck(far), far + ": constraint (0, 500): object index out of range [0, 20)"},
		{"negative", mpck(negative), negative + ": constraint (-1, 8): object index out of range [0, 20)"},
		{"self", mpck(self), self + ": constraint (7, 7): a pair needs two distinct objects"},
		{"inconsistent", mpck(inconsistent), "constraints: inconsistent input: cannot-link(0,5) joins one must-link component"},
		{"negative folds", []string{"-labelfrac", "0.5", "-folds", "-3"}, "-folds must be >= 0 (0 means the default)"},
		{"infinite eps", []string{"-labelfrac", "0.5", "-eps", "inf"}, "-eps must be finite (omit it for the dense ε=∞ path)"},
		{"label fraction above 1", []string{"-labelfrac", "1.5"}, "-labelfrac 1.5: want a value in (0, 1]"},
		{"negative rounds", []string{"-labelfrac", "0.5", "-scorer", "bootstrap", "-rounds", "-1"}, "-rounds must be >= 0 (0 means the default)"},
		{"label fraction with constraints", append(mpck(consFile("valid", valid)), "-labelfrac", "0.3"),
			"-labelfrac and -constraints are mutually exclusive"},
		{"k range without a k method", []string{"-labelfrac", "0.5", "-algo", "fosc", "-kmin", "3", "-kmax", "5"},
			"-kmin and -kmax apply only to the mpck and copk methods (add one to -algo)"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-data", data, "-labeled", "-workers", "2", "-quiet"}, c.args...)...)
		cmd.Env = append(os.Environ(), "CVCP_TEST_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: exit %v, want status 1 (stderr %q)", c.name, err, stderr.String())
		}
		if want := "cvcp: " + c.want + "\n"; stderr.String() != want {
			t.Errorf("%s: stderr %q, want %q", c.name, stderr.String(), want)
		}
	}
}

// -dataset-dir prints how many grid cells a run computed and how many the
// cell cache served: every cell computed on the first run, every cell
// reused on a rerun, and after a 2-row append only the two folds the new
// rows landed in are computed again.
func TestCLIDatasetDirCellSplit(t *testing.T) {
	dir := t.TempDir()
	writeBatch := func(name string, lo, hi int) {
		t.Helper()
		var b dataset.RowBatch
		for i := lo; i < hi; i++ {
			base := float64(i%2) * 10
			b.Rows = append(b.Rows, []float64{base + 0.3*float64(i%7), base + 0.2*float64(i%5)})
			b.Labels = append(b.Labels, i%2)
		}
		var buf bytes.Buffer
		if err := dataset.EncodeRowBatch(&buf, b); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	split := func() string {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-dataset-dir", dir, "-algo", "fosc", "-labelfrac", "0.5", "-folds", "4", "-quiet")
		cmd.Env = append(os.Environ(), "CVCP_TEST_MAIN=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("cvcp -dataset-dir: %v", err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "grid cells computed:") {
				return line
			}
		}
		t.Fatalf("no cell split in the output:\n%s", out)
		return ""
	}
	want := func(computed, reused int) string {
		return fmt.Sprintf("grid cells computed: %d, reused from cache: %d", computed, reused)
	}
	cells := len(root.DefaultMinPtsRange) * 4

	writeBatch("batch-000.rowbatch", 0, 40)
	writeBatch("batch-001.rowbatch", 40, 80)
	if got := split(); got != want(cells, 0) {
		t.Errorf("first run: %q, want %q", got, want(cells, 0))
	}
	if got := split(); got != want(0, cells) {
		t.Errorf("rerun: %q, want %q", got, want(0, cells))
	}
	writeBatch("batch-002.rowbatch", 80, 82)
	if got := split(); got != want(cells/2, cells/2) {
		t.Errorf("after a 2-row append: %q, want %q", got, want(cells/2, cells/2))
	}
}
