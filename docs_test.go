package cvcp

// Documentation reference check: README.md, EXPERIMENTS.md and docs/*.md
// must not name a file, directory, command-line flag or test that does not
// exist. CI runs this as its docs-link gate (and it runs with every
// `go test ./...`), so docs rot — a renamed flag or test, a moved file, a
// dead relative link — fails the build instead of misleading readers.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// [text](target) markdown links; targets that are URLs or pure
	// anchors are skipped.
	mdLinkRE = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	// `inline code` spans on fence-stripped text.
	inlineCodeRE = regexp.MustCompile("`([^`\n]+)`")
	// A command-line flag token inside an inline code span.
	flagTokenRE = regexp.MustCompile(`^-[a-z][a-z0-9-]*$`)
	// A repo path token inside an inline code span.
	pathTokenRE = regexp.MustCompile(`^(cmd|internal|docs|examples)(/[A-Za-z0-9_.*-]+)*/?$`)
	// flag declarations in cmd/*/main.go.
	flagDeclRE = regexp.MustCompile(`flag\.(?:String|Bool|Int|Int64|Uint|Float64|Duration)\("([a-z0-9-]+)"`)
	// A test, fuzz target or benchmark name inside an inline code span.
	testTokenRE = regexp.MustCompile(`^(?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*$`)
	// test, fuzz target and benchmark declarations in _test.go files.
	testDeclRE = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)\(`)
)

// goToolFlags are flags of the go tool itself that the docs may mention
// in test/bench invocations; they are not declared by any command here.
var goToolFlags = map[string]bool{
	"race": true, "bench": true, "run": true, "count": true,
	"v": true, "cover": true,
}

// declaredFlags collects every flag name defined by the repo's commands.
func declaredFlags(t *testing.T) map[string]bool {
	t.Helper()
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go found: %v", err)
	}
	flags := map[string]bool{}
	for _, path := range mains {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagDeclRE.FindAllStringSubmatch(string(src), -1) {
			flags[m[1]] = true
		}
	}
	return flags
}

// declaredTests collects the name of every test, fuzz target and
// benchmark that a _test.go file in the repository declares.
func declaredTests(t *testing.T) map[string]bool {
	t.Helper()
	tests := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testDeclRE.FindAllStringSubmatch(string(src), -1) {
			tests[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tests
}

// stripFences removes ``` fenced code blocks: shell transcripts and
// diagrams are illustrative, while inline code and links are the load-
// bearing references this test verifies.
func stripFences(text string) string {
	var out []string
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "EXPERIMENTS.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("docs/ holds no markdown files")
	}
	return append(files, docs...)
}

// requiredAPIDocs maps documentation files to the API names they must
// mention: the unified selection surface is the contract every doc is
// organized around, so a rewrite that drops one of these names (or a
// rename that leaves the docs behind) fails the build.
var requiredAPIDocs = map[string][]string{
	"README.md": {
		"Select", "Spec", "Grid", "Supervision", "Scorer",
		"Labels", "ConstraintSet", "CrossValidation", "Bootstrap", "Validity",
	},
	"docs/api.md": {
		"algorithms", "scorer", "bootstrap_rounds", "candidates",
		"Last-Event-ID", "read-header-timeout", "read-timeout", "idle-timeout",
		"matrix32", "shard_status", "-role", "-worker-id",
		"-lease-ttl", "-poll",
		"unauthorized", "quota_exceeded", "X-API-Key", "Bearer", "eps",
		"dataset_id", "dataset_version", "/v1/datasets",
		"cells_computed", "cells_reused",
	},
	"docs/operations.md": {
		"cvcpd_jobs_submitted_total", "cvcpd_jobs_rejected_total",
		"cvcpd_jobs_completed_total", "cvcpd_job_duration_seconds",
		"cvcpd_limiter_wait_seconds", "cvcpd_runcache_hits_total",
		"cvcpd_wal_fsync_seconds", "cvcpd_store_compactions_total",
		"cvcpd_shard_leases_total", "cvcpd_shard_reclaims_total",
		"cvcpd_heartbeat_renewals_total",
		"cvcpd_cellcache_hits_total", "cvcpd_cellcache_misses_total",
		"cvcpd_cellcache_writes_total", "cvcpd_cellcache_write_failures_total",
		"cvcpd_reselect_cells_dirty_total", "cvcpd_reselect_cells_reused_total",
		"cvcpd_dataset_version", "cvcpd_dataset_cells_swept_total",
		"-metrics", "-pprof-addr", "-api-keys",
		"max_queued", "Authorization: Bearer", "/debug/pprof/",
	},
	"docs/architecture.md": {
		"Select", "Spec", "Grid", "Supervision", "Scorer",
		"EventLog", "Last-Event-ID",
		"coordinator", "dist.Worker", "lease", "epoch", "Float64bits",
		"Versioned", "RowBatch", "StableFold", "ScoreCache",
		"OpenShared",
	},
	"docs/static-analysis.md": {
		"mapiter", "nondeterm", "lockio", "fpreduce", "metricreg",
		"cvcplint:ignore", "cmd/cvcplint", "staticcheck.conf",
		"internal/analysis", "analysistest", "TestLintRepoWide",
	},
	"docs/performance.md": {
		"Dist4", "SqDist4", "Pack4", "NewDistMatrixNaive", "RowInto",
		"Matrix32", "RunWithEps", "KthSmallest", "NearestWidth", "BENCH_v5.json",
		"bench-smoke", "benchjson",
	},
	"BENCH_v5.json": {
		"schema", "git_sha", "ns_per_op", "allocs_per_op",
		"selection_wall_ns", "speedup_vs_baseline",
	},
}

func TestDocsReferences(t *testing.T) {
	flags := declaredFlags(t)
	tests := declaredTests(t)
	for file, names := range requiredAPIDocs {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, name := range names {
			if !strings.Contains(string(raw), name) {
				t.Errorf("%s no longer mentions %q — update the docs for the current API", file, name)
			}
		}
	}
	for _, file := range docFiles(t) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := stripFences(string(raw))

		// Relative markdown links must point at existing files. Links are
		// resolved from the linking file's directory.
		for _, m := range mdLinkRE.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s links to %q, which does not exist", file, target)
			}
		}

		// Inline code spans: flag tokens must be declared by some command
		// (or belong to the go tool), test names by some _test.go file,
		// and path tokens must exist on disk.
		for _, m := range inlineCodeRE.FindAllStringSubmatch(text, -1) {
			for _, tok := range strings.Fields(m[1]) {
				tok = strings.Trim(tok, "[](),;:")
				switch {
				case flagTokenRE.MatchString(tok):
					name := strings.TrimPrefix(tok, "-")
					if !flags[name] && !goToolFlags[name] {
						t.Errorf("%s mentions flag %q, declared by no command in cmd/", file, tok)
					}
				case testTokenRE.MatchString(tok):
					if !tests[tok] {
						t.Errorf("%s mentions %s, which no _test.go file declares", file, tok)
					}
				case pathTokenRE.MatchString(tok):
					probe := strings.TrimSuffix(tok, "/")
					if i := strings.IndexByte(probe, '*'); i >= 0 {
						probe = strings.TrimSuffix(probe[:i], "/") // check the globbed parent
					}
					if _, err := os.Stat(probe); err != nil {
						// Qualified names like internal/store.Store refer to
						// the package directory; retry without the symbol.
						if i := strings.LastIndexByte(probe, '.'); i >= 0 {
							if _, err := os.Stat(probe[:i]); err == nil {
								continue
							}
						}
						t.Errorf("%s mentions path %q, which does not exist", file, tok)
					}
				}
			}
		}
	}
}
