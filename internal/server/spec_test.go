package server

import (
	"context"
	"net/http"
	"net/url"
	"strings"
	"testing"

	corecvcp "cvcp/internal/cvcp"
	"cvcp/internal/stats"
)

// A JSON submission with a field the schema does not define must be
// rejected as invalid_request naming the field — never silently ignored (a
// typoed option would otherwise run the job with the default and look
// successful).
func TestUnknownJSONFieldRejected(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	_, csvText := testDataset(t, 12)

	body := `{"csv": ` + jsonString(csvText) + `, "has_label": true, "label_fraction": 0.5, "seeed": 7}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	apiErr := decodeAPIError(t, resp)
	if apiErr.Code != "invalid_request" {
		t.Errorf("code %q, want invalid_request", apiErr.Code)
	}
	if !strings.Contains(apiErr.Message, "seeed") {
		t.Errorf("error message %q does not name the offending field", apiErr.Message)
	}

	// Batch submissions go through the same strict decoding.
	batch := `{"datasets": [{"csv": ` + jsonString(csvText) + `, "has_label": true}], "label_fraction": 0.5, "algoritm": "fosc"}`
	resp, err = http.Post(ts.URL+"/v1/batches", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch status %d, want 400", resp.StatusCode)
	}
	apiErr = decodeAPIError(t, resp)
	if apiErr.Code != "invalid_request" || !strings.Contains(apiErr.Message, "algoritm") {
		t.Errorf("batch error (%q, %q) does not name the offending field", apiErr.Code, apiErr.Message)
	}
}

// jsonString quotes s as a JSON string literal.
func jsonString(s string) string {
	out := strings.NewReplacer("\\", "\\\\", "\"", "\\\"", "\n", "\\n").Replace(s)
	return `"` + out + `"`
}

// A cross-method job ("algorithms") must run the whole grid as one
// selection and report both the winner and every candidate — identical to
// what the library's unified Select produces for the same spec.
func TestCrossMethodJob(t *testing.T) {
	ds, csvText := testDataset(t, 30)
	ts, _ := newTestServer(t, Config{})

	body := `{"csv": ` + jsonString(csvText) + `, "has_label": true, "label_fraction": 0.5,
		"algorithms": ["fosc", "mpck"], "params": [3, 4], "folds": 3, "seed": 11}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %+v", resp.StatusCode, decodeAPIError(t, resp))
	}
	job := decodeJob(t, resp.Body)
	resp.Body.Close()
	if len(job.Algorithms) != 2 || job.Algorithm != "" {
		t.Fatalf("job view algorithms = %v / %q", job.Algorithms, job.Algorithm)
	}

	final := pollJob(t, ts, job.ID, StatusDone)
	if final.Result == nil {
		t.Fatal("done job has no result")
	}
	if len(final.Result.Candidates) != 2 {
		t.Fatalf("result has %d candidates, want 2", len(final.Result.Candidates))
	}

	// Replay through the library's unified core.
	r := stats.NewRand(11)
	idx := ds.SampleLabels(r, 0.5)
	lres, err := corecvcp.Select(context.Background(), corecvcp.Spec{
		Dataset: ds,
		Grid: corecvcp.Grid{
			{Algorithm: corecvcp.FOSCOpticsDend{}, Params: []int{3, 4}},
			{Algorithm: corecvcp.MPCKMeans{}, Params: []int{3, 4}},
		},
		Supervision: corecvcp.Labels(idx),
		Options:     corecvcp.Options{NFolds: 3, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Result.Algorithm != lres.Winner.Algorithm ||
		final.Result.BestParam != lres.Winner.Best.Param ||
		final.Result.BestScore != lres.Winner.Best.Score {
		t.Fatalf("server winner (%s, %d, %v), library winner (%s, %d, %v)",
			final.Result.Algorithm, final.Result.BestParam, final.Result.BestScore,
			lres.Winner.Algorithm, lres.Winner.Best.Param, lres.Winner.Best.Score)
	}
	for ci, cand := range final.Result.Candidates {
		want := lres.PerCandidate[ci]
		if cand.Algorithm != want.Algorithm || cand.BestParam != want.Best.Param || cand.BestScore != want.Best.Score {
			t.Errorf("candidate %d: server (%s, %d, %v), library (%s, %d, %v)",
				ci, cand.Algorithm, cand.BestParam, cand.BestScore,
				want.Algorithm, want.Best.Param, want.Best.Score)
		}
	}
	for i, l := range lres.Winner.FinalLabels {
		if final.Result.FinalLabels[i] != l {
			t.Fatalf("final label %d: server %d, library %d", i, final.Result.FinalLabels[i], l)
		}
	}

	// A one-entry "algorithms" list is still a cross-method job: the
	// response shape follows the submission shape, so the candidates
	// array must be present even with a single candidate.
	one := `{"csv": ` + jsonString(csvText) + `, "has_label": true, "label_fraction": 0.5,
		"algorithms": ["fosc"], "params": [3, 4], "folds": 3, "seed": 11}`
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(one))
	if err != nil {
		t.Fatal(err)
	}
	oneJob := decodeJob(t, resp.Body)
	resp.Body.Close()
	oneDone := pollJob(t, ts, oneJob.ID, StatusDone)
	if len(oneDone.Result.Candidates) != 1 {
		t.Fatalf("single-entry algorithms job has %d candidates, want 1", len(oneDone.Result.Candidates))
	}
}

// The scorer option must route the job through the requested strategy; the
// result must match the library run of the same Spec.
func TestScorerOptions(t *testing.T) {
	ds, csvText := testDataset(t, 30)
	ts, _ := newTestServer(t, Config{})

	submit := func(body string) JobView {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d: %+v", resp.StatusCode, decodeAPIError(t, resp))
		}
		job := decodeJob(t, resp.Body)
		resp.Body.Close()
		return job
	}

	boot := submit(`{"csv": ` + jsonString(csvText) + `, "has_label": true, "label_fraction": 0.5,
		"algorithm": "mpck", "params": [2, 3], "scorer": "bootstrap", "bootstrap_rounds": 4, "seed": 11}`)
	sil := submit(`{"csv": ` + jsonString(csvText) + `, "has_label": true, "label_fraction": 0.5,
		"algorithm": "mpck", "params": [2, 3], "scorer": "silhouette", "seed": 11}`)

	bootDone := pollJob(t, ts, boot.ID, StatusDone)
	silDone := pollJob(t, ts, sil.ID, StatusDone)

	r := stats.NewRand(11)
	idx := ds.SampleLabels(r, 0.5)
	bootWant, err := corecvcp.Select(context.Background(), corecvcp.Spec{
		Dataset:     ds,
		Grid:        corecvcp.Grid{{Algorithm: corecvcp.MPCKMeans{}, Params: []int{2, 3}}},
		Supervision: corecvcp.Labels(idx),
		Scorer:      corecvcp.Bootstrap{Rounds: 4},
		Options:     corecvcp.Options{Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bootDone.Result.BestParam != bootWant.Winner.Best.Param || bootDone.Result.BestScore != bootWant.Winner.Best.Score {
		t.Errorf("bootstrap job (%d, %v), library (%d, %v)",
			bootDone.Result.BestParam, bootDone.Result.BestScore,
			bootWant.Winner.Best.Param, bootWant.Winner.Best.Score)
	}
	if got := len(bootDone.Result.Scores[0].FoldScores); got != 4 {
		t.Errorf("bootstrap job ran %d rounds, want 4", got)
	}
	if !strings.HasSuffix(silDone.Result.Algorithm, "+silhouette") {
		t.Errorf("silhouette job result algorithm %q", silDone.Result.Algorithm)
	}
}

// Invalid combinations of the new options must be rejected at submission.
func TestSpecOptionValidation(t *testing.T) {
	_, csvText := testDataset(t, 12)
	ts, _ := newTestServer(t, Config{})

	cases := []struct {
		name, body, wantInMsg string
	}{
		{"unknown scorer",
			`{"csv": ` + jsonString(csvText) + `, "has_label": true, "label_fraction": 0.5, "scorer": "magic"}`,
			"unknown scorer"},
		{"bootstrap on constraints",
			`{"csv": ` + jsonString(csvText) + `, "scorer": "bootstrap", "constraints": [{"a":0,"b":1,"link":"ml"}]}`,
			"label_fraction"},
		{"rounds without bootstrap",
			`{"csv": ` + jsonString(csvText) + `, "has_label": true, "label_fraction": 0.5, "bootstrap_rounds": 5}`,
			"bootstrap_rounds"},
		{"algorithm and algorithms",
			`{"csv": ` + jsonString(csvText) + `, "has_label": true, "label_fraction": 0.5, "algorithm": "fosc", "algorithms": ["mpck"]}`,
			"mutually exclusive"},
		{"unknown algorithm in list",
			`{"csv": ` + jsonString(csvText) + `, "has_label": true, "label_fraction": 0.5, "algorithms": ["fosc", "nope"]}`,
			"unknown algorithm"},
		{"duplicate algorithms",
			`{"csv": ` + jsonString(csvText) + `, "has_label": true, "label_fraction": 0.5, "algorithms": ["fosc", "fosc"]}`,
			"duplicate"},
		{"grid columns over limit across algorithms",
			`{"csv": ` + jsonString(csvText) + `, "has_label": true, "label_fraction": 0.5, "algorithms": ["fosc", "mpck"], "param_min": 1, "param_max": 300}`,
			"grid columns"},
		{"bootstrap rounds over limit",
			`{"csv": ` + jsonString(csvText) + `, "has_label": true, "label_fraction": 0.5, "scorer": "bootstrap", "bootstrap_rounds": 100000}`,
			"bootstrap rounds"},
		{"folds with a non-cv scorer",
			`{"csv": ` + jsonString(csvText) + `, "has_label": true, "label_fraction": 0.5, "scorer": "silhouette", "folds": 20}`,
			"cross-validation scorer"},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
			resp.Body.Close()
			continue
		}
		apiErr := decodeAPIError(t, resp)
		if apiErr.Code != "invalid_request" || !strings.Contains(apiErr.Message, c.wantInMsg) {
			t.Errorf("%s: got (%q, %q), want invalid_request mentioning %q", c.name, apiErr.Code, apiErr.Message, c.wantInMsg)
		}
	}
}

// The constraint errors a submission can hit keep their codes and exact
// messages whichever way the constraints arrive: JSON objects or the
// constraint-file lines of a raw or multipart submission's "constraints"
// option.
func TestConstraintRequestErrors(t *testing.T) {
	_, csvText := testDataset(t, 12)
	ts, _ := newTestServer(t, Config{})
	jsonBody := func(cons string) string {
		return `{"csv": ` + jsonString(csvText) + `, "constraints": [` + cons + `]}`
	}
	rawURL := func(lines string) string {
		return ts.URL + "/v1/jobs?" + url.Values{"constraints": {lines}}.Encode()
	}
	cases := []struct {
		name, url, contentType, body, want string
	}{
		{"json unknown kind", ts.URL + "/v1/jobs", "application/json", jsonBody(`{"a":0,"b":1,"link":"maybe"}`),
			`constraints: unknown constraint kind "maybe" (want ml or cl)`},
		{"json index out of range", ts.URL + "/v1/jobs", "application/json", jsonBody(`{"a":0,"b":1,"link":"ml"},{"a":3,"b":12,"link":"cl"}`),
			"constraint (3, 12): object index out of range [0, 12)"},
		{"json negative index", ts.URL + "/v1/jobs", "application/json", jsonBody(`{"a":-1,"b":8,"link":"cl"}`),
			"constraint (-1, 8): object index out of range [0, 12)"},
		{"json self-pair", ts.URL + "/v1/jobs", "application/json", jsonBody(`{"a":7,"b":7,"link":"ml"}`),
			"constraint (7, 7): a pair needs two distinct objects"},
		{"lines unknown kind", rawURL("0 1 ml\n# note\n\n2 3 maybe"), "text/csv", csvText,
			`constraints: line 4: unknown constraint kind "maybe" (want ml or cl)`},
		{"lines malformed", rawURL("0 x ml"), "text/csv", csvText,
			`constraints: line 1: "0 x ml": expected integer`},
		{"lines index out of range", rawURL("0 500 ml"), "text/csv", csvText,
			"constraint (0, 500): object index out of range [0, 12)"},
		{"lines negative index", rawURL("-1 8 cl"), "text/csv", csvText,
			"constraint (-1, 8): object index out of range [0, 12)"},
		{"lines self-pair", rawURL("1 2 cannot-link\n7 7 ML"), "text/csv", csvText,
			"constraint (7, 7): a pair needs two distinct objects"},
	}
	for _, c := range cases {
		resp, err := http.Post(c.url, c.contentType, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
			resp.Body.Close()
			continue
		}
		if apiErr := decodeAPIError(t, resp); apiErr.Code != "invalid_request" || apiErr.Message != c.want {
			t.Errorf("%s: got (%q, %q), want (invalid_request, %q)", c.name, apiErr.Code, apiErr.Message, c.want)
		}
	}
}
