package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/url"
	"strconv"
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

// The request shapes a submission can take.
const (
	viaJob    = 1 << iota // JSON document to /v1/jobs, CSV inline
	viaQuery              // CSV body to /v1/jobs, options in the URL query
	viaForm               // multipart dataset part, options as form fields
	viaBatch              // JSON document to /v1/batches with one dataset
	viaJSON   = viaJob | viaBatch
	viaString = viaQuery | viaForm
	viaAll    = viaJSON | viaString
)

// optionValues turns JSON object members into the string options of a
// query or form submission: lists are comma-joined and constraint objects
// become "a b link" lines.
func optionValues(t *testing.T, members string) url.Values {
	t.Helper()
	var m map[string]any
	dec := json.NewDecoder(strings.NewReader("{" + members + "}"))
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	v := url.Values{}
	for k, x := range m {
		list, ok := x.([]any)
		if !ok {
			v.Set(k, fmt.Sprint(x))
			continue
		}
		parts := make([]string, len(list))
		sep := ","
		for i, e := range list {
			if c, ok := e.(map[string]any); ok {
				parts[i] = fmt.Sprintf("%v %v %v", c["a"], c["b"], c["link"])
				sep = "\n"
			} else {
				parts[i] = fmt.Sprint(e)
			}
		}
		v.Set(k, strings.Join(parts, sep))
	}
	return v
}

// formBody encodes fields, and a "dataset" file part holding csv unless it
// is empty, as a multipart body.
func formBody(t *testing.T, fields url.Values, csv string) (contentType, body string) {
	t.Helper()
	var buf bytes.Buffer
	w := multipart.NewWriter(&buf)
	for k, vs := range fields {
		for _, v := range vs {
			if err := w.WriteField(k, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if csv != "" {
		part, err := w.CreateFormFile("dataset", "data.csv")
		if err != nil {
			t.Fatal(err)
		}
		part.Write([]byte(csv))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return w.FormDataContentType(), buf.String()
}

// TestSpecOptionValidation pins every rejection a submission can meet —
// status, code and full message — through every request shape that can
// carry it.
func TestSpecOptionValidation(t *testing.T) {
	_, csvText := testDataset(t, 12)
	ts, _ := newTestServer(t, Config{})
	dsID := createDatasetHTTP(t, ts.URL, "registered", csvText)

	post := func(path, contentType, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	check := func(what string, resp *http.Response, status int, code, msg string) {
		t.Helper()
		if resp.StatusCode != status {
			t.Errorf("%s: status %d, want %d", what, resp.StatusCode, status)
		}
		if apiErr := decodeAPIError(t, resp); apiErr.Code != code || apiErr.Message != msg {
			t.Errorf("%s: got (%q, %q), want (%q, %q)", what, apiErr.Code, apiErr.Message, code, msg)
		}
	}
	members := func(opts string) string {
		if opts == "" {
			return ""
		}
		return ", " + opts
	}
	unknownAlgorithm := func(name string) string {
		return fmt.Sprintf("server: unknown algorithm %q (have %s)", name, strings.Join(algorithmNames(), ", "))
	}

	// Options, sent through each shape in via. opts are JSON object
	// members; the query and form shapes get them as strings. A batch
	// prefixes the errors of per-dataset checks (item) with its index.
	cases := []struct {
		name      string
		via       int
		opts      string
		csv       string // "" is the labelled 12-row test dataset
		unlabeled bool
		item      bool
		code      string // "" is invalid_request
		msg       string
	}{
		{name: "unknown scorer", via: viaAll, item: true,
			opts: `"label_fraction": 0.5, "scorer": "magic"`,
			msg:  `cvcp: unknown scorer "magic" (have cv, bootstrap, silhouette, davies-bouldin, calinski-harabasz, dunn)`},
		{name: "bootstrap on constraints", via: viaAll, item: true,
			opts: `"scorer": "bootstrap", "constraints": [{"a":0,"b":1,"link":"ml"}]`,
			msg:  `scorer "bootstrap" requires label_fraction supervision`},
		{name: "rounds without bootstrap", via: viaAll, item: true,
			opts: `"label_fraction": 0.5, "bootstrap_rounds": 5`,
			msg:  `bootstrap_rounds requires scorer "bootstrap"`},
		{name: "algorithm and algorithms", via: viaAll, item: true,
			opts: `"label_fraction": 0.5, "algorithm": "fosc", "algorithms": ["mpck"]`,
			msg:  `"algorithm" and "algorithms" are mutually exclusive`},
		{name: "unknown algorithm in list", via: viaAll, item: true,
			opts: `"label_fraction": 0.5, "algorithms": ["fosc", "nope"]`,
			msg:  unknownAlgorithm("nope")},
		{name: "duplicate algorithms", via: viaAll, item: true,
			opts: `"label_fraction": 0.5, "algorithms": ["fosc", "fosc"]`,
			msg:  `duplicate algorithm "fosc" in algorithms`},
		{name: "grid columns over limit across algorithms", via: viaAll, item: true,
			opts: `"label_fraction": 0.5, "algorithms": ["fosc", "mpck"], "param_min": 1, "param_max": 300`,
			msg:  "600 candidate grid columns, limit 512"},
		{name: "bootstrap rounds over limit", via: viaAll, item: true,
			opts: `"label_fraction": 0.5, "scorer": "bootstrap", "bootstrap_rounds": 100000`,
			msg:  "100000 bootstrap rounds, limit 512"},
		{name: "folds with a non-cv scorer", via: viaAll, item: true,
			opts: `"label_fraction": 0.5, "scorer": "silhouette", "folds": 20`,
			msg:  `folds applies only to the cross-validation scorer (scorer "cv")`},
		{name: "unknown algorithm", via: viaAll, item: true,
			opts: `"label_fraction": 0.5, "algorithm": "nope"`,
			msg:  unknownAlgorithm("nope")},
		{name: "parameter below 1", via: viaAll, item: true,
			opts: `"label_fraction": 0.5, "params": [0, 3]`,
			msg:  "candidate parameter 0: must be >= 1"},
		{name: "inverted range", via: viaAll,
			opts: `"label_fraction": 0.5, "param_min": 5, "param_max": 2`,
			msg:  "param_min 5 exceeds param_max 2"},
		{name: "range over limit", via: viaAll,
			opts: `"label_fraction": 0.5, "param_min": 1, "param_max": 1000`,
			msg:  "parameter range 1..1000 has 1000 candidates, limit 512"},
		{name: "params and a range", via: viaAll,
			opts: `"label_fraction": 0.5, "params": [3, 6], "param_min": 2, "param_max": 9`,
			msg:  `"params" and "param_min"/"param_max" are mutually exclusive`},
		{name: "params and param_max", via: viaAll,
			opts: `"label_fraction": 0.5, "params": [3, 6], "param_max": 9`,
			msg:  `"params" and "param_min"/"param_max" are mutually exclusive`},
		{name: "matrix32 without fosc", via: viaJob | viaString, item: true,
			opts: `"label_fraction": 0.5, "algorithm": "mpck", "matrix32": true`,
			msg:  "matrix32 requires a fosc candidate in the grid"},
		{name: "negative eps", via: viaJob | viaString, item: true,
			opts: `"label_fraction": 0.5, "eps": -1`,
			msg:  "eps -1: want a positive radius"},
		{name: "eps without fosc", via: viaJob | viaString, item: true,
			opts: `"label_fraction": 0.5, "algorithm": "mpck", "eps": 2`,
			msg:  "eps requires a fosc candidate in the grid"},
		{name: "eps with matrix32", via: viaJob | viaString, item: true,
			opts: `"label_fraction": 0.5, "eps": 2, "matrix32": true`,
			msg:  "eps and matrix32 are mutually exclusive (the ε-range driver computes distances on demand, not from a matrix)"},
		{name: "infinite eps", via: viaString, item: true,
			opts: `"label_fraction": 0.5, "eps": "inf"`,
			msg:  "eps must be finite (omit it for the dense ε=∞ path)"},
		{name: "NaN eps", via: viaString, item: true,
			opts: `"label_fraction": 0.5, "eps": "NaN"`,
			msg:  "eps NaN: want a positive radius"},
		{name: "negative folds", via: viaAll, item: true,
			opts: `"label_fraction": 0.5, "folds": -1`,
			msg:  "folds must be >= 0 (0 means the default)"},
		{name: "negative rounds", via: viaAll, item: true,
			opts: `"label_fraction": 0.5, "scorer": "bootstrap", "bootstrap_rounds": -1`,
			msg:  "bootstrap_rounds must be >= 0 (0 means the default)"},
		{name: "labels and constraints", via: viaAll, item: true,
			opts: `"label_fraction": 0.5, "constraints": [{"a":0,"b":1,"link":"ml"}]`,
			msg:  "label_fraction and constraints are mutually exclusive"},
		{name: "no supervision", via: viaAll, item: true,
			msg: "supervision required: set label_fraction (Scenario I) or constraints (Scenario II)"},
		{name: "label fraction above 1", via: viaAll, item: true,
			opts: `"label_fraction": 1.5`,
			msg:  "label_fraction 1.5: want a value in (0, 1]"},
		{name: "NaN label fraction", via: viaString, item: true,
			opts: `"label_fraction": "NaN"`,
			msg:  "label_fraction NaN: want a value in (0, 1]"},
		{name: "lower-case NaN label fraction", via: viaString, item: true,
			opts: `"label_fraction": "nan"`,
			msg:  "label_fraction NaN: want a value in (0, 1]"},
		{name: "labels on an unlabelled dataset", via: viaAll, item: true, unlabeled: true,
			opts: `"label_fraction": 0.5`,
			msg:  "label_fraction requires a labeled dataset (set has_label)"},
		{name: "constraint outside the dataset", via: viaAll, item: true,
			opts: `"constraints": [{"a":0,"b":1,"link":"ml"},{"a":0,"b":12,"link":"cl"}]`,
			msg:  "constraint (0, 12): object index out of range [0, 12)"},
		{name: "malformed CSV", via: viaAll, item: true, code: "bad_csv",
			opts: `"label_fraction": 0.5`, csv: "not,a,number\n1,2\n",
			msg: `malformed CSV dataset: dataset "upload": line 1 column 1: strconv.ParseFloat: parsing "not": invalid syntax`},
		{name: "unknown constraint kind", via: viaJSON,
			opts: `"constraints": [{"a":0,"b":1,"link":"maybe"}]`,
			msg:  `constraints: unknown constraint kind "maybe" (want ml or cl)`},
		{name: "unknown constraint kind in lines", via: viaString,
			opts: `"constraints": [{"a":0,"b":1,"link":"ml"},{"a":1,"b":2,"link":"maybe"}]`,
			msg:  `constraints: line 2: unknown constraint kind "maybe" (want ml or cl)`},
		{name: "unknown field", via: viaJSON,
			opts: `"label_fraction": 0.5, "seeed": 7`,
			msg:  `unknown field "seeed" in JSON body`},
		{name: "unknown option", via: viaString,
			opts: `"label_fraction": 0.5, "seeed": 7`,
			msg:  `unknown option "seeed"`},
		{name: "JSON-only option", via: viaString,
			opts: `"label_fraction": 0.5, "dataset_id": "` + dsID + `"`,
			msg:  `unknown option "dataset_id"`},
		{name: "dataset_id in a batch", via: viaBatch,
			opts: `"label_fraction": 0.5, "dataset_id": "` + dsID + `"`,
			msg:  `unknown field "dataset_id" in JSON body`},
		{name: "dataset_version in a batch", via: viaBatch,
			opts: `"label_fraction": 0.5, "dataset_version": 1`,
			msg:  `unknown field "dataset_version" in JSON body`},
		{name: "string seed", via: viaJSON,
			opts: `"label_fraction": 0.5, "seed": "x"`,
			msg:  `field "seed": want an integer, got string`},
		{name: "fractional folds", via: viaJSON,
			opts: `"label_fraction": 0.5, "folds": 2.5`,
			msg:  `field "folds": want an integer, got number 2.5`},
		{name: "string label_fraction", via: viaJSON,
			opts: `"label_fraction": "x"`,
			msg:  `field "label_fraction": want a number, got string`},
		{name: "non-boolean matrix32 in JSON", via: viaJSON,
			opts: `"label_fraction": 0.5, "matrix32": "maybe"`,
			msg:  `field "matrix32": want a boolean, got string`},
		{name: "object algorithms", via: viaJSON,
			opts: `"label_fraction": 0.5, "algorithms": {}`,
			msg:  `field "algorithms": want an array, got object`},
		{name: "string in params", via: viaJSON,
			opts: `"label_fraction": 0.5, "params": [3, "x"]`,
			msg:  `field "params": want an integer, got string`},
		{name: "string constraint index", via: viaJSON,
			opts: `"constraints": [{"a":"0","b":1,"link":"ml"}]`,
			msg:  `field "constraints.a": want an integer, got string`},
		{name: "non-integer folds", via: viaString,
			opts: `"label_fraction": 0.5, "folds": "x"`,
			msg:  `option "folds": strconv.Atoi: parsing "x": invalid syntax`},
		{name: "non-integer param_min", via: viaString,
			opts: `"label_fraction": 0.5, "param_min": "x"`,
			msg:  `option "param_min": strconv.Atoi: parsing "x": invalid syntax`},
		{name: "non-integer param_max", via: viaString,
			opts: `"label_fraction": 0.5, "param_max": "x"`,
			msg:  `option "param_max": strconv.Atoi: parsing "x": invalid syntax`},
		{name: "non-integer bootstrap_rounds", via: viaString,
			opts: `"label_fraction": 0.5, "bootstrap_rounds": "x"`,
			msg:  `option "bootstrap_rounds": strconv.Atoi: parsing "x": invalid syntax`},
		{name: "non-integer seed", via: viaString,
			opts: `"label_fraction": 0.5, "seed": "x"`,
			msg:  `option "seed": strconv.ParseInt: parsing "x": invalid syntax`},
		{name: "non-numeric eps", via: viaString,
			opts: `"label_fraction": 0.5, "eps": "x"`,
			msg:  `option "eps": strconv.ParseFloat: parsing "x": invalid syntax`},
		{name: "non-numeric label_fraction", via: viaString,
			opts: `"label_fraction": "x"`,
			msg:  `option "label_fraction": strconv.ParseFloat: parsing "x": invalid syntax`},
		{name: "non-boolean has_label", via: viaString,
			opts: `"label_fraction": 0.5, "has_label": "maybe"`,
			msg:  `option "has_label": want a boolean`},
		{name: "non-boolean matrix32", via: viaString,
			opts: `"label_fraction": 0.5, "matrix32": "maybe"`,
			msg:  `option "matrix32": want a boolean`},
		{name: "non-integer params", via: viaString,
			opts: `"label_fraction": 0.5, "params": [3, "x"]`,
			msg:  `option "params": strconv.Atoi: parsing "x": invalid syntax`},
	}
	for _, c := range cases {
		csv := c.csv
		if csv == "" {
			csv = csvText
		}
		labeled := strconv.FormatBool(!c.unlabeled)
		code := c.code
		if code == "" {
			code = "invalid_request"
		}
		if c.via&viaJob != 0 {
			body := `{"csv": ` + jsonString(csv) + `, "has_label": ` + labeled + members(c.opts) + `}`
			check(c.name+" (JSON job)", post("/v1/jobs", "application/json", body), http.StatusBadRequest, code, c.msg)
		}
		if c.via&viaString != 0 {
			fields := url.Values{"has_label": {labeled}}
			for k, v := range optionValues(t, c.opts) {
				fields[k] = v
			}
			if c.via&viaQuery != 0 {
				check(c.name+" (query)", post("/v1/jobs?"+fields.Encode(), "text/csv", csv), http.StatusBadRequest, code, c.msg)
			}
			if c.via&viaForm != 0 {
				contentType, body := formBody(t, fields, csv)
				check(c.name+" (form)", post("/v1/jobs", contentType, body), http.StatusBadRequest, code, c.msg)
			}
		}
		if c.via&viaBatch != 0 {
			body := `{"datasets": [{"csv": ` + jsonString(csv) + `, "has_label": ` + labeled + `}]` + members(c.opts) + `}`
			msg := c.msg
			if c.item {
				msg = "datasets[0]: " + msg
			}
			check(c.name+" (batch)", post("/v1/batches", "application/json", body), http.StatusBadRequest, code, msg)
		}
	}

	// Requests only one shape can make.
	csvJSON := jsonString(csvText)
	dsJSON := `"dataset_id": "` + dsID + `"`
	formType, formNoFile := formBody(t, url.Values{"label_fraction": {"0.5"}}, "")
	var many strings.Builder
	for i := range maxBatchDatasets + 1 {
		if i > 0 {
			many.WriteString(", ")
		}
		many.WriteString(`{"csv": ` + csvJSON + `}`)
	}
	requests := []struct {
		name, path, contentType, body string
		status                        int
		code, msg                     string
	}{
		{"job without csv", "/v1/jobs", "application/json", `{"has_label": true, "label_fraction": 0.5}`,
			400, "invalid_request", `JSON submissions require a non-empty "csv" field`},
		{"csv and dataset_id", "/v1/jobs", "application/json", `{"csv": ` + csvJSON + `, ` + dsJSON + `, "label_fraction": 0.5}`,
			400, "invalid_request", `"csv" and "dataset_id" are mutually exclusive`},
		{"has_label with dataset_id", "/v1/jobs", "application/json", `{` + dsJSON + `, "has_label": true, "label_fraction": 0.5}`,
			400, "invalid_request", `"has_label" is a property of the registered dataset, not of a "dataset_id" job`},
		{"dataset_version without dataset_id", "/v1/jobs", "application/json", `{"csv": ` + csvJSON + `, "has_label": true, "label_fraction": 0.5, "dataset_version": 1}`,
			400, "invalid_request", `"dataset_version" requires "dataset_id"`},
		{"negative dataset_version", "/v1/jobs", "application/json", `{` + dsJSON + `, "label_fraction": 0.5, "dataset_version": -1}`,
			400, "invalid_request", "dataset_version must be >= 0 (0 means the current version)"},
		{"unknown dataset", "/v1/jobs", "application/json", `{"dataset_id": "ds-999999999", "label_fraction": 0.5}`,
			404, "not_found", `server: no dataset "ds-999999999"`},
		{"unknown dataset version", "/v1/jobs", "application/json", `{` + dsJSON + `, "label_fraction": 0.5, "dataset_version": 7}`,
			400, "invalid_request", `dataset "registered": no version 7 (latest is 1)`},
		{"constraints on a dataset", "/v1/jobs", "application/json", `{` + dsJSON + `, "constraints": [{"a":0,"b":1,"link":"ml"}]}`,
			400, "invalid_request", "dataset jobs use stable label supervision; constraints are not supported"},
		{"dataset with params and a range", "/v1/jobs", "application/json", `{` + dsJSON + `, "label_fraction": 0.5, "params": [3, 6], "param_min": 2}`,
			400, "invalid_request", `"params" and "param_min"/"param_max" are mutually exclusive`},
		{"dataset without labels", "/v1/jobs", "application/json", `{` + dsJSON + `}`,
			400, "invalid_request", "dataset jobs require label_fraction supervision"},
		{"dataset with a validity scorer", "/v1/jobs", "application/json", `{` + dsJSON + `, "label_fraction": 0.5, "scorer": "silhouette"}`,
			400, "invalid_request", `dataset jobs support only the cross-validation scorer (scorer "cv")`},
		{"dataset with one fold", "/v1/jobs", "application/json", `{` + dsJSON + `, "label_fraction": 0.5, "folds": 1}`,
			400, "invalid_request", "dataset jobs need at least 2 folds"},
		{"dataset too small for its folds", "/v1/jobs", "application/json", `{` + dsJSON + `, "label_fraction": 0.5}`,
			400, "invalid_request", "dataset version has 12 rows, too few for 10 stable folds of at least 4 rows"},
		{"truncated job", "/v1/jobs", "application/json", `{"csv": `,
			400, "invalid_request", "malformed JSON body: unexpected EOF"},
		{"truncated batch", "/v1/batches", "application/json", `{"datasets": [`,
			400, "invalid_request", "malformed JSON body: unexpected EOF"},
		{"job body not an object", "/v1/jobs", "application/json", `[]`,
			400, "invalid_request", "JSON body: want an object, got array"},
		{"number as job csv", "/v1/jobs", "application/json", `{"csv": 3, "label_fraction": 0.5}`,
			400, "invalid_request", `field "csv": want a string, got number`},
		{"string has_label", "/v1/jobs", "application/json", `{"csv": ` + csvJSON + `, "has_label": "yes", "label_fraction": 0.5}`,
			400, "invalid_request", `field "has_label": want a boolean, got string`},
		{"number as batch dataset name", "/v1/batches", "application/json", `{"datasets": [{"csv": ` + csvJSON + `, "name": 3}], "label_fraction": 0.5}`,
			400, "invalid_request", `field "datasets.name": want a string, got number`},
		{"object as dataset name", "/v1/datasets", "application/json", `{"name": {}, "csv": ` + csvJSON + `}`,
			400, "invalid_request", `field "name": want a string, got object`},
		{"batch as CSV", "/v1/batches", "text/csv", csvText,
			400, "invalid_request", `batch submissions are JSON documents (got Content-Type "text/csv")`},
		{"batch without datasets", "/v1/batches", "application/json", `{"label_fraction": 0.5}`,
			400, "invalid_request", `batch submissions require a non-empty "datasets" list`},
		{"batch over limit", "/v1/batches", "application/json", `{"datasets": [` + many.String() + `], "label_fraction": 0.5}`,
			400, "invalid_request", "65 datasets in one batch, limit 64"},
		{"batch dataset without csv", "/v1/batches", "application/json", `{"datasets": [{"csv": ` + csvJSON + `, "has_label": true}, {"name": "empty"}], "label_fraction": 0.5}`,
			400, "invalid_request", `datasets[1]: non-empty "csv" required`},
		{"multipart without boundary", "/v1/jobs", "multipart/form-data", "x",
			400, "invalid_request", "malformed multipart body: no multipart boundary param in Content-Type"},
		{"multipart without dataset", "/v1/jobs", formType, formNoFile,
			400, "invalid_request", `multipart submissions require a "dataset" file part: http: no such file`},
	}
	for _, r := range requests {
		check(r.name, post(r.path, r.contentType, r.body), r.status, r.code, r.msg)
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
