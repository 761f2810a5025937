package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"cvcp/internal/constraints"
	corecvcp "cvcp/internal/cvcp"
	"cvcp/internal/dataset"
)

// apiError is the structured error body of every non-2xx response:
// {"error":{"code":"...","message":"..."}}.
type apiError struct {
	status  int
	Code    string `json:"code"`
	Message string `json:"message"`
}

func badRequest(code, format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, Code: code, Message: fmt.Sprintf(format, args...)}
}

// jobOptions are the selection options of every submission shape: the
// JSON job and batch documents embed them, and raw and multipart
// submissions decode their option strings into them (parseOptions).
type jobOptions struct {
	Algorithm       string           `json:"algorithm"`
	Algorithms      []string         `json:"algorithms"`
	Scorer          string           `json:"scorer"`
	BootstrapRounds int              `json:"bootstrap_rounds"`
	Params          []int            `json:"params"`
	ParamMin        int              `json:"param_min"`
	ParamMax        int              `json:"param_max"`
	Folds           int              `json:"folds"`
	Seed            int64            `json:"seed"`
	Matrix32        bool             `json:"matrix32"`
	Eps             float64          `json:"eps"`
	LabelFraction   float64          `json:"label_fraction"`
	Constraints     []constraintJSON `json:"constraints"`
}

// jobRequest is the JSON submission document.
type jobRequest struct {
	jobOptions
	Name           string `json:"name"`
	CSV            string `json:"csv"`
	HasLabel       bool   `json:"has_label"`
	DatasetID      string `json:"dataset_id"`
	DatasetVersion int    `json:"dataset_version"`
}

type constraintJSON struct {
	A    int    `json:"a"`
	B    int    `json:"b"`
	Link string `json:"link"` // "ml" (must-link) or "cl" (cannot-link)
}

// parseSubmission extracts a job spec and dataset from a POST /v1/jobs
// request. Three request shapes are accepted:
//
//   - application/json: a jobRequest document with the CSV inline;
//   - multipart/form-data: a "dataset" file part plus option form fields;
//   - anything else (e.g. text/csv): the body is the CSV, options come
//     from the URL query.
//
// maxBody also caps the CSV payload itself via dataset.ReadCSVLimited, so
// an oversized upload is reported as too_large rather than a parse error.
func parseSubmission(r *http.Request, maxBody int64) (Spec, *dataset.Dataset, *apiError) {
	ct := r.Header.Get("Content-Type")
	switch {
	case strings.HasPrefix(ct, "application/json"):
		return parseJSONSubmission(r, maxBody)
	case strings.HasPrefix(ct, "multipart/form-data"):
		return parseMultipartSubmission(r, maxBody)
	default:
		return parseRawSubmission(r, maxBody)
	}
}

func parseJSONSubmission(r *http.Request, maxBody int64) (Spec, *dataset.Dataset, *apiError) {
	var req jobRequest
	if apiErr := decodeStrictJSON(r.Body, &req); apiErr != nil {
		return Spec{}, nil, apiErr
	}
	if req.DatasetID != "" {
		// Dataset-referencing job: the rows come from a registered
		// versioned dataset, not the request. The handler resolves the
		// snapshot (pinning the version) and runs finishSpec against it;
		// this parse only assembles the options.
		if req.CSV != "" {
			return Spec{}, nil, badRequest("invalid_request", `"csv" and "dataset_id" are mutually exclusive`)
		}
		if req.HasLabel {
			return Spec{}, nil, badRequest("invalid_request", `"has_label" is a property of the registered dataset, not of a "dataset_id" job`)
		}
		if req.DatasetVersion < 0 {
			return Spec{}, nil, badRequest("invalid_request", "dataset_version must be >= 0 (0 means the current version)")
		}
		spec, apiErr := req.spec()
		if apiErr != nil {
			return Spec{}, nil, apiErr
		}
		spec.DatasetID, spec.DatasetVersion = req.DatasetID, req.DatasetVersion
		return spec, nil, nil
	}
	if req.DatasetVersion != 0 {
		return Spec{}, nil, badRequest("invalid_request", `"dataset_version" requires "dataset_id"`)
	}
	if req.CSV == "" {
		return Spec{}, nil, badRequest("invalid_request", `JSON submissions require a non-empty "csv" field`)
	}
	spec, apiErr := req.spec()
	if apiErr != nil {
		return Spec{}, nil, apiErr
	}
	ds, apiErr := parseCSV(req.Name, strings.NewReader(req.CSV), req.HasLabel, maxBody)
	if apiErr != nil {
		return Spec{}, nil, apiErr
	}
	return finishSpec(spec, ds)
}

// decodeStrictJSON decodes a JSON request document, rejecting fields the
// schema does not define: a misspelled option must fail loudly as
// invalid_request naming the field, never be silently ignored (a typoed
// "seeed" would otherwise run the job with seed 0 and look successful).
func decodeStrictJSON(r io.Reader, v any) *apiError {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if apiErr := asSizeError(err); apiErr != nil {
			return apiErr
		}
		// encoding/json reports unknown fields as `json: unknown field "x"`;
		// surface the field name in the structured error.
		if name, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
			return badRequest("invalid_request", "unknown field %s in JSON body", name)
		}
		// A value of the wrong JSON type: name the field by its JSON keys
		// (encoding/json's path also names the embedded jobOptions) and
		// the JSON type it takes, not the Go types behind it.
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) {
			if te.Field == "" {
				return badRequest("invalid_request", "JSON body: want %s, got %s", jsonType(te.Type), te.Value)
			}
			field := strings.TrimPrefix(te.Field, reflect.TypeFor[jobOptions]().Name()+".")
			return badRequest("invalid_request", "field %q: want %s, got %s", field, jsonType(te.Type), te.Value)
		}
		return badRequest("invalid_request", "malformed JSON body: %v", err)
	}
	return nil
}

// jsonType names the JSON type a value of Go type t decodes from.
func jsonType(t reflect.Type) string {
	switch t.Kind() {
	case reflect.String:
		return "a string"
	case reflect.Bool:
		return "a boolean"
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return "an integer"
	case reflect.Float32, reflect.Float64:
		return "a number"
	case reflect.Slice, reflect.Array:
		return "an array"
	default:
		return "an object"
	}
}

// spec assembles the job spec the options describe, for every submission
// shape. The spec still needs finishSpec against a concrete dataset.
func (o jobOptions) spec() (Spec, *apiError) {
	spec := Spec{
		Algorithm:       o.Algorithm,
		Algorithms:      o.Algorithms,
		Scorer:          o.Scorer,
		BootstrapRounds: o.BootstrapRounds,
		Params:          o.Params,
		NFolds:          o.Folds,
		Seed:            o.Seed,
		Matrix32:        o.Matrix32,
		Eps:             o.Eps,
		LabelFraction:   o.LabelFraction,
	}
	if o.ParamMin != 0 || o.ParamMax != 0 {
		if len(spec.Params) > 0 {
			return Spec{}, badRequest("invalid_request", `"params" and "param_min"/"param_max" are mutually exclusive`)
		}
		var apiErr *apiError
		if spec.Params, apiErr = paramRange(o.ParamMin, o.ParamMax); apiErr != nil {
			return Spec{}, apiErr
		}
	}
	for _, c := range o.Constraints {
		mustLink, err := constraints.ParseKind(c.Link)
		if err != nil {
			return Spec{}, badRequest("invalid_request", "constraints: %v", err)
		}
		spec.Constraints = append(spec.Constraints, ConstraintSpec{A: c.A, B: c.B, MustLink: mustLink})
	}
	return spec, nil
}

func parseMultipartSubmission(r *http.Request, maxBody int64) (Spec, *dataset.Dataset, *apiError) {
	if err := r.ParseMultipartForm(maxBody); err != nil {
		if apiErr := asSizeError(err); apiErr != nil {
			return Spec{}, nil, apiErr
		}
		return Spec{}, nil, badRequest("invalid_request", "malformed multipart body: %v", err)
	}
	file, _, err := r.FormFile("dataset")
	if err != nil {
		return Spec{}, nil, badRequest("invalid_request", `multipart submissions require a "dataset" file part: %v`, err)
	}
	defer file.Close()
	spec, hasLabel, name, apiErr := parseOptions(r.Form)
	if apiErr != nil {
		return Spec{}, nil, apiErr
	}
	ds, apiErr := parseCSV(name, file, hasLabel, maxBody)
	if apiErr != nil {
		return Spec{}, nil, apiErr
	}
	return finishSpec(spec, ds)
}

func parseRawSubmission(r *http.Request, maxBody int64) (Spec, *dataset.Dataset, *apiError) {
	spec, hasLabel, name, apiErr := parseOptions(r.URL.Query())
	if apiErr != nil {
		return Spec{}, nil, apiErr
	}
	ds, apiErr := parseCSV(name, r.Body, hasLabel, maxBody)
	if apiErr != nil {
		return Spec{}, nil, apiErr
	}
	return finishSpec(spec, ds)
}

// optionNames are the options a raw or multipart submission may carry:
// the jobOptions plus the dataset's name and has_label.
var optionNames = map[string]bool{
	"algorithm": true, "algorithms": true, "scorer": true, "bootstrap_rounds": true,
	"params": true, "param_min": true, "param_max": true, "folds": true, "seed": true,
	"matrix32": true, "eps": true, "label_fraction": true, "constraints": true,
	"name": true, "has_label": true,
}

// parseOptions decodes the option strings of a raw or multipart
// submission (URL query or form values) into the job options, and returns
// their spec with the dataset's has_label and name. Like a JSON
// submission's fields, an option it does not know is rejected, so a
// typoed one never runs the job with its default.
func parseOptions(vals url.Values) (spec Spec, hasLabel bool, name string, apiErr *apiError) {
	for _, k := range slices.Sorted(maps.Keys(vals)) {
		if !optionNames[k] {
			return Spec{}, false, "", badRequest("invalid_request", "unknown option %q", k)
		}
	}
	get := vals.Get
	var o jobOptions
	o.Algorithm = get("algorithm")
	if s := get("algorithms"); s != "" {
		for _, part := range strings.Split(s, ",") {
			if part = strings.TrimSpace(part); part != "" {
				o.Algorithms = append(o.Algorithms, part)
			}
		}
	}
	o.Scorer = get("scorer")
	intField := func(field string, dst *int) bool {
		s := get(field)
		if s == "" {
			return true
		}
		v, err := strconv.Atoi(s)
		if err != nil {
			apiErr = badRequest("invalid_request", "option %q: %v", field, err)
			return false
		}
		*dst = v
		return true
	}
	if !intField("folds", &o.Folds) || !intField("param_min", &o.ParamMin) || !intField("param_max", &o.ParamMax) ||
		!intField("bootstrap_rounds", &o.BootstrapRounds) {
		return Spec{}, false, "", apiErr
	}
	if s := get("seed"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Spec{}, false, "", badRequest("invalid_request", "option %q: %v", "seed", err)
		}
		o.Seed = v
	}
	if s := get("eps"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Spec{}, false, "", badRequest("invalid_request", "option %q: %v", "eps", err)
		}
		o.Eps = v
	}
	if s := get("label_fraction"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Spec{}, false, "", badRequest("invalid_request", "option %q: %v", "label_fraction", err)
		}
		o.LabelFraction = v
	}
	switch strings.ToLower(get("has_label")) {
	case "", "0", "false", "no":
	case "1", "true", "yes":
		hasLabel = true
	default:
		return Spec{}, false, "", badRequest("invalid_request", "option %q: want a boolean", "has_label")
	}
	switch strings.ToLower(get("matrix32")) {
	case "", "0", "false", "no":
	case "1", "true", "yes":
		o.Matrix32 = true
	default:
		return Spec{}, false, "", badRequest("invalid_request", "option %q: want a boolean", "matrix32")
	}
	if s := get("params"); s != "" {
		for _, part := range strings.Split(s, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return Spec{}, false, "", badRequest("invalid_request", "option %q: %v", "params", err)
			}
			o.Params = append(o.Params, v)
		}
	}
	if s := get("constraints"); s != "" {
		// The cmd/cvcp constraint-file format, one constraint per line.
		lines, err := constraints.ParseLines(s)
		if err != nil {
			return Spec{}, false, "", badRequest("invalid_request", "constraints: %v", err)
		}
		for _, c := range lines {
			link := "cl"
			if c.MustLink {
				link = "ml"
			}
			o.Constraints = append(o.Constraints, constraintJSON{A: c.A, B: c.B, Link: link})
		}
	}
	spec, apiErr = o.spec()
	return spec, hasLabel, get("name"), apiErr
}

// maxCandidates bounds the total candidate (algorithm, parameter) columns
// of one job's grid: each candidate costs a full cross-validation, so a
// larger grid is never a legitimate request — and an unchecked
// param_min/param_max span would let a tiny request allocate an enormous
// slice. For cross-method jobs the limit applies to the sum over all
// algorithms, including registry-default ranges.
const maxCandidates = 512

// maxBootstrapRounds bounds one job's bootstrap resampling: every round
// multiplies the grid like an extra fold, so an unchecked round count
// would let a single small request occupy the server indefinitely.
const maxBootstrapRounds = 512

func paramRange(lo, hi int) ([]int, *apiError) {
	if hi < lo {
		return nil, badRequest("invalid_request", "param_min %d exceeds param_max %d", lo, hi)
	}
	if hi-lo+1 > maxCandidates {
		return nil, badRequest("invalid_request", "parameter range %d..%d has %d candidates, limit %d", lo, hi, hi-lo+1, maxCandidates)
	}
	out := make([]int, 0, hi-lo+1)
	for p := lo; p <= hi; p++ {
		out = append(out, p)
	}
	return out, nil
}

// parseCSV parses the dataset payload, mapping an oversized input to a
// too_large error and any other failure to bad_csv.
func parseCSV(name string, r io.Reader, hasLabel bool, maxBody int64) (*dataset.Dataset, *apiError) {
	if name == "" {
		name = "upload"
	}
	ds, err := dataset.ReadCSVLimited(name, r, hasLabel, maxBody)
	if err != nil {
		if apiErr := asSizeError(err); apiErr != nil {
			return nil, apiErr
		}
		return nil, badRequest("bad_csv", "malformed CSV dataset: %v", err)
	}
	return ds, nil
}

// asSizeError maps body-limit violations (the HTTP server's MaxBytesReader
// or the dataset reader's own cap) to a structured 413.
func asSizeError(err error) *apiError {
	var mbe *http.MaxBytesError
	var se *dataset.SizeError
	if errors.As(err, &mbe) || errors.As(err, &se) {
		return &apiError{status: http.StatusRequestEntityTooLarge, Code: "too_large",
			Message: "request body exceeds the server's size limit"}
	}
	return nil
}

// finishSpec applies registry defaults and validates the assembled spec
// against the parsed dataset.
func finishSpec(spec Spec, ds *dataset.Dataset) (Spec, *dataset.Dataset, *apiError) {
	// gridColumns tallies the total candidate (algorithm, parameter)
	// columns the job will run, counting registry-default ranges where
	// Params is empty; the maxCandidates limit applies to this sum, so a
	// cross-method job cannot multiply the per-job budget by its
	// algorithm count.
	gridColumns := 0
	if len(spec.Algorithms) > 0 {
		// Cross-method job: every named method must exist; an empty Params
		// means each candidate keeps its own registry default range, so no
		// defaulting happens here.
		if spec.Algorithm != "" {
			return Spec{}, nil, badRequest("invalid_request", `"algorithm" and "algorithms" are mutually exclusive`)
		}
		seen := map[string]bool{}
		for _, name := range spec.Algorithms {
			entry, ok := lookupAlgorithm(name)
			if !ok {
				return Spec{}, nil, badRequest("invalid_request", "%v", errUnknownAlgorithm(name))
			}
			if seen[name] {
				return Spec{}, nil, badRequest("invalid_request", "duplicate algorithm %q in algorithms", name)
			}
			seen[name] = true
			if len(spec.Params) > 0 {
				gridColumns += len(spec.Params)
			} else {
				gridColumns += len(entry.defaultParams)
			}
		}
	} else {
		if spec.Algorithm == "" {
			spec.Algorithm = "fosc"
		}
		entry, ok := lookupAlgorithm(spec.Algorithm)
		if !ok {
			return Spec{}, nil, badRequest("invalid_request", "%v", errUnknownAlgorithm(spec.Algorithm))
		}
		if len(spec.Params) == 0 {
			spec.Params = append([]int(nil), entry.defaultParams...)
		}
		gridColumns = len(spec.Params)
	}
	if gridColumns > maxCandidates {
		return Spec{}, nil, badRequest("invalid_request", "%d candidate grid columns, limit %d", gridColumns, maxCandidates)
	}
	for _, p := range spec.Params {
		if p < 1 {
			return Spec{}, nil, badRequest("invalid_request", "candidate parameter %d: must be >= 1", p)
		}
	}
	if spec.Matrix32 && !gridHasFOSC(spec.methods()) {
		// Only FOSC carries an OPTICS distance matrix; accepting matrix32
		// on a grid without one would silently do nothing.
		return Spec{}, nil, badRequest("invalid_request", "matrix32 requires a fosc candidate in the grid")
	}
	if spec.Eps != 0 {
		if math.IsNaN(spec.Eps) || spec.Eps < 0 {
			return Spec{}, nil, badRequest("invalid_request", "eps %v: want a positive radius", spec.Eps)
		}
		if math.IsInf(spec.Eps, 1) {
			// ε=∞ is what the dense default already computes; make clients
			// say what they mean instead of paying the range-query path for
			// nothing (and keep the persisted spec JSON-representable).
			return Spec{}, nil, badRequest("invalid_request", "eps must be finite (omit it for the dense ε=∞ path)")
		}
		if !gridHasFOSC(spec.methods()) {
			// Eps only caps FOSC's OPTICS density estimation.
			return Spec{}, nil, badRequest("invalid_request", "eps requires a fosc candidate in the grid")
		}
		if spec.Matrix32 {
			return Spec{}, nil, badRequest("invalid_request", "eps and matrix32 are mutually exclusive (the ε-range driver computes distances on demand, not from a matrix)")
		}
	}
	if spec.NFolds < 0 {
		return Spec{}, nil, badRequest("invalid_request", "folds must be >= 0 (0 means the default)")
	}
	if _, err := corecvcp.ScorerByName(spec.Scorer, spec.BootstrapRounds); err != nil {
		return Spec{}, nil, badRequest("invalid_request", "%v", err)
	}
	if spec.BootstrapRounds < 0 {
		return Spec{}, nil, badRequest("invalid_request", "bootstrap_rounds must be >= 0 (0 means the default)")
	}
	if spec.BootstrapRounds > maxBootstrapRounds {
		return Spec{}, nil, badRequest("invalid_request", "%d bootstrap rounds, limit %d", spec.BootstrapRounds, maxBootstrapRounds)
	}
	if spec.BootstrapRounds > 0 && spec.Scorer != "bootstrap" {
		return Spec{}, nil, badRequest("invalid_request", `bootstrap_rounds requires scorer "bootstrap"`)
	}
	if spec.NFolds > 0 && spec.Scorer != "" && spec.Scorer != "cv" {
		// Bootstrap and validity scoring never cross-validate; accepting
		// folds here would silently ignore it, the exact failure mode the
		// strict option handling exists to prevent.
		return Spec{}, nil, badRequest("invalid_request", `folds applies only to the cross-validation scorer (scorer "cv")`)
	}
	hasLabels := spec.LabelFraction != 0
	hasCons := len(spec.Constraints) > 0
	if spec.DatasetID != "" {
		// Dataset-referencing jobs run the stable supervision, which only
		// cross-validates (no bootstrap resamples, no whole-dataset
		// validity scoring) and derives everything from label_fraction.
		if hasCons {
			return Spec{}, nil, badRequest("invalid_request", "dataset jobs use stable label supervision; constraints are not supported")
		}
		if !hasLabels {
			return Spec{}, nil, badRequest("invalid_request", "dataset jobs require label_fraction supervision")
		}
		if spec.Scorer != "" && spec.Scorer != "cv" {
			return Spec{}, nil, badRequest("invalid_request", `dataset jobs support only the cross-validation scorer (scorer "cv")`)
		}
		// The stable fold geometry needs every fold populated with at
		// least 4 rows (ds here is the resolved version's snapshot).
		folds := spec.NFolds
		if folds == 0 {
			folds = 10
		}
		if folds < 2 {
			return Spec{}, nil, badRequest("invalid_request", "dataset jobs need at least 2 folds")
		}
		if ds.N() < 4*folds {
			return Spec{}, nil, badRequest("invalid_request", "dataset version has %d rows, too few for %d stable folds of at least 4 rows", ds.N(), folds)
		}
	}
	if spec.Scorer == "bootstrap" && !hasLabels {
		return Spec{}, nil, badRequest("invalid_request", `scorer "bootstrap" requires label_fraction supervision`)
	}
	switch {
	case hasLabels && hasCons:
		return Spec{}, nil, badRequest("invalid_request", "label_fraction and constraints are mutually exclusive")
	case !hasLabels && !hasCons:
		return Spec{}, nil, badRequest("invalid_request", "supervision required: set label_fraction (Scenario I) or constraints (Scenario II)")
	case hasLabels:
		if !(spec.LabelFraction > 0 && spec.LabelFraction <= 1) {
			return Spec{}, nil, badRequest("invalid_request", "label_fraction %v: want a value in (0, 1]", spec.LabelFraction)
		}
		if !ds.Labeled() {
			return Spec{}, nil, badRequest("invalid_request", "label_fraction requires a labeled dataset (set has_label)")
		}
	default:
		for _, c := range spec.Constraints {
			if err := constraints.Raw(c).Check(ds.N()); err != nil {
				return Spec{}, nil, badRequest("invalid_request", "%v", err)
			}
		}
	}
	return spec, ds, nil
}
