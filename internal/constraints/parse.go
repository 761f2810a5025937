package constraints

import (
	"fmt"
	"strings"
)

// Raw is one constraint as a user wrote it: endpoints in the order given,
// not yet checked against a dataset.
type Raw struct {
	A, B     int
	MustLink bool
}

// ParseKind maps a constraint kind onto its sense, ignoring case: "ml",
// "must", "mustlink" and "must-link" name a must-link; "cl", "cannot",
// "cannotlink" and "cannot-link" a cannot-link.
func ParseKind(kind string) (mustLink bool, err error) {
	switch strings.ToLower(kind) {
	case "ml", "must", "mustlink", "must-link":
		return true, nil
	case "cl", "cannot", "cannotlink", "cannot-link":
		return false, nil
	default:
		return false, fmt.Errorf("unknown constraint kind %q (want ml or cl)", kind)
	}
}

// ParseLines parses the constraint-file format: one constraint per line,
// "<a> <b> <kind>" with zero-based object indices and a kind ParseKind
// accepts; blank lines and lines starting with '#' are skipped. It checks
// the syntax only: Check tests the indices against a dataset.
func ParseLines(text string) ([]Raw, error) {
	var out []Raw
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var r Raw
		var kind string
		if _, err := fmt.Sscanf(line, "%d %d %s", &r.A, &r.B, &kind); err != nil {
			return nil, fmt.Errorf("line %d: %q: %w", ln+1, line, err)
		}
		var err error
		if r.MustLink, err = ParseKind(kind); err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Check reports why r cannot constrain an n-object dataset: an endpoint
// outside [0, n), or the same object twice.
func (r Raw) Check(n int) error {
	if r.A < 0 || r.A >= n || r.B < 0 || r.B >= n {
		return fmt.Errorf("constraint (%d, %d): object index out of range [0, %d)", r.A, r.B, n)
	}
	if r.A == r.B {
		return fmt.Errorf("constraint (%d, %d): a pair needs two distinct objects", r.A, r.B)
	}
	return nil
}
