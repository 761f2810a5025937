package constraints

import (
	"reflect"
	"testing"
)

func TestParseLines(t *testing.T) {
	got, err := ParseLines("# comment\n0 1 ml\n\n  2 3 CL  \r\n4 5 must-link\n6 7 cannot\n8 9 MustLink\n10 11 cannotlink\n12 13 must\n14 15 cannot-link")
	if err != nil {
		t.Fatal(err)
	}
	want := []Raw{{0, 1, true}, {2, 3, false}, {4, 5, true}, {6, 7, false}, {8, 9, true}, {10, 11, false}, {12, 13, true}, {14, 15, false}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if got, err := ParseLines(""); err != nil || len(got) != 0 {
		t.Errorf("empty text: %v, %v", got, err)
	}
	for _, c := range []struct{ text, msg string }{
		{"0 1 ml\n2 3 maybe", `line 2: unknown constraint kind "maybe" (want ml or cl)`},
		{"0 x ml", `line 1: "0 x ml": expected integer`},
		{"0 1", `line 1: "0 1": EOF`},
	} {
		if _, err := ParseLines(c.text); err == nil || err.Error() != c.msg {
			t.Errorf("ParseLines(%q) error %v, want %q", c.text, err, c.msg)
		}
	}
}

func TestRawCheck(t *testing.T) {
	for _, c := range []struct {
		r    Raw
		want string
	}{
		{Raw{0, 9, true}, ""},
		{Raw{9, 0, false}, ""},
		{Raw{0, 10, true}, "constraint (0, 10): object index out of range [0, 10)"},
		{Raw{-1, 8, false}, "constraint (-1, 8): object index out of range [0, 10)"},
		{Raw{7, 7, true}, "constraint (7, 7): a pair needs two distinct objects"},
		{Raw{10, 10, true}, "constraint (10, 10): object index out of range [0, 10)"},
	} {
		err := c.r.Check(10)
		if (err == nil) != (c.want == "") || (err != nil && err.Error() != c.want) {
			t.Errorf("%v.Check(10) = %v, want %q", c.r, err, c.want)
		}
	}
}
