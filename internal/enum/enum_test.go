package enum

import (
	"fmt"
	"strings"
	"testing"
)

// Three enumerations shaped like the repo's: zero-based int, one-based
// uint8 (the zero value invalid, as wire.Op), and int32 (as fault.Mode).
type (
	colour int
	op     uint8
	mode   int32
)

const (
	red colour = iota
	green
	blue
	colourEnd
)

const (
	opGet op = iota + 1
	opPut
	opEnd
)

const (
	modeOnly mode = iota
	modeEnd
)

// roundTrip checks one table: every constant renders as its name and
// parses back, All lists the constants in order, values on either side of
// the table are invalid and render as "T(n)", and an unknown name is
// refused with the rendered list.
func roundTrip[T integer](t *testing.T, n *Names[T], first T, typ, list string, names ...string) {
	t.Helper()
	for i, name := range names {
		v := first + T(i)
		if got := n.String(v); got != name || !n.Valid(v) {
			t.Errorf("%s(%d): String = %q, Valid = %v; want %q, true", typ, int(v), got, n.Valid(v), name)
		}
		if got, err := n.Parse("test: unknown thing", name); err != nil || got != v {
			t.Errorf("Parse(%q) = %v, %v; want %d", name, got, err, int(v))
		}
	}
	if all := n.All(); len(all) != len(names) {
		t.Errorf("All() = %v, want %d constants", all, len(names))
	} else {
		for i, v := range all {
			if v != first+T(i) {
				t.Errorf("All()[%d] = %d, want %d", i, int(v), int(first)+i)
			}
		}
	}
	end := first + T(len(names))
	if got, want := n.String(end), fmt.Sprintf("%s(%d)", typ, int(end)); got != want || n.Valid(end) {
		t.Errorf("past the table: String = %q, Valid = %v; want %q, false", got, n.Valid(end), want)
	}
	if first > 0 {
		if got, want := n.String(first-1), fmt.Sprintf("%s(%d)", typ, int(first)-1); got != want || n.Valid(first-1) {
			t.Errorf("before the table: String = %q, Valid = %v; want %q, false", got, n.Valid(first-1), want)
		}
	}
	if n.List() != list {
		t.Errorf("List = %q, want %q", n.List(), list)
	}
	_, err := n.Parse("test: unknown thing", "nope")
	if want := `test: unknown thing "nope" (want ` + list + `)`; err == nil || err.Error() != want {
		t.Errorf("Parse(nope) error = %v, want %s", err, want)
	}
	if _, err := n.Parse("test: unknown thing", ""); err == nil {
		t.Error("Parse accepted the empty name")
	}
}

func TestNames(t *testing.T) {
	roundTrip(t, New(red, colourEnd, "red", "green", "blue"), red, "colour", "red, green or blue", "red", "green", "blue")
	roundTrip(t, New(opGet, opEnd, "get", "put"), opGet, "op", "get or put", "get", "put")
	roundTrip(t, New(modeOnly, modeEnd, "only"), modeOnly, "mode", "only", "only")
	if got := New(red, colourEnd, "red", "green", "blue").String(-1); got != "colour(-1)" {
		t.Errorf("negative value renders %q", got)
	}
}

// TestNewPanics: a table that does not name every constant exactly once
// must not survive package init.
func TestNewPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func()
		want  string
	}{
		{"missing name", func() { New(red, colourEnd, "red", "green") }, "colour has 3 constants and 2 names"},
		{"surplus name", func() { New(red, colourEnd, "red", "green", "blue", "mauve") }, "colour has 3 constants and 4 names"},
		{"one-based missing", func() { New(opGet, opEnd, "get") }, "op has 2 constants and 1 names"},
		{"empty name", func() { New(red, colourEnd, "red", "", "blue") }, `empty or repeated name ""`},
		{"repeated name", func() { New(red, colourEnd, "red", "green", "red") }, `empty or repeated name "red"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Errorf("panic = %q, want it to mention %q", msg, tc.want)
				}
			}()
			tc.build()
		})
	}
}

// TestUnmarshalText: the codec helper stores a parsed value and leaves the
// destination alone on error.
func TestUnmarshalText(t *testing.T) {
	names := New(red, colourEnd, "red", "green", "blue")
	parse := func(s string) (colour, error) { return names.Parse("test: unknown colour", s) }
	c := green
	if err := UnmarshalText(&c, []byte("blue"), parse); err != nil || c != blue {
		t.Fatalf("UnmarshalText(blue) = %v, %v", c, err)
	}
	if err := UnmarshalText(&c, []byte("mauve"), parse); err == nil || c != blue {
		t.Fatalf("UnmarshalText(mauve) = %v, %v; want an error and the value untouched", c, err)
	}
}
