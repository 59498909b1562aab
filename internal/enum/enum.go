// Package enum holds the names of an enumeration as data. An enumeration
// here is a run of consecutive integer constants (an iota block); its
// names are declared once, beside the constants, and String, Parse, the
// text codec and every "want a, b or c" message read that one table.
//
// Exhaustiveness lives in the declaration: New is given the first constant
// and an unexported sentinel that closes the iota block, and panics unless
// there is exactly one name per constant between them. A constant appended
// without a name, or a name without a constant, therefore fails the owning
// package at init — `go test` of that package catches it.
package enum

import (
	"fmt"
	"reflect"
	"strings"
)

// integer is the underlying types the repo's enumerations use.
type integer interface{ ~int | ~int32 | ~uint8 }

// Names is the name table of the enumeration T.
type Names[T integer] struct {
	typ   string // T's name, for the "T(n)" form of a value outside the table
	first T
	names []string
	list  string
}

// New declares names, in constant order, for the constants first ..
// end-1. It panics if the count differs from end-first or if a name is
// empty or repeated: a malformed table is a bug in the declaring package.
func New[T integer](first, end T, names ...string) *Names[T] {
	typ := reflect.TypeFor[T]().Name()
	if len(names) != int(end)-int(first) {
		panic(fmt.Sprintf("enum: %s has %d constants and %d names", typ, int(end)-int(first), len(names)))
	}
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if name == "" || seen[name] {
			panic(fmt.Sprintf("enum: %s has an empty or repeated name %q", typ, name))
		}
		seen[name] = true
	}
	return &Names[T]{typ: typ, first: first, names: names, list: list(names)}
}

// Valid reports whether v is one of the enumeration's constants.
func (n *Names[T]) Valid(v T) bool {
	return v >= n.first && int(v)-int(n.first) < len(n.names)
}

// String returns v's name, or "T(n)" for a value outside the table.
func (n *Names[T]) String(v T) string {
	if !n.Valid(v) {
		return fmt.Sprintf("%s(%d)", n.typ, int64(v))
	}
	return n.names[int(v)-int(n.first)]
}

// Parse is the inverse of String over the table. what opens the error for
// a name that is not in it, which reads `<what> "<s>" (want a, b or c)`.
func (n *Names[T]) Parse(what, s string) (T, error) {
	for i, name := range n.names {
		if name == s {
			return n.first + T(i), nil
		}
	}
	return 0, fmt.Errorf("%s %q (want %s)", what, s, n.list)
}

// All returns the constants in order.
func (n *Names[T]) All() []T {
	all := make([]T, len(n.names))
	for i := range all {
		all[i] = n.first + T(i)
	}
	return all
}

// List returns the names as prose: "a", "a or b", "a, b or c".
func (n *Names[T]) List() string { return n.list }

func list(names []string) string {
	if len(names) < 2 {
		return strings.Join(names, "")
	}
	last := len(names) - 1
	return strings.Join(names[:last], ", ") + " or " + names[last]
}

// UnmarshalText is the body of an enumeration's encoding.TextUnmarshaler:
// it stores parse(text) in *dst and leaves *dst alone on error.
func UnmarshalText[T any](dst *T, text []byte, parse func(string) (T, error)) error {
	v, err := parse(string(text))
	if err != nil {
		return err
	}
	*dst = v
	return nil
}
