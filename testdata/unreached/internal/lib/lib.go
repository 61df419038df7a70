// Package lib is a fixture for the unreached-export scan.
package lib

// Unused is exported and nothing but a test calls it.
func Unused() int { return 1 }

// Used is exported and cmd/app calls it.
func Used() int { return 2 }

// T is printed through fmt.Stringer.
type T struct{}

// String is an interface method: reached with no identifier naming it.
func (T) String() string { return "t" }

// Sizes: cmd/app reads Small; only the test reads Large.
const (
	Small = iota
	Large
)

// Spare is exported and only the test reads it.
var Spare = 4

// Shape is exported and only the test names it.
type Shape struct{}
