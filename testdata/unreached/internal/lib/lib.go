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

// Config's fields are each written by one form of write in cmd/app;
// only the test writes Idle.
type Config struct {
	Keyed  int    // a key in a composite literal
	Deep   Node   // the head of an assigned selector chain
	Addr   int    // the operand of &
	Copied [2]int // the destination of copy
	Grown  []int  // the destination of append
	Count  int    // the operand of ++
	Clock  Ticker // the receiver of a method call
	Idle   int
}

// Node's Leaf is the tail of an assigned selector chain.
type Node struct{ Leaf int }

// Ticker counts its ticks.
type Ticker struct{ n int }

// Tick advances the ticker.
func (t *Ticker) Tick() { t.n++ }

// Point is written by a literal without keys, Span by an elided one in
// a slice literal, and Step by an elided one in a Path literal.
type (
	Point struct{ X, Y int }
	Span  struct{ Lo, Hi int }
	Step  struct{ Dx, Dy int }
	Path  []Step
)
