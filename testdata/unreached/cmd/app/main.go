// Command app calls lib.Used; this comment names Unused, which does not count.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	fmt.Println(lib.Used(), lib.T{}, lib.Small)

	c := lib.Config{Keyed: 1}
	c.Deep.Leaf = 2
	p := &c.Addr
	*p = 3
	copy(c.Copied[:], []int{4, 5})
	g := append(c.Grown[:0], 6)
	c.Count++
	c.Clock.Tick()
	fmt.Println(c, g, lib.Point{7, 8}, []lib.Span{{9, 10}}, lib.Path{{11, 12}})
}
