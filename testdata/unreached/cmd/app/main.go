// Command app calls lib.Used; this comment names Unused, which does not count.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() { fmt.Println(lib.Used(), lib.T{}, lib.Small) }
