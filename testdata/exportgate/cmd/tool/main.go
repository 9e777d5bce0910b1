// Command tool is the fixture's shipped code, where the walk starts.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var s lib.Store = lib.Mem{}
	fmt.Println(s.Get("k"))
	fmt.Println(&lib.Counter{})
	lib.Drain(lib.Mem{})
}
