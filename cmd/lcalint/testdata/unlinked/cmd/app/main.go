// Command app is the fixture's binary: it links lib.Used and its own
// helper, and nothing else of lib.
package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	fmt.Println(greeting(), lib.Used())
}

// greeting is a main-package helper the binary links.
func greeting() string { return "used" }
