// Command tool is a binary of a module nested in the fixture, as
// servebench is in the repository: it links lib.ToolOnly.
package main

import (
	"fmt"

	"fixture/lib"
)

func main() { fmt.Println(lib.ToolOnly()) }
