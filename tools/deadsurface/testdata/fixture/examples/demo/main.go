// Command demo is a harness: its calls do not count as product callers.
package main

import "example.com/fixture/internal/lib"

func main() {
	lib.HarnessOnly()
	lib.HarnessAllowed()
	lib.Misnoted()
}
