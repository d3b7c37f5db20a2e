// Package fixture is the root package: the library's public API.
package fixture

import "example.com/fixture/internal/lib"

// Thing re-exports lib.Thing; its methods and fields are public API.
type Thing = lib.Thing

// Run is the product caller of lib's live surface.
func Run() int {
	lib.Used()
	return lib.ClassOf(lib.Classed{})
}
