// Package lib holds one case of each rule the check applies.
package lib

// Dead has no caller at all.
func Dead() {}

// HarnessOnly is called only by a harness and is not allowlisted.
func HarnessOnly() {}

// HarnessAllowed is called only by a harness and is allowlisted.
func HarnessAllowed() {}

// Used has a product caller, so its allowlist entry is stale.
func Used() {}

// Misnoted is called only by a harness, and its allowlist note names
// a path that merely starts with that harness's name.
func Misnoted() {}

// Classed is classified through an anonymous interface literal only.
type Classed struct{}

// Class is called only through ClassOf's interface assertion.
func (Classed) Class() int { return 1 }

// ClassOf returns v's class, or 0 when v has none.
func ClassOf(v any) int {
	if c, ok := v.(interface{ Class() int }); ok {
		return c.Class()
	}
	return 0
}

// Thing is re-exported by the root package.
type Thing struct {
	// Field is reachable through the alias.
	Field int
}

// Reach is reachable through the alias.
func (Thing) Reach() {}
