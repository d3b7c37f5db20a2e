package main

import (
	"strings"
	"testing"
)

// TestFixtureReport runs the check over testdata/fixture, a module that
// holds one case of each rule, and pins the exact report: a dead
// function, a harness-only function without an allowlist entry, and
// three stale entries (undeclared, now with a product caller, and a
// note naming a path that only starts with the harness's name). The
// allowlisted harness-only function, the method called only through an
// anonymous interface literal and the members reachable through a
// root-package alias are not reported.
func TestFixtureReport(t *testing.T) {
	got, err := check("testdata/fixture", "allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"allow.txt:3: internal/lib.Gone: stale entry: not a checked identifier",
		"allow.txt:4: internal/lib.Used: stale entry: has a product caller",
		"allow.txt:5: internal/lib.Misnoted: stale entry: the note names no harness that uses it",
		"internal/lib/lib.go:5: internal/lib.Dead: no caller",
		"internal/lib/lib.go:8: internal/lib.HarnessOnly: only harness callers (examples/demo); delete it or add it to allow.txt",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("report:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestMissingAllowlistFails pins that a deleted allowlist is an error,
// not an empty list.
func TestMissingAllowlistFails(t *testing.T) {
	if _, err := check("testdata/fixture", "missing.txt"); err == nil {
		t.Fatal("check with a missing allowlist returned no error")
	}
}
