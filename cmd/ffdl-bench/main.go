// Command ffdl-bench runs the experiment registry (internal/expt):
// every table and figure of the paper's evaluation (§5) plus the repo's
// own experiments and CI gates, one row each.
//
// Usage:
//
//	ffdl-bench -list                 # one line per row: name, description
//	ffdl-bench                       # every row at full size
//	ffdl-bench table1 fig4           # named rows only
//	ffdl-bench -smoke -out . sched   # smoke size; writes ./bench-sched.json
//
// Every requested row runs and writes its JSON before a failed row — a
// broken gate, or a row that could not run — makes the exit status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/ffdl/ffdl/internal/expt"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed")
	smoke := flag.Bool("smoke", false, "run each row at its smoke size (what make expt-smoke and CI run)")
	out := flag.String("out", "", "write bench-<name>.json for each row into this directory")
	verbose := flag.Bool("v", false, "stream progress lines from rows that report them to stderr")
	list := flag.Bool("list", false, "print the registry, one row per line, and exit")
	flag.Parse()

	registry := expt.Registry()
	if *list {
		for _, e := range registry {
			fmt.Printf("%s\t%s\n", e.Name, e.Desc)
		}
		return
	}
	rows := registry
	if flag.NArg() > 0 {
		byName := make(map[string]expt.Experiment, len(registry))
		for _, e := range registry {
			byName[e.Name] = e
		}
		rows = nil
		for _, name := range flag.Args() {
			e, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "ffdl-bench: no experiment %q (see ffdl-bench -list)\n", name)
				os.Exit(2)
			}
			rows = append(rows, e)
		}
	}

	var failed []string
	for _, e := range rows {
		opts := expt.Options{Seed: *seed}
		if *verbose {
			opts.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "ffdl-bench: %s: "+format+"\n", append([]any{e.Name}, args...)...)
			}
		}
		result, table, gate := e.Run(*smoke, opts)
		if table != nil {
			fmt.Println(table.String())
		}
		if *out != "" {
			gate = errors.Join(gate, writeJSON(*out, e.Name, *smoke, *seed, result))
		}
		if gate != nil {
			fmt.Fprintf(os.Stderr, "ffdl-bench: %s FAILED: %v\n", e.Name, gate)
			failed = append(failed, e.Name)
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "ffdl-bench: FAILED: %s\n", strings.Join(failed, " "))
		os.Exit(1)
	}
}

// writeJSON writes one row's result to <dir>/bench-<name>.json.
func writeJSON(dir, name string, smoke bool, seed int64, result any) error {
	buf, err := json.MarshalIndent(map[string]any{
		"name": name, "smoke": smoke, "seed": seed, "result": result,
	}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "bench-"+name+".json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
