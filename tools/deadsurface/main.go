// Command deadsurface fails when an exported identifier has no product
// caller.
//
// It type-checks every package of the module from source (stdlib only:
// go list, go/parser, go/types) and reports each exported identifier,
// method and struct field that is declared outside the harness packages
// and has no non-test reference from a non-harness package. A
// reference from the declaring package counts. The harness packages
// are internal/expt, internal/chaos, internal/sim, cmd/ffdl-bench,
// bench, examples and tools.
//
// Exempt: the module's root package (the library's public API) and the
// methods and fields of every type it re-exports as an alias; interface
// methods; and methods that satisfy an interface.
//
// An identifier only a harness needs is listed in the allowlist, one
// per line: the identifier, then a note naming the harness package or
// file that needs it. An entry that is not declared, that has a product
// caller, or whose note names no harness that uses it fails too.
//
// Usage, from the module root:
//
//	go run ./tools/deadsurface
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// harness lists the module-relative package paths whose references do
// not count as product callers, and whose declarations are not checked.
var harness = []string{"internal/expt", "internal/chaos", "internal/sim", "cmd/ffdl-bench", "bench", "examples", "tools"}

func main() {
	report, err := check(".", "tools/deadsurface/allow.txt")
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadsurface:", err)
		os.Exit(2)
	}
	for _, line := range report {
		fmt.Println(line)
	}
	if len(report) > 0 {
		fmt.Fprintf(os.Stderr, "deadsurface: %d problem(s)\n", len(report))
		os.Exit(1)
	}
}

// listed is the part of `go list -json` output the check reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Module     *struct{ Path, Dir string }
}

// pkg is one type-checked package of the module.
type pkg struct {
	listed
	rel     string // module-relative path; "" for the root package
	harness bool
	files   []*ast.File
	types   *types.Package
	info    *types.Info
}

// loader type-checks module packages from source on demand, so every
// package sees the same objects for the packages it imports.
type loader struct {
	fset   *token.FileSet
	pkgs   map[string]*pkg
	std    types.Importer
	errors []error
}

func (l *loader) Import(path string) (*types.Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		return l.std.Import(path)
	}
	if p.types == nil {
		p.info = &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		conf := types.Config{Importer: l, Error: func(err error) { l.errors = append(l.errors, err) }}
		p.types, _ = conf.Check(path, l.fset, p.files, p.info)
	}
	return p.types, nil
}

// entry is one allowlist line.
type entry struct {
	line       int
	name, note string
}

// use records who references one declared object.
type use struct {
	product bool
	harness map[string]bool // module-relative harness package paths
}

func check(dir, allowPath string) ([]string, error) {
	pkgs, modDir, err := goList(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{fset: fset, pkgs: map[string]*pkg{}, std: importer.ForCompiler(fset, "source", nil)}
	for _, p := range pkgs {
		for _, f := range p.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(p.Dir, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, af)
		}
		l.pkgs[p.ImportPath] = p
	}
	for _, p := range pkgs {
		l.Import(p.ImportPath) //nolint:errcheck // module packages always load; type errors collect in l.errors
	}
	if len(l.errors) > 0 {
		return nil, fmt.Errorf("type-check: %v", l.errors[0])
	}

	// The surface: exported declarations of non-harness, non-root
	// packages, keyed by their report name.
	surface := map[string]types.Object{}
	names := map[types.Object]string{}
	exempt := aliasedMembers(pkgs)
	ifaces := interfaces(pkgs)
	for _, p := range pkgs {
		if p.harness || p.rel == "" {
			continue
		}
		add := func(name string, obj types.Object) {
			if obj.Exported() && !exempt[obj] {
				surface[name] = obj
				names[obj] = name
			}
		}
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			add(p.rel+"."+n, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); !satisfies(named, m.Name(), ifaces) {
					add(p.rel+"."+n+"."+m.Name(), m)
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); !f.Embedded() {
						add(p.rel+"."+n+"."+f.Name(), f)
					}
				}
			}
		}
	}

	uses := map[types.Object]*use{}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			obj = origin(obj)
			if _, ok := names[obj]; !ok {
				continue
			}
			u := uses[obj]
			if u == nil {
				u = &use{harness: map[string]bool{}}
				uses[obj] = u
			}
			if p.harness {
				u.harness[p.rel] = true
			} else {
				u.product = true
			}
		}
	}

	allow, err := readAllow(filepath.Join(modDir, allowPath))
	if err != nil {
		return nil, err
	}
	allowed := map[string]bool{}
	var report []string
	stale := func(e entry, why string) {
		report = append(report, fmt.Sprintf("%s:%d: %s: stale entry: %s", filepath.Base(allowPath), e.line, e.name, why))
	}
	for _, e := range allow {
		obj, ok := surface[e.name]
		if !ok {
			stale(e, "not a checked identifier")
			continue
		}
		allowed[e.name] = true
		u := uses[obj]
		if u == nil {
			u = &use{}
		}
		switch {
		case u.product:
			stale(e, "has a product caller")
		case len(u.harness) == 0:
			stale(e, "no caller")
		case !notesHarness(e.note, u.harness):
			stale(e, "the note names no harness that uses it")
		}
	}
	for name, obj := range surface {
		u := uses[obj]
		if allowed[name] || (u != nil && u.product) {
			continue
		}
		pos := fset.Position(obj.Pos())
		file, _ := filepath.Rel(modDir, pos.Filename)
		if u == nil {
			report = append(report, fmt.Sprintf("%s:%d: %s: no caller", file, pos.Line, name))
			continue
		}
		report = append(report, fmt.Sprintf("%s:%d: %s: only harness callers (%s); delete it or add it to %s",
			file, pos.Line, name, strings.Join(sortedKeys(u.harness), ", "), filepath.Base(allowPath)))
	}
	sort.Strings(report)
	return report, nil
}

// goList loads the module's packages (non-test files only).
func goList(dir string) ([]*pkg, string, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, "", fmt.Errorf("go list: %v", err)
	}
	var pkgs []*pkg
	var modPath, modDir string
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := &pkg{}
		if err := dec.Decode(&p.listed); err != nil {
			return nil, "", fmt.Errorf("go list: %v", err)
		}
		if p.Module == nil {
			return nil, "", fmt.Errorf("go list: %s is not in a module", p.ImportPath)
		}
		modPath, modDir = p.Module.Path, p.Module.Dir
		p.rel = strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, modPath), "/")
		for _, h := range harness {
			if p.rel == h || strings.HasPrefix(p.rel, h+"/") {
				p.harness = true
			}
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, modDir, nil
}

// aliasedMembers returns the methods and fields of every type the root
// package re-exports as an alias: they are the library's public API.
func aliasedMembers(pkgs []*pkg) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, p := range pkgs {
		if p.rel != "" {
			continue
		}
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || !tn.IsAlias() {
				continue
			}
			named, ok := types.Unalias(tn.Type()).(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				out[named.Method(i)] = true
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					out[st.Field(i)] = true
				}
			}
		}
	}
	return out
}

// interfaces collects every non-empty interface the module mentions:
// those written in its code (anonymous literals included) and those
// declared by any package it imports, standard library included.
func interfaces(pkgs []*pkg) []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Interface]bool{}
	note := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if visited[tp] {
			return
		}
		visited[tp] = true
		for _, n := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(n).(*types.TypeName); ok {
				note(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				note(tv.Type)
			}
		}
	}
	return out
}

// satisfies reports whether method name of named helps named (or a
// pointer to it) implement some interface.
func satisfies(named *types.Named, name string, ifaces []*types.Interface) bool {
	// The errors package finds these through interfaces it declares
	// inside function bodies, out of any package scope.
	if name == "Unwrap" || name == "Is" || name == "As" {
		errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
		if types.Implements(named, errIface) || types.Implements(types.NewPointer(named), errIface) {
			return true
		}
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name &&
				(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

// origin maps an instantiated generic method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// notesHarness reports whether an allowlist note names one of the
// harness packages (or a file in one) that use the identifier: some
// path-like token of the note is the package or lies under it.
func notesHarness(note string, used map[string]bool) bool {
	tokens := strings.FieldsFunc(note, func(r rune) bool {
		return strings.ContainsRune(" \t,;:()", r)
	})
	for _, tok := range tokens {
		for rel := range used {
			if tok == rel || strings.HasPrefix(tok, rel+"/") {
				return true
			}
		}
	}
	return false
}

// readAllow parses the allowlist: "ident note...", with blank lines
// and #-comments skipped.
func readAllow(path string) ([]entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []entry
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e := entry{line: n}
		e.name, e.note, _ = strings.Cut(line, " ")
		e.note = strings.TrimSpace(e.note)
		out = append(out, e)
	}
	return out, sc.Err()
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
