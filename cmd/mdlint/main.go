// Command mdlint is a dependency-free markdown link checker: it walks
// the repository's *.md files (root, docs/, examples/, bench/, and any
// other tracked directory), extracts inline links and code-span file
// references, and verifies that every relative link target exists on
// disk. External links (http/https/mailto) are not fetched — CI must
// not flake on the network — and pure fragments (#section) are skipped.
//
// In the documents that describe the tree as it is (nameChecked), every
// Benchmark…, Test… or Fuzz… identifier must also be a func in some .go
// file: a test or benchmark deleted or renamed without its mentions fails
// here. The histories (CHANGES.md, ROADMAP.md, docs/BENCH_HISTORY.md) name
// what existed when they were written and are exempt.
//
// It exists so the documentation pass cannot rot silently: a renamed
// file, section or test breaks the docs CI job, not a future reader.
//
//	go run ./cmd/mdlint [root]
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRe matches inline markdown links [text](target). Reference-style
// links are rare in this repo and intentionally out of scope.
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// nameRe matches a mention of a test, benchmark or fuzz target, with the
// "*" that makes it a prefix ("BenchmarkFlushDrain*"); funcRe matches the
// declaration of one.
var (
	nameRe = regexp.MustCompile(`\b(?:Benchmark|Test|Fuzz)[A-Z0-9]\w*\*?`)
	funcRe = regexp.MustCompile(`(?m)^func ((?:Benchmark|Test|Fuzz)\w*)\(`)
)

// nameChecked reports whether the document at rel (slash-separated, from
// the root) must only name tests and benchmarks that exist.
func nameChecked(rel string) bool {
	switch rel {
	case "README.md", "DESIGN.md", "bench/README.md", "examples/README.md":
		return true
	case "docs/BENCH_HISTORY.md":
		return false
	}
	return strings.HasPrefix(rel, "docs/")
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	broken := 0
	type doc struct {
		path string
		data []byte
	}
	var named []doc            // documents whose test names are checked
	funcs := map[string]bool{} // every Benchmark/Test/Fuzz func in the tree
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// Skip VCS internals and build droppings.
			if name == ".git" || name == "testdata" || name == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		isDoc, isTest := strings.HasSuffix(name, ".md"), strings.HasSuffix(name, "_test.go")
		if !isDoc && !isTest {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if isTest {
			for _, m := range funcRe.FindAllSubmatch(data, -1) {
				funcs[string(m[1])] = true
			}
			return nil
		}
		broken += checkFile(p, data)
		if rel, err := filepath.Rel(root, p); err == nil && nameChecked(filepath.ToSlash(rel)) {
			named = append(named, doc{p, data})
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdlint:", err)
		os.Exit(2)
	}
	for _, d := range named {
		broken += checkNames(d.path, d.data, funcs)
	}
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "mdlint: %d broken link(s) or name(s)\n", broken)
		os.Exit(1)
	}
}

// checkNames reports the number of test, benchmark and fuzz-target names in
// one document that no func in the tree carries. A name followed by "*", or
// on a line with a -run/-bench/-fuzz flag (an unanchored pattern), need
// only be the prefix of one.
func checkNames(path string, data []byte, funcs map[string]bool) int {
	hasPrefix := func(prefix string) bool {
		for f := range funcs {
			if strings.HasPrefix(f, prefix) {
				return true
			}
		}
		return false
	}
	missing := 0
	for i, line := range strings.Split(string(data), "\n") {
		pattern := strings.Contains(line, " -run") || strings.Contains(line, " -bench") || strings.Contains(line, " -fuzz")
		for _, name := range nameRe.FindAllString(line, -1) {
			prefix := strings.TrimSuffix(name, "*")
			if funcs[prefix] || ((pattern || prefix != name) && hasPrefix(prefix)) {
				continue
			}
			fmt.Printf("%s:%d: no func %s in the tree\n", path, i+1, name)
			missing++
		}
	}
	return missing
}

// checkFile reports the number of broken relative links in one file.
func checkFile(path string, data []byte) int {
	broken := 0
	dir := filepath.Dir(path)
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue // external: not fetched
			case strings.HasPrefix(target, "#"):
				continue // in-page fragment
			}
			// Strip a trailing fragment from a file link.
			file, _, _ := strings.Cut(target, "#")
			if file == "" {
				continue
			}
			resolved := filepath.Join(dir, file)
			if _, err := os.Stat(resolved); err != nil {
				fmt.Printf("%s:%d: broken link: %s (resolved %s)\n", path, i+1, target, resolved)
				broken++
			}
		}
	}
	return broken
}
