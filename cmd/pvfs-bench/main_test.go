package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// untunedFlags lists the flags that need no docs/TUNING.md row, each with
// why.
var untunedFlags = map[string]string{
	"mgr":  "wiring: an external cluster's address (TUNING.md's preamble)",
	"iods": "wiring: an external cluster's addresses",

	"chaos":    "the -chaos reproducer; docs/TESTING.md catalogues it",
	"scenario": "-chaos reproducer",
	"fault":    "-chaos reproducer",
	"gc":       "-chaos reproducer",
	"tcp":      "-chaos reproducer",
	"clients":  "-chaos reproducer",
	"nodes":    "-chaos reproducer",
	"ops":      "-chaos reproducer",
	"filesize": "-chaos reproducer",
	"maxio":    "-chaos reproducer",
	"tracedir": "-chaos reproducer",
}

var flagName = regexp.MustCompile("`-([a-z]+)`")

// TestFlagsMatchTuningGuide keeps the flags and docs/TUNING.md from
// drifting: every registered flag outside untunedFlags has a row naming
// it, and every flag a row names is registered. A Where cell only ever
// names pvfs-bench flags; a Knob cell does when its Where cell says
// pvfs-bench (other rows name other commands' flags there).
func TestFlagsMatchTuningGuide(t *testing.T) {
	raw, err := os.ReadFile("../../docs/TUNING.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.HasPrefix(line, "| `") {
			continue // not a knob row
		}
		named := flagName.FindAllStringSubmatch(cells[2], -1)
		if strings.Contains(cells[2], "`pvfs-bench`") {
			named = append(named, flagName.FindAllStringSubmatch(cells[1], -1)...)
		}
		for _, m := range named {
			if flag.Lookup(m[1]) == nil {
				t.Errorf("TUNING.md row %q names -%s, which pvfs-bench does not register", strings.TrimSpace(cells[1]), m[1])
			}
			documented[m[1]] = true
		}
	}
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return // go test's own flags
		}
		if _, ok := untunedFlags[f.Name]; !ok && !documented[f.Name] {
			t.Errorf("-%s has no docs/TUNING.md row (add one, or list it in untunedFlags with a reason)", f.Name)
		}
	})
	for name := range untunedFlags {
		if flag.Lookup(name) == nil {
			t.Errorf("untunedFlags lists -%s, which pvfs-bench does not register", name)
		}
	}
}
