package cluster

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pvfscache/internal/cachemod"
	"pvfscache/internal/cachemod/buffer"
)

// tuningWiring lists the exported Config fields that are wiring, not
// tuning knobs — addresses, identity, sinks, sub-structs, test seams —
// and so need no docs/TUNING.md row (the guide's preamble names them).
var tuningWiring = map[string]bool{
	"cachemod.Config.Network":      true,
	"cachemod.Config.ClientID":     true,
	"cachemod.Config.IODDataAddrs": true,
	"cachemod.Config.Buffer":       true, // its fields are buffer.Config's rows
	"cachemod.Config.GlobalCache":  true,
	"cachemod.Config.Registry":     true,
	"buffer.Config.Registry":       true,
	"cluster.Config.Network":       true,
	"cluster.Config.NodeNetwork":   true,
	"cluster.Config.Module":        true, // its fields are cachemod.Config's rows
	"cluster.Config.Registry":      true,
}

// sharedWithModule lists the only field names cluster.Config may share with
// cachemod.Config or buffer.Config, each with why the cluster spells it.
var sharedWithModule = map[string]string{
	"Network":     "the cluster's fabric; each module gets its node's view of it",
	"Registry":    "one registry for every daemon, not only the modules",
	"GlobalCache": "a bool at cluster level; the module's is the membership wiring built from it",
	"FlushPeriod": "pvfsperf's workloads spell it at cluster level",
}

// TestConfigDoesNotMirrorModule keeps cluster.Config from growing module
// knobs back: a cache-module setting belongs on Config.Module, which every
// node's config is copied from.
func TestConfigDoesNotMirrorModule(t *testing.T) {
	module := map[string]bool{}
	for _, typ := range []reflect.Type{reflect.TypeOf(cachemod.Config{}), reflect.TypeOf(buffer.Config{})} {
		for i := 0; i < typ.NumField(); i++ {
			module[typ.Field(i).Name] = true
		}
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := sharedWithModule[name]; module[name] && !ok {
			t.Errorf("cluster.Config.%s mirrors a cache-module field: set it on Config.Module instead", name)
		}
	}
}

var backticked = regexp.MustCompile("`([^`]+)`")

// TestTuningGuideMatchesConfigs keeps docs/TUNING.md and the Config
// structs from drifting: every exported non-wiring field of
// cachemod.Config, buffer.Config and cluster.Config has a table row whose
// Where cell spells it, and every Config field a Where cell spells
// exists. Deleting a field without its row, or a row without its field,
// fails here.
func TestTuningGuideMatchesConfigs(t *testing.T) {
	raw, err := os.ReadFile("../../docs/TUNING.md")
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]map[string]bool{} // "pkg.Config" -> field set
	for name, typ := range map[string]reflect.Type{
		"cachemod.Config": reflect.TypeOf(cachemod.Config{}),
		"buffer.Config":   reflect.TypeOf(buffer.Config{}),
		"cluster.Config":  reflect.TypeOf(Config{}),
	} {
		fields[name] = map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fields[name][f.Name] = true
			}
		}
	}

	documented := map[string]bool{} // "pkg.Config.Field"
	rows := 0
	for _, line := range strings.Split(string(raw), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.Contains(cells[1], "`") {
			continue // not a knob row (prose, header, separator)
		}
		rows++
		var knobs []string
		for _, m := range backticked.FindAllStringSubmatch(cells[1], -1) {
			knobs = append(knobs, m[1])
		}
		for _, m := range backticked.FindAllStringSubmatch(cells[2], -1) {
			where := m[1]
			for cfg, set := range fields {
				switch {
				case where == cfg:
					// Bare "pkg.Config": the row's knob names are its fields.
					found := false
					for _, k := range knobs {
						if set[k] {
							documented[cfg+"."+k] = true
							found = true
						}
					}
					if !found {
						t.Errorf("TUNING.md row %q says %s, which has no field named %v", strings.TrimSpace(cells[1]), cfg, knobs)
					}
				case strings.HasPrefix(where, cfg+"."):
					field := strings.TrimPrefix(where, cfg+".")
					if !set[field] {
						t.Errorf("TUNING.md row %q names %s, which does not exist", strings.TrimSpace(cells[1]), where)
					}
					documented[where] = true
				}
			}
		}
	}
	if rows < 40 {
		t.Fatalf("parsed only %d knob rows from TUNING.md: table format changed?", rows)
	}
	for cfg, set := range fields {
		for field := range set {
			if name := cfg + "." + field; !documented[name] && !tuningWiring[name] {
				t.Errorf("%s has no docs/TUNING.md row (add one, or list it in tuningWiring if it is wiring)", name)
			}
		}
	}
}
