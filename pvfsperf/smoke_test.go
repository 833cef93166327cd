package main

import (
	"io"
	"math"
	"os"
	"testing"
	"time"
)

// TestManifestMatches holds BENCHMARK.json and the tables in this package
// together: the same workloads, metrics, units and directions, in order.
func TestManifestMatches(t *testing.T) {
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var m struct {
		Paths     []string
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "pvfsperf" {
		t.Errorf("paths = %v, want [pvfsperf]", m.Paths)
	}
	if len(m.Workloads) != len(specs()) {
		t.Fatalf("%d workloads in the manifest, %d in specs()", len(m.Workloads), len(specs()))
	}
	for i, s := range specs() {
		if got := m.Workloads[i]; got.Name != s.name || got.Why != s.why {
			t.Errorf("workload %d: manifest has %q (%q), specs() has %q (%q)", i, got.Name, got.Why, s.name, s.why)
		}
	}
	check := func(kind string, got []entry, want []def, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the table", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: manifest has %s [%s] %s, the table %s [%s] %s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded != (g.Bound != nil) || bounded && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s %s: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEndDefs, true)
	check("per_layer", m.PerLayer, perLayerDefs, false)
}

// finite checks that every metric of defs is in got — and nothing else —
// finite and with the table's unit.
func finite(t *testing.T, got map[string]metric, defs []def) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.name]
		switch {
		case !ok:
			t.Errorf("%s is missing", d.name)
		case m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v [%s], want a finite value in %s", d.name, m.Value, m.Unit, d.unit)
		}
	}
}

// TestSmoke makes one traced run of all workloads — the probes once, then
// each workload with a 300 ms window — and an untraced run of the first:
// every metric is present, finite and unit-tagged, nothing fails, and the
// structural facts that justify each workload's place in the set hold.
func TestSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	facts := map[string]func(t *testing.T, v func(string) float64){
		"hit_shared": func(t *testing.T, v func(string) float64) {
			if v("rpc.roundtrips_per_op") != 0 || v("buffer.hit_ratio") != 1 {
				t.Errorf("the cache does not serve everything: %v round trips per op, hit ratio %v", v("rpc.roundtrips_per_op"), v("buffer.hit_ratio"))
			}
		},
		"scan_miss": func(t *testing.T, v func(string) float64) {
			// Readahead and the other instance's fetches make a fifth of
			// the block lookups hits over a full window. Over this short
			// one the share depends on how far one instance trails the
			// other on the file they share; most lookups miss in any case.
			if v("cachemod.full_hit_ratio") >= 0.3 || v("buffer.hit_ratio") >= 0.5 || v("cachemod.fetch_joins_per_read") <= 0 {
				t.Errorf("not a miss workload with shared fetches: %v of reads served whole, block hit ratio %v, %v joins per read",
					v("cachemod.full_hit_ratio"), v("buffer.hit_ratio"), v("cachemod.fetch_joins_per_read"))
			}
		},
		"zipf_rw": func(t *testing.T, v func(string) float64) {
			if v("buffer.evictions_per_op") <= 0 || v("cachemod.flushed_blocks_per_round") <= 0 {
				t.Errorf("no eviction or no background flush: %v evictions per op, %v blocks per round", v("buffer.evictions_per_op"), v("cachemod.flushed_blocks_per_round"))
			}
		},
		"write_drain_disk": func(t *testing.T, v func(string) float64) {
			if v("storage_disk.write_amp") < 1 || v("storage_disk.space_amp") < 1 || v("iod.data_reads_per_op") != 0 {
				t.Errorf("write amplification %v, space amplification %v, %v data-port reads per op",
					v("storage_disk.write_amp"), v("storage_disk.space_amp"), v("iod.data_reads_per_op"))
			}
		},
	}
	correct := func(t *testing.T, rec *record) {
		t.Helper()
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("attempted %d, failed %d: %s", rec.Attempted, rec.Failed, rec.FirstFailure)
		}
	}

	// The warm-up is cut short: it is a third of the full test's time, and
	// everything checked here is a count or a ratio of counts, not a
	// timing. hit_shared's file is in the cache once it is seeded.
	workloads := specs()
	for _, s := range workloads {
		s.warmOps = 64
	}
	// A traced run spends half of -seconds on the workload: 150 ms of
	// plain slices and 150 ms of traced ones.
	o := options{seed: 1, seconds: 0.6, setups: 1, probe: 5 * time.Millisecond, out: t.TempDir()}
	recs, probes, err := runTraced(o, workloads)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range workloads {
		t.Run(s.name, func(t *testing.T) {
			rec := &recs[i]
			correct(t, rec)
			all := make(map[string]metric)
			for _, from := range []map[string]metric{rec.Metrics, probes} {
				for name, m := range from {
					if _, twice := all[name]; twice {
						t.Errorf("%s is both a probe and an in-situ metric", name)
					}
					all[name] = m
				}
			}
			finite(t, all, perLayerDefs)
			facts[s.name](t, func(name string) float64 { return rec.Metrics[name].Value })
			if rec.Metrics["bench.error_rate"].Value != 0 {
				t.Errorf("bench.error_rate = %v", rec.Metrics["bench.error_rate"].Value)
			}
			// What the plain slices of the run would report end to end:
			// no metric may be 0 on any workload.
			for _, d := range endToEndDefs {
				if d.name == "setup_s" || d.name == "peak_rss_mb" {
					continue // per run, not per slice; checked below
				}
				if v := median(rec.Slices[d.name]); v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v over slices %v", d.name, v, rec.Slices[d.name])
				}
			}
			if len(rec.Latency) == 0 {
				t.Error("no latency split")
			}
			spans, err := os.ReadFile(o.out + "/" + s.name + ".seed1.spans.csv")
			if err != nil || len(spans) < 100 {
				t.Errorf("spans file: %d bytes, %v", len(spans), err)
			}
		})
	}
	t.Run("untraced", func(t *testing.T) {
		o.seconds = 0.1 // the workload's window was checked above; this is runOne's turn
		rec, err := runOne(o, workloads[0])
		if err != nil {
			t.Fatal(err)
		}
		correct(t, rec)
		finite(t, rec.Metrics, endToEndDefs)
		for name, m := range rec.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s = %v: an end-to-end metric is never 0", name, m.Value)
			}
		}
	})
}

// TestCompare judges two result sets against bounds: a set against itself
// is the same everywhere; one with half the throughput, slower writes
// behind unchanged end-to-end metrics, or a failed op is worse.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	set := func(name string, change func(*record)) string {
		var rep report
		for _, s := range specs() {
			for seed := int64(1); seed <= 3; seed++ {
				rec := record{Workload: s.name, Seed: seed}
				values := make(map[string]float64)
				for _, d := range endToEndDefs {
					values[d.name] = 1 + float64(seed)/1000
				}
				rec.Metrics = tag(endToEndDefs, values)
				rec.Latency = map[string]metric{"write_p50_us": {Value: 1, Unit: "us"}}
				rec.Correct, rec.Attempted = true, 100
				change(&rec)
				rep.Runs = append(rep.Runs, rec)
			}
		}
		path := dir + "/" + name
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set("base.json", func(*record) {})
	slow := set("slow.json", func(r *record) {
		m := r.Metrics["throughput_mbps"]
		m.Value /= 2
		r.Metrics["throughput_mbps"] = m
	})
	slowWrites := set("slowwrites.json", func(r *record) {
		if r.Workload == "zipf_rw" {
			r.Latency["write_p50_us"] = metric{Value: 2, Unit: "us"}
		}
	})
	failing := set("failing.json", func(r *record) {
		if r.Workload == "scan_miss" && r.Seed == 2 {
			r.Failed, r.Correct = 1, false
		}
	})
	for _, c := range []struct {
		a, b  string
		worse bool
	}{{base, base, false}, {base, slow, true}, {slow, base, false}, {base, slowWrites, true}, {base, failing, true}, {failing, base, false}} {
		worse, err := compareFiles(io.Discard, "../BENCHMARK.json", c.a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse {
			t.Errorf("compare(%s, %s): worse = %v, want %v", c.a, c.b, worse, c.worse)
		}
	}
}
