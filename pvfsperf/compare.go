package main

import (
	"fmt"
	"io"
	"slices"
	"text/tabwriter"
)

// manifestFile is the part of BENCHMARK.json -compare needs.
type manifestFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles are the cut points Python's statistics.quantiles(v, n=4) gives
// (the exclusive method), which is what the driver judges spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	v = slices.Sorted(slices.Values(v))
	at := func(k int) float64 {
		if len(v) == 1 {
			return v[0]
		}
		pos := float64(k) * float64(len(v)+1) / 4
		j := min(max(int(pos), 1), len(v)-1)
		return v[j-1] + (v[j]-v[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

// classLatencyBound is the bound the per-class median latencies are judged
// with: the widest the contract allows an end-to-end metric. The driver does
// not gate them, so only -compare sees a class get slower.
const classLatencyBound = 0.25

// compareFiles prints one row per (workload, end-to-end metric) of the
// untraced runs in result sets a (the base) and b, one per op class the
// workload issues for that class's median latency, and one for the failed
// operations. It reports whether any row is worse.
func compareFiles(out io.Writer, manifestPath, aPath, bPath string) (worse bool, err error) {
	var m manifestFile
	var a, b report
	for _, f := range []struct {
		path string
		v    any
	}{{manifestPath, &m}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			return false, err
		}
	}
	runsOf := func(rep report, workload string) []record {
		var rs []record
		for _, r := range rep.Runs {
			if r.Workload == workload && !r.Trace {
				rs = append(rs, r)
			}
		}
		return rs
	}
	values := func(rs []record, name string, latency bool) []float64 {
		var vs []float64
		for _, r := range rs {
			from := r.Metrics
			if latency {
				from = r.Latency
			}
			if mt, ok := from[name]; ok {
				vs = append(vs, mt.Value)
			}
		}
		return vs
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tB/A\tspread A\tspread B\tbound\tverdict")
	row := func(workload, name, unit, better string, bound float64, av, bv []float64) {
		a1, am, a3 := quartiles(av)
		b1, bm, b3 := quartiles(bv)
		spreadA, spreadB := div(a3-a1, am), div(b3-b1, bm)
		// change is how much worse b is than a, as a share of a.
		change := div(bm-am, am)
		if better == "higher" {
			change = -change
		}
		verdict := "same"
		switch {
		case max(spreadA, spreadB) > bound:
			verdict = "unresolved"
		case change > bound:
			verdict, worse = "worse", true
		case change < -bound:
			verdict = "better"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%.3f of %.4f\t%.3f\t%.3f\t%.2f\t%s\n",
			workload, name, unit, am, bm, div(bm, am), am, spreadA, spreadB, bound, verdict)
	}
	for _, wl := range m.Workloads {
		ra, rb := runsOf(a, wl.Name), runsOf(b, wl.Name)
		if len(ra) == 0 || len(rb) == 0 {
			return false, fmt.Errorf("%s: %d untraced runs in %s, %d in %s", wl.Name, len(ra), aPath, len(rb), bPath)
		}
		for _, e := range m.EndToEnd {
			av, bv := values(ra, e.Name, false), values(rb, e.Name, false)
			if len(av) != len(ra) || len(bv) != len(rb) {
				return false, fmt.Errorf("%s %s: reported by %d of %d runs in %s, %d of %d in %s", wl.Name, e.Name, len(av), len(ra), aPath, len(bv), len(rb), bPath)
			}
			row(wl.Name, e.Name, e.Unit, e.Better, e.Bound, av, bv)
		}
		// The median call latency by op class. A class the workload does
		// not issue has no row.
		for _, name := range []string{"read_p50_us", "write_p50_us"} {
			if av, bv := values(ra, name, true), values(rb, name, true); len(av) > 0 && len(bv) > 0 {
				row(wl.Name, name, "us", "lower", classLatencyBound, av, bv)
			}
		}
		// Failures have no tolerance: a failed op returns early and reads
		// as a fast one, so no other row of b means anything once it fails
		// more often than a.
		var fa, fb failures
		fa.count(ra)
		fb.count(rb)
		verdict := "same"
		if fb.incorrect > 0 || fb.rate() > fa.rate() {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(tw, "%s\tfailed ops\tcount\t%d of %d\t%d of %d\t\t\t\t0.00\t%s\n",
			wl.Name, fa.failed, fa.attempted, fb.failed, fb.attempted, verdict)
	}
	return worse, tw.Flush()
}

// failures totals what a workload's runs attempted and what failed.
type failures struct {
	attempted, failed int64
	incorrect         int // runs that reported "correct": false
}

func (f *failures) count(rs []record) {
	for _, r := range rs {
		f.attempted += r.Attempted
		f.failed += r.Failed
		if !r.Correct {
			f.incorrect++
		}
	}
}

func (f *failures) rate() float64 { return div(float64(f.failed), float64(f.attempted)) }
