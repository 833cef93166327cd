// Command pvfsperf is the repository's benchmark: four closed-loop workloads
// against an in-process live cluster (4 iods on the in-memory fabric, one
// client node, two application processes), end-to-end metrics from an
// untraced run and per-layer metrics from a traced one. See README.md.
//
//	pvfsperf --workload W --seed N --seconds S --trace 0|1   one run; the last
//	                                                         line is its result
//	pvfsperf [-runs K] [-out DIR]                            every workload, K seeds; untraced
//	                                                         runs are child processes
//	pvfsperf -compare A.json B.json                          judge two result sets
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int           // set-ups timed per untraced run; the median is reported
	probe    time.Duration // budget of each standalone probe; only the smoke test shortens it
	out      string        // directory for the run record and the spans; "" writes none
}

// result is the line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a run as the results file keeps it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	WarmOps  int     `json:"warmup_ops_per_client"`
	// ReadSamples and WriteSamples are the calls behind the latency
	// percentiles.
	ReadSamples  uint64 `json:"read_samples"`
	WriteSamples uint64 `json:"write_samples"`
	// SetupsS are the set-ups timed, in order; setup_s is their median.
	SetupsS []float64 `json:"setups_s,omitempty"`
	// Latency splits an untraced run's call latency by op class; a class
	// the workload does not issue is absent. -compare judges these rows.
	Latency map[string]metric `json:"latency,omitempty"`
	// Slices are the per-slice values each end-to-end metric is the
	// better quartile of.
	Slices       map[string][]float64 `json:"slices,omitempty"`
	FirstFailure string               `json:"first_failure,omitempty"`
	result
}

// report is the results file: where the numbers came from, then the runs.
type report struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Runs       []record `json:"runs"`
}

func newReport() report {
	rep := report{Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				rep.Commit = s.Value
			}
		}
	}
	return rep
}

func main() {
	o := options{setups: 5, probe: probeBudget}
	var trace, runs int
	var compare bool
	var manifest string
	flag.StringVar(&o.workload, "workload", "", "workload to run; empty runs all of them over -runs seeds")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated offsets and payloads")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "directory for results and spans (default: a new temporary directory when running all workloads, none for one run)")
	flag.IntVar(&runs, "runs", 3, "seeds per workload when running all: seed, seed+1, ...")
	flag.BoolVar(&compare, "compare", false, "compare two results files: pvfsperf -compare A.json B.json")
	flag.StringVar(&manifest, "manifest", "BENCHMARK.json", "the benchmark manifest -compare takes its bounds from")
	flag.Parse()
	o.trace = trace != 0

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: pvfsperf -compare A.json B.json")
			break
		}
		var worse bool
		if worse, err = compareFiles(os.Stdout, manifest, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case o.workload == "":
		err = runAll(o, runs)
	default:
		err = runSingle(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pvfsperf:", err)
		os.Exit(2)
	}
}

// runSingle is one run as the driver makes it: one workload, untraced or
// traced, its table, its record under -out and the result line. A traced
// run carries the probes' results too, so that it reports every per-layer
// metric.
func runSingle(o options) error {
	s := specByName(o.workload)
	if s == nil {
		var names []string
		for _, s := range specs() {
			names = append(names, s.name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	var rec *record
	if o.trace {
		recs, probes, err := runTraced(o, []*spec{s})
		if err != nil {
			return err
		}
		rec = &recs[0]
		for name, m := range probes {
			rec.Metrics[name] = m
		}
	} else {
		var err error
		if rec, err = runOne(o, s); err != nil {
			return err
		}
	}
	printRecord(rec)
	if o.out != "" {
		rep := newReport()
		rep.Runs = []record{*rec}
		if err := writeJSON(filepath.Join(o.out, recordName(rec.Workload, rec.Seed, rec.Trace)), rep); err != nil {
			return err
		}
	}
	// The contract's last line: exactly these four keys.
	line, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func recordName(workload string, seed int64, trace bool) string {
	pass := "e2e"
	if trace {
		pass = "layers"
	}
	return fmt.Sprintf("%s.seed%d.%s.json", workload, seed, pass)
}

// sliceLen is the length of one measured slice. A run's window is cut into
// slices of about this length, every end-to-end metric is computed per
// slice, and the run reports one slice (endToEnd chooses which): one second
// is long enough for a 99th percentile with tens of samples beyond it on the
// slowest workload, and a burst of outside noise spoils one slice, not the
// run.
const sliceLen = time.Second

// scratch makes the run's temporary directory and, if one is asked for, the
// output directory.
func scratch(o options) (tmp string, err error) {
	if o.seconds <= 0 {
		return "", errors.New("-seconds must be positive")
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o777); err != nil {
			return "", err
		}
	}
	return os.MkdirTemp("", "pvfsperf-")
}

// timedSetUp sets a workload up from an empty heap handed back to the OS,
// as the first set-up in a process finds it: left to itself, a later set-up
// is fast or slow by whether the collector has already reclaimed the
// previous cluster.
func timedSetUp(s *spec, seed int64, traced bool, tmp string) (*world, time.Duration, error) {
	debug.FreeOSMemory()
	start := time.Now()
	w, err := setUp(s, seed, traced, tmp)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", s.name, err)
	}
	return w, time.Since(start), nil
}

// runOne is an untraced run of one workload in this process: a set-up, the
// window on it, the read-back, and then the remaining set-ups, timed and
// torn down at once. The window comes first so that the peak RSS it reads
// belongs to one cluster.
func runOne(o options, s *spec) (*record, error) {
	tmp, err := scratch(o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	w, first, err := timedSetUp(s, o.seed, false, tmp)
	if err != nil {
		return nil, err
	}
	rec, err := w.pass(o)
	w.close()
	if err != nil {
		return nil, err
	}
	rec.SetupsS = []float64{first.Seconds()}
	for i := 1; i < o.setups; i++ {
		w, d, err := timedSetUp(s, o.seed, false, tmp)
		if err != nil {
			return nil, err
		}
		w.close()
		rec.SetupsS = append(rec.SetupsS, d.Seconds())
	}
	rec.Metrics["setup_s"] = metric{Value: median(rec.SetupsS), Unit: "s"}
	return rec, nil
}

// runTraced measures the standalone probes once — they do not depend on
// the workload — and then makes a traced pass of each workload given, one
// cluster after the other. It returns the workloads' records, which hold
// the in-situ layer metrics, and the probes' results.
func runTraced(o options, workloads []*spec) ([]record, map[string]metric, error) {
	tmp, err := scratch(o)
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	values, err := runProbes(o.probe, tmp)
	if err != nil {
		return nil, nil, err
	}
	var recs []record
	for _, s := range workloads {
		w, _, err := timedSetUp(s, o.seed, true, tmp)
		if err != nil {
			return nil, nil, err
		}
		rec, err := w.pass(o)
		w.close()
		if err != nil {
			return nil, nil, err
		}
		recs = append(recs, *rec)
	}
	return recs, tag(perLayerDefs, values), nil
}

// pass measures one window on a world that is set up, slice by slice, and
// reads every slot back. On a world set up for tracing untraced and traced
// slices alternate, and the record holds the in-situ layer metrics. Otherwise it holds the
// end-to-end metrics, all but setup_s, which is the caller's.
func (w *world) pass(o options) (*record, error) {
	s := w.spec
	traced := w.net != nil
	rec := &record{Workload: s.name, Seed: w.seed, Trace: traced, Seconds: o.seconds, WarmOps: s.warmOps}
	total := time.Duration(o.seconds * float64(time.Second))
	if traced {
		// A traced run spends half of the time asked for on the workload,
		// a quarter with the plain clients and a quarter through the seam;
		// the probes have a budget of their own.
		total /= 4
	}
	n := max(1, int((total+sliceLen/2)/sliceLen))
	var plain, seamed []window
	for i := 0; i < n; i++ {
		win, err := w.measure(total/time.Duration(n), false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		plain = append(plain, win)
		if !traced {
			continue
		}
		// The traced slices alternate with the plain ones on one cluster,
		// so the overhead of tracing is read off neighbouring intervals.
		if win, err = w.measure(total/time.Duration(n), true); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		seamed = append(seamed, win)
	}
	peakRSS := peakRSSMB()
	// Every slice of a draining workload ends with a sync, so this is the
	// space held after the final one — and before the read-back, which
	// crashes the daemons and lets them recover.
	var stored int64 // under the disk engines' directories; 0 on the mem backend
	if w.dataDir != "" {
		var err error
		if stored, err = dirBytes(w.dataDir); err != nil {
			return nil, err
		}
	}
	rec.finish(w, plain, seamed)
	// The plain slices' figures go into a traced run's record too, to be
	// read beside the layer metrics measured on the same cluster.
	e2e, slices := endToEnd(plain, peakRSS)
	rec.Slices, rec.Latency = slices, classLatencies(plain)
	if !traced {
		rec.Metrics = e2e
		return rec, nil
	}

	var tracers []*tracer
	for _, cl := range w.clients {
		tracers = append(tracers, cl.tr)
	}
	if o.out != "" {
		name := fmt.Sprintf("%s.seed%d.spans.csv", s.name, w.seed)
		if err := writeSpans(filepath.Join(o.out, name), tracers); err != nil {
			return nil, err
		}
	}
	errorRate := div(float64(rec.Failed), float64(rec.Attempted))
	rec.Metrics = tag(perLayerDefs, perLayer(plain, seamed, tracers, stored, s.liveBytes(), errorRate))
	return rec, nil
}

// finish reads every slot back and totals what the run attempted and what
// failed, in the slices and in the read-back. The sample counts are those of
// the untraced slices, which the latencies come from.
func (rec *record) finish(w *world, plain, seamed []window) {
	var first error
	rec.Attempted, rec.Failed, first = w.readBack()
	for _, win := range plain {
		rec.ReadSamples += win.rd.n
		rec.WriteSamples += win.wr.n
	}
	for _, wins := range [][]window{plain, seamed} {
		for _, win := range wins {
			rec.Attempted += win.ops
			rec.Failed += win.failed
		}
	}
	if err := w.firstFailure(); err != nil {
		first = err
	}
	if first != nil {
		rec.FirstFailure = first.Error()
	}
	rec.Correct = rec.Failed == 0
}

// printRecord prints every metric by name and unit, in table order.
func printRecord(rec *record) {
	pass, defs := "untraced", endToEndDefs
	if rec.Trace {
		pass, defs = "traced", perLayerDefs
	}
	fmt.Printf("%s seed=%d %s seconds=%g warm-up=%d ops/client read_samples=%d write_samples=%d\n",
		rec.Workload, rec.Seed, pass, rec.Seconds, rec.WarmOps, rec.ReadSamples, rec.WriteSamples)
	for _, d := range defs {
		if m, ok := rec.Metrics[d.name]; ok {
			fmt.Printf("  %-38s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
	for _, name := range classLatencyNames {
		if m, ok := rec.Latency[name]; ok {
			fmt.Printf("  %-38s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	if rec.Workload != probesRecord {
		fmt.Printf("  attempted=%d failed=%d\n", rec.Attempted, rec.Failed)
	}
	if rec.FirstFailure != "" {
		fmt.Printf("  first failure: %s\n", rec.FirstFailure)
	}
}

// probesRecord names the record that holds a seed's probe results when all
// workloads are run: the probes are measured once per seed, not once per
// workload.
const probesRecord = "probes"

// runAll runs every workload over the seed list and writes one results
// file. Each untraced run is a child process of its own — a clean heap,
// and a peak RSS that belongs to one workload. The traced passes of a seed
// run in this process, after its probes.
func runAll(o options, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if o.out == "" {
		if o.out, err = os.MkdirTemp("", "pvfsperf-out-"); err != nil {
			return err
		}
	}
	rep := newReport()
	for seed := o.seed; seed < o.seed+int64(runs); seed++ {
		for _, s := range specs() {
			cmd := exec.Command(self,
				"-workload", s.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", "0", "-out", o.out)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", s.name, seed, err)
			}
			// All but the result line is the child's table.
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			var child report
			if err := readJSON(filepath.Join(o.out, recordName(s.name, seed, false)), &child); err != nil {
				return err
			}
			rep.Runs = append(rep.Runs, child.Runs...)
		}
		o := o
		o.seed = seed
		recs, probes, err := runTraced(o, specs())
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		recs = append(recs, record{Workload: probesRecord, Seed: seed, Trace: true, result: result{Correct: true, Metrics: probes}})
		for i := range recs {
			printRecord(&recs[i])
		}
		rep.Runs = append(rep.Runs, recs...)
	}
	path := filepath.Join(o.out, "results.json")
	fmt.Println("results:", path)
	return writeJSON(path, rep)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
