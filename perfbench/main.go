// Command perfbench is the repository benchmark. It runs one workload
// against the ECO engine or the ecod daemon built from the same
// checkout, checks every result it gets back, and prints each metric by
// name with its unit; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload table1-sat --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics declared in BENCHMARK.json;
// --trace 1 switches the span recorder on and reports the per-layer
// metrics instead. --selfcheck runs every workload at its smallest size
// in both modes and checks that the printed metric names equal the
// declared ones.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloadParams holds the fixed parameters of every workload. They
// live in a file of their own so later changes cannot retune them
// silently next to code changes.
//
//go:embed workloads.json
var workloadParamsJSON []byte

type table1Params struct {
	Modes       []string `json:"modes"`
	Lanes       int      `json:"lanes"`
	LaneUnits   []string `json:"lane_units"`
	SeededOrder bool     `json:"seeded_order"`
	SetupRep    int      `json:"setup_repeats"`
	Small       []string `json:"selfcheck_units"`
}

type ecodParams struct {
	NominalRate    float64   `json:"nominal_jobs_s"`
	NominalShare   float64   `json:"nominal_share"`
	Ladder         []float64 `json:"ladder_jobs_s"`
	LatencyLimitMS float64   `json:"latency_limit_ms"`
	DupShare       float64   `json:"dup_share"`
	DupWindow      int       `json:"dup_window"`
	HeavyShare     float64   `json:"heavy_share"`
	HeavyUnits     []string  `json:"heavy_units"`
	FinalShare     float64   `json:"final_share"`
	PollAgeFrac    float64   `json:"poll_age_frac"`
	PollMinMS      float64   `json:"poll_min_ms"`
	PollMaxMS      float64   `json:"poll_max_ms"`
	BacklogCap     int       `json:"backlog_cap"`
	SetupRep       int       `json:"setup_repeats"`
}

type params struct {
	DefaultSeed int64        `json:"default_seed"`
	Table1Sat   table1Params `json:"table1-sat"`
	Table1Exact table1Params `json:"table1-exact"`
	EcodMixed   ecodParams   `json:"ecod-mixed"`
}

type options struct {
	root, ecodBin string
	workload      string
	seed          int64
	seconds       int
	trace         bool
	small         bool // smallest size, for the self-check
	p             params
}

// metric is one printed measurement.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // base of a ratio, percentile used, or why it reads 0
}

// report is what a workload returns.
type report struct {
	attempted int
	failures  []string
	e2e       []metric
	layer     []metric
	info      []string // extra human-readable lines
	tr        *tracer
	// overheadBase names the end-to-end metric whose traced minus
	// untraced value is printed as the tracing overhead.
	overheadBase string
}

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) findE2E(name string) (metric, bool) {
	for _, m := range r.e2e {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// runCtx is handed to a workload.
type runCtx struct {
	opt     options
	t0      time.Time
	workDir string // scratch directory for this run, removed at exit
	tr      *tracer
}

var workloads = map[string]func(*runCtx) (*report, error){
	"table1-sat":   runTable1Sat,
	"table1-exact": runTable1Exact,
	"ecod-mixed":   runEcodMixed,
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var opt options
	var trace int
	var selfcheck bool
	if err := json.Unmarshal(workloadParamsJSON, &opt.p); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: workloads.json: %v\n", err)
		return 2
	}
	flag.StringVar(&opt.root, "root", ".", "repository root (holds BENCHMARK.json)")
	flag.StringVar(&opt.ecodBin, "ecod", "", "path to the ecod binary built from this checkout")
	flag.StringVar(&opt.workload, "workload", "", "workload name: table1-sat, table1-exact, ecod-mixed")
	flag.Int64Var(&opt.seed, "seed", opt.p.DefaultSeed, "workload seed")
	flag.IntVar(&opt.seconds, "seconds", 24, "measurement window of the ecod-mixed load ladder (a Table-1 pass is a fixed set of cells)")
	flag.IntVar(&trace, "trace", 0, "1 = record spans and report per-layer metrics")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload at its smallest size and check metric names against BENCHMARK.json")
	flag.Parse()
	opt.trace = trace == 1
	if opt.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	decl, err := readDeclared(opt.root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if selfcheck {
		return runSelfcheck(opt, decl)
	}
	if _, ok := workloads[opt.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", opt.workload)
		return 2
	}
	rep, err := runOne(opt, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opt.workload, err)
		return 1
	}
	names := printedNames(rep, opt.trace)
	want := decl.e2e
	if opt.trace {
		want = decl.layer
	}
	diff := nameDiff(names, want)
	if u := unitDiff(rep, opt.trace, decl); u != "" {
		diff += " units: " + u
	}
	if diff != "" {
		fmt.Fprintf(os.Stderr, "perfbench: metric names differ from BENCHMARK.json: %s\n", diff)
		return 1
	}
	emitJSON(os.Stdout, rep, opt.trace)
	return 0
}

// runOne runs a workload in a fresh scratch directory and prints the
// human-readable part of its report.
func runOne(opt options, out io.Writer) (*report, error) {
	base := filepath.Join(opt.root, ".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, opt.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rc := &runCtx{opt: opt, t0: time.Now(), workDir: dir}
	rc.tr = newTracer(opt.trace, rc.t0)
	printEnv(out, opt)
	rep, err := workloads[opt.workload](rc)
	if err != nil {
		return nil, err
	}
	rep.tr = rc.tr
	printReport(out, opt, rep)
	return rep, nil
}

// printEnv records the seed and the environment, so numbers from
// different machines or seeds are never compared silently.
func printEnv(w io.Writer, opt options) {
	commit := os.Getenv("PERFBENCH_GIT_COMMIT")
	if commit == "" {
		commit = "none"
	}
	fmt.Fprintf(w, "env: workload=%s seed=%d seconds=%d trace=%v small=%v\n", opt.workload, opt.seed, opt.seconds, opt.trace, opt.small)
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d go=%s os=%s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "env: git_commit=%s\n", commit)
}

func printReport(w io.Writer, opt options, rep *report) {
	for _, line := range rep.info {
		fmt.Fprintln(w, line)
	}
	printMetrics := func(kind string, ms []metric) {
		for _, m := range ms {
			note := ""
			if m.note != "" {
				note = "  (" + m.note + ")"
			}
			fmt.Fprintf(w, "%s %-28s %16.6g %-9s%s\n", kind, m.name, m.value, m.unit, note)
		}
	}
	printMetrics("e2e  ", rep.e2e)
	if opt.trace {
		printMetrics("layer", rep.layer)
		rep.tr.printSelfTimes(w)
		printOverhead(w, opt, rep)
		path := filepath.Join(opt.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", opt.workload, opt.seed))
		if err := rep.tr.write(path); err != nil {
			fmt.Fprintf(w, "trace: not written: %v\n", err)
		} else {
			fmt.Fprintf(w, "trace: spans written to %s\n", path)
		}
	} else if !opt.small {
		saveUntraced(opt, rep)
	}
	fmt.Fprintf(w, "gate: attempted=%d failed=%d failed_frac=%g\n", rep.attempted, len(rep.failures), failedFrac(rep))
	for _, f := range rep.failures {
		fmt.Fprintf(w, "gate: FAILED %s\n", f)
	}
}

func failedFrac(rep *report) float64 {
	if rep.attempted == 0 {
		return 0
	}
	return float64(len(rep.failures)) / float64(rep.attempted)
}

// Untraced results are kept in the checkout so that a traced run of the
// same workload can report its overhead against them.
func resultsPath(opt options, seed int64) string {
	return filepath.Join(opt.root, ".bench_build", "results", fmt.Sprintf("%s-seed%d.json", opt.workload, seed))
}

func saveUntraced(opt options, rep *report) {
	vals := make(map[string]float64)
	for _, m := range rep.e2e {
		vals[m.name] = m.value
	}
	data, err := json.Marshal(vals)
	if err != nil {
		return
	}
	path := resultsPath(opt, opt.seed)
	if os.MkdirAll(filepath.Dir(path), 0o755) == nil {
		os.WriteFile(path, data, 0o644)
	}
}

// printOverhead prints traced minus untraced value of the workload's
// headline timing, against the untraced run of the same seed in this
// checkout; without one it prints n/a.
func printOverhead(w io.Writer, opt options, rep *report) {
	cur, ok := rep.findE2E(rep.overheadBase)
	if !ok {
		return
	}
	path := resultsPath(opt, opt.seed)
	var vals map[string]float64
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &vals)
	}
	base := vals[rep.overheadBase]
	if err != nil || base == 0 {
		fmt.Fprintf(w, "trace: overhead n/a: no untraced %s run with seed %d in this checkout\n", opt.workload, opt.seed)
		return
	}
	fmt.Fprintf(w, "trace: overhead %s traced %.6g - untraced %.6g = %.6g %s (%+.2f%%; same seed)\n",
		rep.overheadBase, cur.value, base, cur.value-base, cur.unit, 100*(cur.value-base)/base)
}

func emitJSON(w io.Writer, rep *report, trace bool) {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jm)
	list := rep.e2e
	if trace {
		list = rep.layer
	}
	for _, m := range list {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[m.name] = jm{v, m.unit}
	}
	attempted := rep.attempted
	if attempted < 1 {
		attempted = 1
	}
	data, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{len(rep.failures) == 0 && rep.attempted > 0, attempted, len(rep.failures), ms})
	fmt.Fprintln(w, string(data))
}

// declared holds the metric names BENCHMARK.json declares.
type declared struct {
	e2e, layer []string
	units      map[string]string
}

func readDeclared(root string) (declared, error) {
	var d declared
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return d, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	var bj struct {
		E2E []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		Layer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		return d, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	d.units = make(map[string]string)
	for _, m := range bj.E2E {
		d.e2e = append(d.e2e, m.Name)
		d.units[m.Name] = m.Unit
	}
	for _, m := range bj.Layer {
		d.layer = append(d.layer, m.Name)
		d.units[m.Name] = m.Unit
	}
	return d, nil
}
