package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"ecopatch"
	"ecopatch/internal/bench"
)

// The Table-1 workloads solve the paper's 20-unit suite, one cell per
// (unit, algorithm column), with the options a user of the Table-1
// harness gets: bench.Table1Options for the column and Parallelism 1.
// No accelerator option is set.
//
// The inputs are the suite itself: Table 1 is a fixed benchmark set,
// and shifting the generator seeds changes cell times by two orders of
// magnitude (a shifted unit9 took 29.5 s where the suite's takes
// 0.16 s), which no bound could absorb. On the serial workload the seed
// sets the order the cells run in, and the default seed keeps suite
// order. table1-exact keeps suite order for every seed: which of its
// capped cells share the machine sets its memory peak, and a seeded
// order moved that peak by 17% between runs.

func runTable1Sat(rc *runCtx) (*report, error) {
	return runTable1(rc, rc.opt.p.Table1Sat)
}

func runTable1Exact(rc *runCtx) (*report, error) {
	return runTable1(rc, rc.opt.p.Table1Exact)
}

type t1unit struct {
	cfg  bench.Config
	gen  *ecopatch.Instance // as generated; the gate checks patches against it
	dir  string             // contest text written from gen
	load *ecopatch.Instance // loaded back during set-up
}

type t1cell struct {
	u       *t1unit
	mode    string
	res     *ecopatch.Result
	err     error
	loadS   float64
	solveS  float64
	verifyS float64
	ok      bool
	verr    error
	root    int // the cell's root span
}

func (c *t1cell) key() string { return c.u.cfg.Name + "/" + c.mode }

func runTable1(rc *runCtx, p table1Params) (*report, error) {
	rep := &report{overheadBase: "wall_s"}
	names := p.Small
	if !rc.opt.small {
		names = nil
		for _, c := range bench.Suite(1) {
			names = append(names, c.Name)
		}
	}

	// Untimed: generate the units and write them as contest text.
	var units []*t1unit
	for _, name := range names {
		cfg, err := bench.ConfigByName(1, name)
		if err != nil {
			return nil, err
		}
		inst, err := bench.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", name, err)
		}
		dir := filepath.Join(rc.workDir, name)
		if err := inst.SaveDir(dir); err != nil {
			return nil, fmt.Errorf("write %s: %w", name, err)
		}
		units = append(units, &t1unit{cfg: cfg, gen: inst, dir: dir})
	}

	// Set-up: load every instance from text, then one tiny solve so
	// first-use initialisation is paid here, not in the first cell.
	// Repeated; the median is reported. Each repetition starts from a
	// collected heap so the previous one's garbage is not charged to it.
	var setups []float64
	for i := 0; i < p.SetupRep; i++ {
		runtime.GC()
		t0 := time.Now()
		for _, u := range units {
			inst, err := ecopatch.LoadDir(u.dir)
			if err != nil {
				return nil, fmt.Errorf("load %s: %w", u.cfg.Name, err)
			}
			u.load = inst
		}
		opt, err := cellOptions(units[0], p.Modes[0])
		if err != nil {
			return nil, err
		}
		if _, err := ecopatch.SolveContext(context.Background(), units[0].load, opt); err != nil {
			return nil, fmt.Errorf("set-up solve %s: %w", units[0].cfg.Name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var cells []*t1cell
	for _, u := range units {
		for _, m := range p.Modes {
			cells = append(cells, &t1cell{u: u, mode: m})
		}
	}
	if p.SeededOrder && rc.opt.seed != rc.opt.p.DefaultSeed {
		rng := rand.New(rand.NewSource(rc.opt.seed))
		rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	}

	// The measured pass. Only the solve call is timed. Peak memory is
	// the pass's own: set-up garbage is returned to the OS and the
	// high-water mark reset before it, and the mark is read before the
	// correctness gate runs.
	rssNote := "peak RSS of the benchmark process during the measured pass"
	if err := resetPeakRSS(); err != nil {
		rssNote = fmt.Sprintf("lifetime peak RSS up to the end of the pass (reset failed: %v)", err)
	}

	// Cells of the units in LaneUnits run first, Lanes at a time; the
	// rest run one at a time. Two exact cells side by side slow each
	// other by an amount that varies from run to run (unit13 took
	// 0.87 s alone, 1.2-1.4 s beside a capped cell), so only cells whose
	// time the ExactTimeout cap sets share the machine.
	var laned, serial []*t1cell
	for _, c := range cells {
		if slices.Contains(p.LaneUnits, c.u.cfg.Name) {
			laned = append(laned, c)
		} else {
			serial = append(serial, c)
		}
	}
	lanesNote := "all serial"
	if len(laned) > 0 {
		lanesNote = fmt.Sprintf("%d in %d lanes (units %v), %d serial", len(laned), max(1, p.Lanes), p.LaneUnits, len(serial))
	}
	rep.info = append(rep.info, fmt.Sprintf("table1: %d cells at Parallelism=1, %s; cell order %s", len(cells), lanesNote, orderNote(rc, p)))
	runLanes(rc, laned, max(1, p.Lanes))
	runLanes(rc, serial, 1)
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, fmt.Errorf("peak RSS: %w", err)
	}

	// The gate, untimed and serial: every patch is checked against the
	// instance as generated. A traced run records each check as a child
	// of its cell; it lies after the cell's interval.
	for _, c := range cells {
		t0 := time.Now()
		verifyCell(c)
		rc.tr.add("cec.verify_patch", c.key(), c.root, t0, time.Now(), false)
	}

	return table1Report(rc, p, rep, cells, setups, rss, rssNote)
}

func runLanes(rc *runCtx, cells []*t1cell, lanes int) {
	work := make(chan *t1cell)
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				runCell(rc, c)
			}
		}()
	}
	for _, c := range cells {
		work <- c
	}
	close(work)
	wg.Wait()
}

func cellOptions(u *t1unit, mode string) (ecopatch.Options, error) {
	opt, err := bench.Table1Options(mode, bench.StructuralUnits[u.cfg.Name])
	if err != nil {
		return opt, err
	}
	opt.Parallelism = 1
	return opt, nil
}

func runCell(rc *runCtx, c *t1cell) {
	key := c.key()
	c.root = rc.tr.reserve("cell", key)
	cellStart := time.Now()
	defer func() { rc.tr.finish(c.root, cellStart, time.Now()) }()

	t0 := time.Now()
	inst, err := ecopatch.LoadDir(c.u.dir)
	t1 := time.Now()
	c.loadS = t1.Sub(t0).Seconds()
	rc.tr.add("netlist.load", key, c.root, t0, t1, false)
	if err != nil {
		c.err = err
		return
	}
	opt, err := cellOptions(c.u, c.mode)
	if err != nil {
		c.err = err
		return
	}

	t0 = time.Now()
	c.res, c.err = ecopatch.SolveContext(context.Background(), inst, opt)
	t1 = time.Now()
	c.solveS = t1.Sub(t0).Seconds()
	sid := rc.tr.add("eco.solve", key, c.root, t0, t1, false)
	if c.res != nil {
		st := c.res.Stats
		sup, pat, ver := st.SupportTime.Seconds(), st.PatchTime.Seconds(), st.VerifyTime.Seconds()
		rc.tr.stages(sid, key, []string{"eco.support", "eco.patch", "eco.verify", "eco.other"},
			[]float64{sup, pat, ver, c.solveS - sup - pat - ver})
	}
}

// verifyCell is the independent check of one cell's patch against the
// instance as generated.
func verifyCell(c *t1cell) {
	if c.err != nil || c.res == nil || c.res.Patch == nil {
		return
	}
	t0 := time.Now()
	c.ok, c.verr = ecopatch.VerifyPatch(c.u.gen, c.res.Patch)
	c.verifyS = time.Since(t0).Seconds()
}

// recomputeCost sums the weight-file cost of a patch's inputs.
func recomputeCost(weightFile string, inputs []string) (int, error) {
	f, err := os.Open(weightFile)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w, err := ecopatch.ParseWeights(f)
	if err != nil {
		return 0, err
	}
	return patchCost(w, inputs), nil
}

// patchCost is the cost of the distinct signals a patch reads.
func patchCost(w *ecopatch.Weights, inputs []string) int {
	seen := make(map[string]bool)
	cost := 0
	for _, in := range inputs {
		if !seen[in] {
			seen[in] = true
			cost += w.Cost(in)
		}
	}
	return cost
}

func table1Report(rc *runCtx, p table1Params, rep *report, cells []*t1cell, setups []float64, rss float64, rssNote string) (*report, error) {
	var (
		wall, loadS, verifyS        float64
		sup, pat, ver               float64
		cost, gates                 int
		solveMS                     []float64
		st                          ecopatch.Stats
		rewriteBefore, rewriteAfter int64
		rewriteS                    float64
	)
	for _, c := range cells {
		key := c.key()
		rep.attempted++
		wall += c.solveS
		loadS += c.loadS
		verifyS += c.verifyS
		solveMS = append(solveMS, c.solveS*1000)
		if c.err != nil {
			rep.fail("%s: solve error: %v", key, c.err)
			continue
		}
		// One failure per cell: the first check it misses.
		var why string
		switch {
		case c.res.TimedOut:
			why = "timed out"
		case !c.res.Feasible:
			why = "infeasible verdict on a feasible-by-construction instance"
		case c.res.Patch == nil:
			why = "no patch"
		case c.verr != nil:
			why = fmt.Sprintf("VerifyPatch error: %v", c.verr)
		case !c.ok:
			why = "patch fails VerifyPatch"
		}
		s := c.res.Stats
		st.Add(s)
		sup += s.SupportTime.Seconds()
		pat += s.PatchTime.Seconds()
		ver += s.VerifyTime.Seconds()
		rewriteBefore += s.RewriteNodesBefore
		rewriteAfter += s.RewriteNodesAfter
		rewriteS += s.RewriteTime.Seconds()
		gates += c.res.TotalGates
		if c.res.Patch != nil {
			got, err := recomputeCost(filepath.Join(c.u.dir, "weight.txt"), c.res.Patch.Inputs)
			switch {
			case err != nil && why == "":
				why = fmt.Sprintf("recompute cost: %v", err)
			case got != c.res.TotalCost && why == "":
				why = fmt.Sprintf("recomputed cost %d != reported TotalCost %d", got, c.res.TotalCost)
			}
			cost += got
		}
		if why != "" {
			rep.fail("%s: %s", key, why)
		}
	}
	tp, tv := tail(solveMS)
	n := float64(len(cells))
	rep.info = append(rep.info,
		fmt.Sprintf("table1: set-up samples %v s", roundAll(setups)))
	rep.e2e = []metric{
		{"setup_s", "s", median(setups), fmt.Sprintf("median of %d: LoadDir of every unit + first solve", len(setups))},
		{"wall_s", "s", wall, "sum of the solve calls of one pass"},
		{"cost_total", "weight", float64(cost), "support cost recomputed from patch inputs and weight.txt"},
		{"gates_total", "and_gates", float64(gates), "sum of patch gates"},
		{"peak_rss_mb", "MiB", rss, rssNote},
		{"job_p50_ms", "ms", median(solveMS), fmt.Sprintf("median cell solve time, n=%d", len(solveMS))},
		{"job_tail_ms", "ms", tv, fmt.Sprintf("p%g cell solve time, n=%d", tp, len(solveMS))},
		{"max_rate_jobs_s", "jobs/s", frac(n, wall), fmt.Sprintf("cells %d / wall_s: derived from wall_s, no separate signal", len(cells))},
	}
	other := wall - sup - pat - ver
	rep.layer = append(ecoLayer(wall, sup, pat, ver, other, st, "sum over cells of the SolveContext span"),
		satLayer(st.Solver.SolveCalls, st.Solver.Conflicts, st.Solver.Decisions, st.Solver.Propagations, wall)...)
	rep.layer = append(rep.layer,
		metric{"cec.verify_patch_s", "s", verifyS, "benchmark's VerifyPatch span, summed over cells"},
		metric{"netlist.load_s", "s", loadS, "LoadDir of each cell's instance, summed over cells"},
	)
	rep.layer = append(rep.layer, aigSimLayer(rewriteBefore, rewriteAfter, rewriteS, st.SimElided, st.SATCalls, st.SimPruned)...)
	rep.layer = append(rep.layer, notServed("table1 solves in-process: no daemon, cache or log")...)
	return rep, nil
}

func orderNote(rc *runCtx, p table1Params) string {
	if !p.SeededOrder {
		return "suite order (fixed for this workload)"
	}
	if rc.opt.seed == rc.opt.p.DefaultSeed {
		return "suite order (default seed)"
	}
	return fmt.Sprintf("shuffled by seed %d", rc.opt.seed)
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1e4+0.5)) / 1e4
	}
	return out
}

// ecoLayer builds the eco.* metrics; solve is the measured span the
// stage split has to add up to.
func ecoLayer(solve, sup, pat, ver, other float64, st ecopatch.Stats, solveNote string) []metric {
	return []metric{
		{"eco.solve_s", "s", solve, solveNote},
		{"eco.support_s", "s", sup, "Stats.SupportTime"},
		{"eco.patch_s", "s", pat, "Stats.PatchTime"},
		{"eco.verify_s", "s", ver, "Stats.VerifyTime"},
		{"eco.other_s", "s", other, fmt.Sprintf("eco.solve_s %.4g - support %.4g - patch %.4g - verify %.4g", solve, sup, pat, ver)},
		{"eco.sat_calls", "count", float64(st.SATCalls), "Stats.SATCalls"},
		{"eco.minimize_calls", "count", float64(st.MinimizeCalls), "Stats.MinimizeCalls"},
		{"eco.cubes", "count", float64(st.CubesEnumerated), "Stats.CubesEnumerated"},
		{"eco.divisors", "count", float64(st.Divisors), "Stats.Divisors"},
		{"eco.structural_fixes", "count", float64(st.StructuralFixes), "Stats.StructuralFixes"},
	}
}

func satLayer(calls, conflicts, decisions, props int64, solveS float64) []metric {
	return []metric{
		{"sat.solve_calls", "count", float64(calls), "Stats.Solver.SolveCalls"},
		{"sat.conflicts", "count", float64(conflicts), ""},
		{"sat.decisions", "count", float64(decisions), ""},
		{"sat.propagations", "count", float64(props), ""},
		{"sat.props_per_s", "1/s", frac(float64(props), solveS), fmt.Sprintf("propagations %d / eco.solve_s %.4g", props, solveS)},
	}
}

func aigSimLayer(before, after int64, rewriteS float64, elided, satCalls, pruned int64) []metric {
	removed := 0.0
	if before > 0 {
		removed = 1 - float64(after)/float64(before)
	}
	return []metric{
		{"aig.rewrite_removed_frac", "ratio", removed, fmt.Sprintf("1 - nodes after %d / nodes before %d", after, before)},
		{"aig.rewrite_s", "s", rewriteS, "Stats.RewriteTime"},
		{"sim.elided_frac", "ratio", frac(float64(elided), float64(satCalls)), fmt.Sprintf("SimElided %d / eco.sat_calls %d", elided, satCalls)},
		{"sim.pruned", "count", float64(pruned), "Stats.SimPruned"},
	}
}

// notServed lists the daemon-side metrics, which read 0 on a workload
// that never goes through ecod.
func notServed(why string) []metric {
	names := []struct{ name, unit string }{
		{"cache.dup_share", "ratio"},
		{"cache.result_hit_frac", "ratio"},
		{"cache.solve_hit_frac", "ratio"},
		{"server.submit_p50_ms", "ms"},
		{"server.submit_tail_ms", "ms"},
		{"server.poll_p50_ms", "ms"},
		{"server.queue_wait_p50_ms", "ms"},
		{"server.queue_wait_tail_ms", "ms"},
		{"server.solve_p50_ms", "ms"},
		{"server.shed", "count"},
		{"persist.records", "count"},
		{"persist.bytes", "bytes"},
		{"persist.fsync_batches", "count"},
		{"persist.records_per_fsync", "ratio"},
	}
	out := make([]metric, len(names))
	for i, n := range names {
		out[i] = metric{n.name, n.unit, 0, "n/a: " + why}
	}
	return out
}
