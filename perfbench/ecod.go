package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ecopatch"
	"ecopatch/internal/bench"
	"ecopatch/internal/server"
)

// The ecod-mixed workload is an open loop of independent users sending
// jobs to the daemon built from this checkout. One client process sends
// over loopback with at most nproc connections. Jobs are due at the
// times of a Poisson process (a fixed count per step, spread uniformly
// at random over the step, which is a Poisson process conditioned on
// its count); a job is timed from when it was due to when the first
// status poll sees it terminal, so a stalled sender counts against the
// jobs it delays. The daemon runs with nproc workers, its default
// result and solve caches, and persistence to a fresh data directory.

// ereq is one distinct request body.
type ereq struct {
	id      int
	name    string
	support string // "" (daemon default, minimize) or "final"
	body    []byte
	inst    *ecopatch.Instance
	impl    string
	spec    string
	weights string
}

// ejob is one submission: a distinct request or a byte-identical
// resubmission of an earlier one.
type ejob struct {
	req  *ereq
	dup  bool
	step int
	at   time.Duration // due time after the step starts

	due, sent, end time.Time
	submitMS       float64
	pollMS         []float64
	shed           bool
	err            error
	status         *server.JobStatus
}

func (j *ejob) latencyMS() float64 { return j.end.Sub(j.due).Seconds() * 1000 }

type estep struct {
	rate       float64
	jobs       []*ejob
	sent       int
	aborted    bool // backlog reached the cap: the step stopped sending
	maxBacklog int  // jobs outstanding when a job was due, highest seen
	pass       bool
	why        string
	lateMS     []float64
}

type ecodRun struct {
	rc      *runCtx
	p       ecodParams
	nproc   int
	client  *http.Client
	base    string
	pollMin time.Duration
	pollMax time.Duration
	outst   atomic.Int64
}

func runEcodMixed(rc *runCtx) (*report, error) {
	p := rc.opt.p.EcodMixed
	e := &ecodRun{rc: rc, p: p, nproc: runtime.NumCPU()}
	e.pollMin = time.Duration(p.PollMinMS * float64(time.Millisecond))
	e.pollMax = time.Duration(p.PollMaxMS * float64(time.Millisecond))
	rep := &report{overheadBase: "job_p50_ms"}
	if rc.opt.ecodBin == "" {
		return nil, errors.New("no ecod binary given (-ecod)")
	}

	steps, reqs, err := e.schedule()
	if err != nil {
		return nil, err
	}

	// Set-up: daemon start until /healthz answers, with a fresh data
	// directory each time; the last start serves the load.
	var setups []float64
	var d *daemon
	for i := 0; i < p.SetupRep; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		d, took, err = startDaemon(rc, e.nproc, filepath.Join(rc.workDir, fmt.Sprintf("data%d", i)), i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer d.stop()
	e.base = d.base
	tr := &http.Transport{
		MaxConnsPerHost:     e.nproc,
		MaxIdleConnsPerHost: e.nproc,
		DisableCompression:  true,
	}
	defer tr.CloseIdleConnections()
	e.client = &http.Client{Transport: tr, Timeout: 60 * time.Second}

	// The client keeps to one core so that its polling competes with
	// the daemon's workers as little as it can.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// The ladder: the nominal step first, then each higher rate until
	// one misses the limit. Peak memory is read after the nominal step:
	// how far an overloaded step gets before it stops varies by run.
	maxRate := 0.0
	var rss float64
	for i, st := range steps {
		e.runStep(st)
		if i == 0 {
			if rss, err = peakRSSMiB(d.cmd.Process.Pid); err != nil {
				return nil, fmt.Errorf("daemon peak RSS: %w", err)
			}
		}
		if !st.pass {
			break
		}
		maxRate = st.rate
		if i == 0 && rc.opt.small {
			break
		}
	}

	metrics, merr := e.scrape()
	if err := d.stop(); err != nil {
		return nil, err
	}
	if merr != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", merr)
	}

	return e.report(rep, steps, reqs, setups, metrics, rss, maxRate)
}

// schedule builds every step's jobs. The distinct requests are a fixed
// pool, the same for every seed, so result quality and solve work are
// comparable across seeds; the seed sets the arrival times, the order,
// where the heavy jobs fall, and which earlier requests are resubmitted.
// Each step holds fixed shares of resubmissions and heavy jobs.
func (e *ecodRun) schedule() ([]*estep, []*ereq, error) {
	p := e.p
	rng := rand.New(rand.NewSource(e.rc.opt.seed))
	secs := float64(e.rc.opt.seconds)
	type stepDef struct {
		rate float64
		n    int
	}
	// The nominal step gets NominalShare of the window; the higher
	// rates split the rest, since each only has to pass or fail.
	defs := []stepDef{{p.NominalRate, int(math.Round(p.NominalRate * secs * p.NominalShare))}}
	var higher []float64
	for _, r := range p.Ladder {
		if r > p.NominalRate {
			higher = append(higher, r)
		}
	}
	for _, r := range higher {
		defs = append(defs, stepDef{r, int(math.Round(r * secs * (1 - p.NominalShare) / float64(len(higher))))})
	}

	// Resubmissions repeat one of the last DupWindow small requests, so
	// how many of them wait on a heavy job does not depend on the seed.
	var reqs, smalls []*ereq
	var steps []*estep
	nSmall, nHeavy := 0, 0
	for si, def := range defs {
		n := max(def.n, 4)
		dups := int(math.Round(p.DupShare * float64(n)))
		heavy := int(math.Round(p.HeavyShare * float64(n)))
		if e.rc.opt.small {
			heavy = 0
		}
		// Positions: one heavy job inside the middle half of each equal
		// slice of the step, so whether two heavy jobs overlap does not
		// depend on the seed; resubmissions at random other positions
		// (never the first); small jobs everywhere else.
		kinds := make([]byte, n)
		for k := 0; k < heavy; k++ {
			w := n / heavy
			kinds[k*w+w/4+rng.Intn(max(1, w/2))] = 'h'
		}
		var free []int
		for i := 1; i < n; i++ {
			if kinds[i] == 0 {
				free = append(free, i)
			}
		}
		rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
		for _, i := range free[:min(dups, len(free))] {
			kinds[i] = 'd'
		}

		// This step's distinct requests; small ones in seeded order.
		var heavies, fresh []*ereq
		for _, k := range kinds {
			var r *ereq
			var err error
			switch k {
			case 'h':
				r, err = e.newRequest(len(reqs)+len(heavies)+len(fresh), p.HeavyUnits[nHeavy%len(p.HeavyUnits)], 0)
				heavies = append(heavies, r)
				nHeavy++
			case 0:
				r, err = e.newRequest(len(reqs)+len(heavies)+len(fresh), "", nSmall)
				fresh = append(fresh, r)
				nSmall++
			}
			if err != nil {
				return nil, nil, err
			}
		}
		rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })

		window := time.Duration(float64(n) / def.rate * float64(time.Second))
		ats := make([]time.Duration, n)
		for i := range ats {
			ats[i] = time.Duration(rng.Int63n(int64(window)))
		}
		sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
		st := &estep{rate: def.rate}
		for i, k := range kinds {
			j := &ejob{step: si, at: ats[i]}
			switch k {
			case 'd':
				from := smalls
				if len(from) == 0 {
					from = reqs
				}
				lo := max(0, len(from)-p.DupWindow)
				j.req, j.dup = from[lo+rng.Intn(len(from)-lo)], true
			case 'h':
				j.req, heavies = heavies[0], heavies[1:]
				reqs = append(reqs, j.req)
			default:
				j.req, fresh = fresh[0], fresh[1:]
				reqs = append(reqs, j.req)
				smalls = append(smalls, j.req)
			}
			st.jobs = append(st.jobs, j)
		}
		steps = append(steps, st)
	}
	return steps, reqs, nil
}

// newRequest builds one distinct request: suite unit heavy when named
// (about half a second of solving), else small pool instance k, a generated
// instance that solves in tens of milliseconds. Pool instances do not
// depend on the seed.
func (e *ecodRun) newRequest(id int, heavy string, k int) (*ereq, error) {
	var cfg bench.Config
	if heavy != "" {
		c, err := bench.ConfigByName(1, heavy)
		if err != nil {
			return nil, err
		}
		cfg = c
	} else {
		cfg = bench.Config{
			Name:    fmt.Sprintf("pool%d", k),
			Seed:    9000 + int64(k),
			Targets: 1 + (k/4)%2,
			Profile: bench.WeightProfile((k / 4) % 8),
		}
		switch k % 4 {
		case 0, 1:
			cfg.Family, cfg.Size = bench.FamRandom, 80+(k*37)%60
		case 2:
			cfg.Family, cfg.Size = bench.FamALU, 6+k%3
		case 3:
			cfg.Family, cfg.Size = bench.FamAdder, 6+k%5
		}
	}
	inst, err := bench.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", cfg.Name, err)
	}
	r := &ereq{id: id, name: cfg.Name, inst: inst}
	if heavy == "" && k%int(math.Round(1/e.p.FinalShare)) == 0 {
		r.support = "final"
	}
	var impl, spec, w strings.Builder
	if err := ecopatch.WriteNetlist(&impl, inst.Impl); err != nil {
		return nil, err
	}
	if err := ecopatch.WriteNetlist(&spec, inst.Spec); err != nil {
		return nil, err
	}
	for _, sig := range sortedKeys(inst.Weights.Costs) {
		fmt.Fprintf(&w, "%s %d\n", sig, inst.Weights.Costs[sig])
	}
	r.impl, r.spec, r.weights = impl.String(), spec.String(), w.String()
	r.body, err = json.Marshal(server.JobRequest{
		Name:    cfg.Name,
		Impl:    r.impl,
		Spec:    r.spec,
		Weights: r.weights,
		Options: server.JobOptions{Support: r.support},
	})
	return r, err
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runStep sends one step's jobs on schedule and waits for all of them.
func (e *ecodRun) runStep(st *estep) {
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for _, j := range st.jobs {
		j.due = start.Add(j.at)
		time.Sleep(time.Until(j.due))
		backlog := int(e.outst.Load())
		st.maxBacklog = max(st.maxBacklog, backlog)
		if backlog >= e.p.BacklogCap {
			// The daemon is not keeping up; stop before its admission
			// queue fills and sheds.
			st.aborted = true
			break
		}
		st.sent++
		e.outst.Add(1)
		wg.Add(1)
		go func(j *ejob) {
			defer wg.Done()
			defer e.outst.Add(-1)
			e.handle(j)
		}(j)
	}
	wg.Wait()

	var lat []float64
	shed, errs := 0, 0
	for _, j := range st.jobs[:st.sent] {
		st.lateMS = append(st.lateMS, j.sent.Sub(j.due).Seconds()*1000)
		switch {
		case j.shed:
			shed++
		case j.err != nil:
			errs++
		default:
			lat = append(lat, j.latencyMS())
		}
	}
	_, tv := tail(lat)
	switch {
	case st.aborted:
		st.why = fmt.Sprintf("backlog grew to %d outstanding jobs; sending stopped", e.p.BacklogCap)
	case shed > 0:
		st.why = fmt.Sprintf("%d shed", shed)
	case errs > 0:
		st.why = fmt.Sprintf("%d errors", errs)
	case tv > e.p.LatencyLimitMS:
		st.why = fmt.Sprintf("tail %.0f ms over the %.0f ms limit", tv, e.p.LatencyLimitMS)
	default:
		st.pass = true
		st.why = "met"
	}
}

// handle submits one job and polls it until it is terminal.
func (e *ecodRun) handle(j *ejob) {
	key := fmt.Sprintf("job%d.%d", j.step, j.req.id)
	if j.dup {
		key += "-dup"
	}
	root := e.rc.tr.reserve("job", key)
	defer func() { e.rc.tr.finish(root, j.due, j.end) }()

	j.sent = time.Now()
	resp, err := e.client.Post(e.base+"/v1/jobs", "application/json", bytes.NewReader(j.req.body))
	if err != nil {
		j.err, j.end = err, time.Now()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	now := time.Now()
	j.submitMS = now.Sub(j.sent).Seconds() * 1000
	e.rc.tr.add("server.submit", key, root, j.sent, now, false)
	if resp.StatusCode == http.StatusTooManyRequests {
		j.shed, j.end = true, now
		return
	}
	if resp.StatusCode != http.StatusCreated {
		j.err, j.end = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body)), now
		return
	}
	var st server.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		j.err, j.end = fmt.Errorf("submit: %w", err), now
		return
	}
	deadline := now.Add(90 * time.Second)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			j.err, j.end = fmt.Errorf("job %s still %s after 90 s", st.ID, st.State), time.Now()
			return
		}
		// Poll at a fixed fraction of the job's age, within fixed
		// limits, so short jobs are seen finishing promptly and long
		// ones do not flood the daemon with status requests.
		age := time.Since(j.sent)
		time.Sleep(min(max(time.Duration(float64(age)*e.p.PollAgeFrac), e.pollMin), e.pollMax))
		t0 := time.Now()
		resp, err := e.client.Get(e.base + "/v1/jobs/" + st.ID)
		if err != nil {
			j.err, j.end = err, time.Now()
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		t1 := time.Now()
		j.pollMS = append(j.pollMS, t1.Sub(t0).Seconds()*1000)
		e.rc.tr.add("server.poll", key, root, t0, t1, false)
		if err != nil || resp.StatusCode != http.StatusOK {
			j.err, j.end = fmt.Errorf("poll %s: HTTP %d %v", st.ID, resp.StatusCode, err), t1
			return
		}
		st = server.JobStatus{}
		if err := json.Unmarshal(body, &st); err != nil {
			j.err, j.end = fmt.Errorf("poll %s: %w", st.ID, err), t1
			return
		}
	}
	j.end = time.Now()
	j.status = &st
	if st.StartedAt != nil && st.FinishedAt != nil {
		e.rc.tr.add("server.queue", key, root, st.QueuedAt, *st.StartedAt, true)
		e.rc.tr.add("server.solve", key, root, *st.StartedAt, *st.FinishedAt, true)
	}
}

func (e *ecodRun) scrape() (map[string]float64, error) {
	resp, err := e.client.Get(e.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// gate checks every job after the daemon has stopped: each distinct
// request's patch, parsed back from the job result, must pass
// VerifyPatch against the instance the benchmark generated and cost
// what the result says; each resubmission must carry the same result.
func (e *ecodRun) gate(rep *report, steps []*estep) (loadS, verifyS float64) {
	first := make(map[int]*ejob)
	for _, st := range steps {
		for _, j := range st.jobs[:st.sent] {
			rep.attempted++
			key := fmt.Sprintf("step%d/%s", j.step, j.req.name)
			switch {
			case j.shed:
				rep.fail("%s: shed (429)", key)
				continue
			case j.err != nil:
				rep.fail("%s: %v", key, j.err)
				continue
			case j.status.State != server.StateDone:
				rep.fail("%s: state %s: %s", key, j.status.State, j.status.Error)
				continue
			case j.status.Result == nil:
				rep.fail("%s: no result", key)
				continue
			}
			res := j.status.Result
			if f, ok := first[j.req.id]; ok {
				fr := f.status.Result
				if fr.Cost != res.Cost || fr.PatchGates != res.PatchGates || fr.Patch != res.Patch {
					rep.fail("%s: resubmission result differs from the first submission's", key)
				}
				continue
			}
			first[j.req.id] = j
			if !res.Feasible {
				rep.fail("%s: infeasible verdict on a feasible-by-construction instance", key)
				continue
			}
			if res.TimedOut {
				rep.fail("%s: timed out", key)
				continue
			}
			t0 := time.Now()
			patch, err := ecopatch.ParseNetlistString(res.Patch)
			if err == nil {
				_, err = ecopatch.ParseNetlistString(j.req.impl)
			}
			if err == nil {
				_, err = ecopatch.ParseNetlistString(j.req.spec)
			}
			t1 := time.Now()
			loadS += t1.Sub(t0).Seconds()
			e.rc.tr.add("netlist.load", key, 0, t0, t1, false)
			if err != nil {
				rep.fail("%s: parse: %v", key, err)
				continue
			}
			t0 = time.Now()
			ok, err := ecopatch.VerifyPatch(j.req.inst, patch)
			t1 = time.Now()
			verifyS += t1.Sub(t0).Seconds()
			e.rc.tr.add("cec.verify_patch", key, 0, t0, t1, false)
			switch {
			case err != nil:
				rep.fail("%s: VerifyPatch: %v", key, err)
				continue
			case !ok:
				rep.fail("%s: patch fails VerifyPatch", key)
				continue
			}
			w, err := ecopatch.ParseWeights(strings.NewReader(j.req.weights))
			if err != nil {
				rep.fail("%s: weights: %v", key, err)
				continue
			}
			if got := patchCost(w, patch.Inputs); got != res.Cost {
				rep.fail("%s: recomputed cost %d != reported %d", key, got, res.Cost)
			}
		}
	}
	return loadS, verifyS
}

func (e *ecodRun) report(rep *report, steps []*estep, reqs []*ereq, setups []float64, m map[string]float64, rss, maxRate float64) (*report, error) {
	loadS, verifyS := e.gate(rep, steps)

	nom := steps[0]
	var lat, submit, poll, queue, solve []float64
	var wall, sup, pat, ver, rwS float64
	var cost, gates int
	var st ecopatch.Stats
	var rwBefore, rwAfter int64
	for _, j := range nom.jobs[:nom.sent] {
		if j.shed || j.err != nil || j.status == nil {
			continue
		}
		lat = append(lat, j.latencyMS())
		submit = append(submit, j.submitMS)
		poll = append(poll, j.pollMS...)
		s := j.status
		if s.StartedAt == nil || s.FinishedAt == nil || s.Result == nil {
			continue
		}
		qw := s.StartedAt.Sub(s.QueuedAt).Seconds() * 1000
		sv := s.FinishedAt.Sub(*s.StartedAt).Seconds()
		queue = append(queue, qw)
		solve = append(solve, sv*1000)
		r := s.Result
		wall += sv
		sup += r.SupportSec
		pat += r.PatchSec
		ver += r.VerifySec
		gates += r.PatchGates
		cost += r.Cost
		st.SATCalls += r.SATCalls
		st.StructuralFixes += r.Structural
		st.Solver.SolveCalls += r.SATCalls
		st.Solver.Conflicts += r.Conflicts
		st.Solver.Decisions += r.Decisions
		st.Solver.Propagations += r.Propagations
		st.SimElided += r.SimElided
		st.SimPruned += r.SimPruned
		rwBefore += r.RewriteNodesBefore
		rwAfter += r.RewriteNodesAfter
		rwS += r.RewriteSec
	}
	// Counters the job API does not carry come from the one /metrics
	// scrape, which covers the whole run.
	st.MinimizeCalls = int(m["ecod_eco_minimize_calls_total"])
	st.CubesEnumerated = int(m["ecod_eco_cubes_enumerated_total"])

	lp, lv := tail(lat)
	sp, sv := tail(submit)
	qp, qv := tail(queue)
	for i, s := range steps {
		if s.sent == 0 && i > 0 {
			continue
		}
		lt := make([]float64, 0, s.sent)
		for _, j := range s.jobs[:s.sent] {
			if !j.shed && j.err == nil {
				lt = append(lt, j.latencyMS())
			}
		}
		p, v := tail(lt)
		rep.info = append(rep.info, fmt.Sprintf("ecod: step %d rate %5.1f jobs/s sent %d/%d p50 %.1f ms p%g %.1f ms sender late p50 %.2f ms max %.2f ms backlog max %d: %s",
			i, s.rate, s.sent, len(s.jobs), median(lt), p, v, median(s.lateMS), quantile(s.lateMS, 1), s.maxBacklog, s.why))
		if i > 0 && !s.pass {
			break
		}
	}
	rep.info = append(rep.info,
		fmt.Sprintf("ecod: %d distinct requests generated, workers=%d, client GOMAXPROCS=1 during the load, latency limit %.0f ms at the tail percentile", len(reqs), e.nproc, e.p.LatencyLimitMS),
		fmt.Sprintf("ecod: set-up samples %v s", roundAll(setups)))

	submitted := m["ecod_jobs_submitted_total"] + m["ecod_jobs_shed_total"]
	// The resubmission share is measured on the bodies sent: a body
	// counts once it is byte-identical to one sent before.
	dups, total := 0, 0
	seen := make(map[[32]byte]bool)
	for _, s := range steps {
		for _, j := range s.jobs[:s.sent] {
			total++
			h := sha256.Sum256(j.req.body)
			if seen[h] {
				dups++
			}
			seen[h] = true
		}
	}
	hits, att := m["ecod_cache_hits_total"], m["ecod_cache_attached_total"]
	shits, smiss := m["ecod_eco_cache_hits_total"], m["ecod_eco_cache_misses_total"]
	recs, fsyncs := m["ecod_persist_records_total"], m["ecod_persist_fsync_batches_total"]

	rep.e2e = []metric{
		{"setup_s", "s", median(setups), fmt.Sprintf("median of %d daemon starts until /healthz answers", len(setups))},
		{"wall_s", "s", wall, "sum of server solve times (finished_at - started_at) of the nominal step"},
		{"cost_total", "weight", float64(cost), "support cost of the nominal step's solved jobs, recomputed by the gate"},
		{"gates_total", "and_gates", float64(gates), "patch gates of the nominal step's solved jobs"},
		{"peak_rss_mb", "MiB", rss, "daemon VmHWM after the nominal step"},
		{"job_p50_ms", "ms", median(lat), fmt.Sprintf("due to terminal at %.1f jobs/s, n=%d", nom.rate, len(lat))},
		{"job_tail_ms", "ms", lv, fmt.Sprintf("p%g at %.1f jobs/s, n=%d", lp, nom.rate, len(lat))},
		{"max_rate_jobs_s", "jobs/s", maxRate, fmt.Sprintf("highest ladder rate meeting %.0f ms at the tail, with no shed and the backlog under %d", e.p.LatencyLimitMS, e.p.BacklogCap)},
	}
	rep.layer = append(ecoLayer(wall, sup, pat, ver, wall-sup-pat-ver, st, "server-reported solve time, nominal step"),
		satLayer(st.Solver.SolveCalls, st.Solver.Conflicts, st.Solver.Decisions, st.Solver.Propagations, wall)...)
	for i := range rep.layer {
		switch rep.layer[i].name {
		case "eco.sat_calls", "sat.solve_calls":
			rep.layer[i].note = "job result sat_calls (solver invocations)"
		case "eco.minimize_calls", "eco.cubes":
			rep.layer[i].note = "from /metrics, whole run"
		case "eco.divisors":
			rep.layer[i].note = "n/a: not carried by the job API or /metrics"
		}
	}
	rep.layer = append(rep.layer,
		metric{"cec.verify_patch_s", "s", verifyS, "gate VerifyPatch, every distinct request"},
		metric{"netlist.load_s", "s", loadS, "gate parse of each distinct request's impl, spec and patch text"},
	)
	rep.layer = append(rep.layer, aigSimLayer(rwBefore, rwAfter, rwS, st.SimElided, st.SATCalls, st.SimPruned)...)
	rep.layer = append(rep.layer,
		metric{"cache.dup_share", "ratio", frac(float64(dups), float64(total)), fmt.Sprintf("byte-identical resubmissions %d / submissions %d", dups, total)},
		metric{"cache.result_hit_frac", "ratio", frac(hits+att, submitted), fmt.Sprintf("(hits %g + attached %g) / submissions %g", hits, att, submitted)},
		metric{"cache.solve_hit_frac", "ratio", frac(shits, shits+smiss), fmt.Sprintf("eco cache hits %g / (hits + misses %g)", shits, smiss)},
		metric{"server.submit_p50_ms", "ms", median(submit), fmt.Sprintf("POST round trip, n=%d", len(submit))},
		metric{"server.submit_tail_ms", "ms", sv, fmt.Sprintf("p%g, n=%d", sp, len(submit))},
		metric{"server.poll_p50_ms", "ms", median(poll), fmt.Sprintf("GET round trip, n=%d", len(poll))},
		metric{"server.queue_wait_p50_ms", "ms", median(queue), fmt.Sprintf("started_at - queued_at, n=%d", len(queue))},
		metric{"server.queue_wait_tail_ms", "ms", qv, fmt.Sprintf("p%g, n=%d", qp, len(queue))},
		metric{"server.solve_p50_ms", "ms", median(solve), fmt.Sprintf("finished_at - started_at, n=%d", len(solve))},
		metric{"server.shed", "count", m["ecod_jobs_shed_total"], "ecod_jobs_shed_total"},
		metric{"persist.records", "count", recs, "ecod_persist_records_total"},
		metric{"persist.bytes", "bytes", m["ecod_persist_bytes_total"], "ecod_persist_bytes_total"},
		metric{"persist.fsync_batches", "count", fsyncs, "ecod_persist_fsync_batches_total"},
		metric{"persist.records_per_fsync", "ratio", frac(recs, fsyncs), fmt.Sprintf("records %g / fsync batches %g", recs, fsyncs)},
	)
	return rep, nil
}

// daemon is one ecod serve process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	done    chan struct{}
	waitErr error
	stopped bool
}

// startDaemon starts ecod on a free loopback port and returns once
// /healthz answers, with the time that took.
func startDaemon(rc *runCtx, workers int, dataDir string, n int) (*daemon, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(filepath.Join(rc.workDir, fmt.Sprintf("ecod%d.log", n)))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()

	t0 := time.Now()
	cmd := exec.Command(rc.opt.ecodBin, "serve", "-addr", addr, "-workers", strconv.Itoa(workers), "-data-dir", dataDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := t0.Add(30 * time.Second)
	for {
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("ecod exited during start: %v (log %s)", d.waitErr, logf.Name())
		default:
		}
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				took := time.Since(t0)
				hc.CloseIdleConnections()
				return d, took, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("ecod did not answer /healthz within 30 s")
		}
		// A refused connection costs tens of microseconds; a fine poll
		// keeps its granularity well under the few milliseconds a
		// start takes.
		time.Sleep(100 * time.Microsecond)
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if
// it has not exited after 20 s. Safe to call more than once.
func (d *daemon) stop() error {
	if d == nil || d.stopped {
		return nil
	}
	d.stopped = true
	d.cmd.Process.Signal(syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	select {
	case <-d.done:
		return nil
	case <-ctx.Done():
		d.cmd.Process.Kill()
		<-d.done
		return errors.New("ecod did not exit within 20 s of SIGTERM; killed")
	}
}
