package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// printedNames lists the metric names a run puts in its JSON line.
func printedNames(rep *report, trace bool) []string {
	list := rep.e2e
	if trace {
		list = rep.layer
	}
	names := make([]string, 0, len(list))
	for _, m := range list {
		names = append(names, m.name)
	}
	return names
}

// nameDiff compares printed and declared names in both directions and
// describes the difference; "" means they are equal.
func nameDiff(got, want []string) string {
	g, w := make(map[string]bool), make(map[string]bool)
	for _, n := range got {
		g[n] = true
	}
	for _, n := range want {
		w[n] = true
	}
	var missing, extra []string
	for n := range w {
		if !g[n] {
			missing = append(missing, n)
		}
	}
	for n := range g {
		if !w[n] {
			extra = append(extra, n)
		}
	}
	if len(got) != len(g) {
		extra = append(extra, "(a name printed twice)")
	}
	if len(missing) == 0 && len(extra) == 0 {
		return ""
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Sprintf("declared but not printed %v; printed but not declared %v", missing, extra)
}

// unitDiff reports printed units that differ from the declared ones.
func unitDiff(rep *report, trace bool, d declared) string {
	list := rep.e2e
	if trace {
		list = rep.layer
	}
	var bad []string
	for _, m := range list {
		if u, ok := d.units[m.name]; ok && u != m.unit {
			bad = append(bad, fmt.Sprintf("%s: printed %q, declared %q", m.name, m.unit, u))
		}
	}
	return strings.Join(bad, "; ")
}

// runSelfcheck runs every workload at its smallest size, untraced and
// traced, and checks that the printed metric names and units equal the
// ones BENCHMARK.json declares, in both directions.
func runSelfcheck(opt options, d declared) int {
	ok := true
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			o := opt
			o.workload, o.trace, o.small = name, trace, true
			o.seconds = min(o.seconds, 4)
			rep, err := runOne(o, io.Discard)
			if err != nil {
				fmt.Printf("selfcheck %s trace=%v: run failed: %v\n", name, trace, err)
				ok = false
				continue
			}
			want := d.e2e
			if trace {
				want = d.layer
			}
			diff := nameDiff(printedNames(rep, trace), want)
			if u := unitDiff(rep, trace, d); u != "" {
				diff += " units: " + u
			}
			status := "ok"
			if diff != "" {
				status = "MISMATCH " + diff
				ok = false
			}
			if len(rep.failures) > 0 {
				status += fmt.Sprintf("; gate failures %v", rep.failures)
				ok = false
			}
			fmt.Printf("selfcheck %-12s trace=%-5v metrics=%d attempted=%d %s\n", name, trace, len(printedNames(rep, trace)), rep.attempted, status)
		}
	}
	if !ok {
		fmt.Println("selfcheck FAILED")
		return 1
	}
	fmt.Println("selfcheck ok")
	return 0
}

// quantile returns the Harrell-Davis estimate of the q-quantile (0..1)
// of xs: every order statistic weighted by the Beta((n+1)q, (n+1)(1-q))
// probability of its rank interval. On a small, uneven sample, such as
// the 40 Table-1 cells, the nearest-rank median jumps between two
// neighbouring cells run to run; this weighted estimate does not.
// q = 0 and q = 1 give the minimum and the maximum; NaN for an empty
// slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[n-1]
	}
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	v, prev := 0.0, 0.0
	for i, x := range s {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		v += x * (cur - prev)
		prev = cur
	}
	return v
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (modified Lentz).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	if x > (a+1)/(a+b+2) {
		return 1 - betaInc(b, a, 1-x)
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		for k := 0; k < 2; k++ {
			var num float64
			if k == 0 {
				num = fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm))
			} else {
				num = -(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1))
			}
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < 1e-14 {
			break
		}
	}
	return front * h / a
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidates for a tail report, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 80, 75, 50}

// tail returns the highest candidate percentile with at least ten
// samples beyond it, its value, and the sample count.
func tail(xs []float64) (pct, value float64) {
	n := len(xs)
	for _, p := range tailPercentiles {
		at := int(math.Ceil(p / 100 * float64(n)))
		if n-at >= 10 {
			return p, quantile(xs, p/100)
		}
	}
	return 100, quantile(xs, 1)
}

// peakRSSMiB reads a process's peak resident set (VmHWM) from /proc.
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%g kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS returns freed heap to the OS and resets this process's
// VmHWM to its current resident set, so a later peakRSSMiB covers only
// what runs after it.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
