package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Start and End are seconds since the run began. Parent
// is 0 for a root span. Reported marks intervals built from times the
// program itself reported (job API timestamps, eco.Stats stage times)
// rather than measured by the benchmark; Synthetic marks reported
// stage durations that carry no position of their own and are laid end
// to end inside their parent.
type span struct {
	ID        int     `json:"id"`
	Parent    int     `json:"parent"`
	Name      string  `json:"name"`
	Key       string  `json:"key"` // cell or job identifier shared by a request's spans
	Start     float64 `json:"start_s"`
	End       float64 `json:"end_s"`
	Reported  bool    `json:"reported,omitempty"`
	Synthetic bool    `json:"synthetic,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing, so untraced runs pay one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool, t0 time.Time) *tracer { return &tracer{on: on, t0: t0} }

// add records a finished interval and returns its ID (0 when off).
func (t *tracer) add(name, key string, parent int, start, end time.Time, reported bool) int {
	if t == nil || !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Key: key,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
		Reported: reported,
	})
	return id
}

// reserve allocates an ID for a root span whose end is not known yet;
// finish fills it in. Children can name the reserved ID as parent.
func (t *tracer) reserve(name, key string) int {
	if t == nil || !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Key: key})
	return id
}

func (t *tracer) finish(id int, start, end time.Time) {
	if t == nil || !t.on || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.Start, s.End = start.Sub(t.t0).Seconds(), end.Sub(t.t0).Seconds()
}

// stages splits a measured span into reported stage durations laid end
// to end from its start, so a parent's self time is exactly the part
// the stages do not explain.
func (t *tracer) stages(parent int, key string, names []string, secs []float64) {
	if t == nil || !t.on || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.spans[parent-1].Start
	for i, name := range names {
		id := len(t.spans) + 1
		t.spans = append(t.spans, span{
			ID: id, Parent: parent, Name: name, Key: key,
			Start: at, End: at + secs[i], Reported: true, Synthetic: true,
		})
		at += secs[i]
	}
}

// layerTime is the per-span-name aggregate printed by the traced run.
type layerTime struct {
	Name  string
	Count int
	Total float64
	Self  float64
}

// selfTimes returns, per span name, the summed duration and the summed
// self time: a span's duration minus the part of its interval that its
// children cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range t.spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += d
		lt.Self += d - covered(s.Start, s.End, children[s.ID])
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi float64, ivs [][2]float64) float64 {
	if len(ivs) == 0 {
		return 0
	}
	c := make([][2]float64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			c = append(c, [2]float64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	total, curA, curB := 0.0, 0.0, -1.0
	for i, iv := range c {
		if i == 0 || iv[0] > curB {
			if i > 0 {
				total += curB - curA
			}
			curA, curB = iv[0], iv[1]
		} else if iv[1] > curB {
			curB = iv[1]
		}
	}
	if len(c) > 0 {
		total += curB - curA
	}
	return total
}

// printSelfTimes writes the per-layer self-time table.
func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "trace: %-20s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, lt := range t.selfTimes() {
		fmt.Fprintf(w, "trace: %-20s %8d %12.4f %12.4f\n", lt.Name, lt.Count, lt.Total, lt.Self)
	}
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
