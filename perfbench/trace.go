package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"teccl/internal/core"
)

// span is one traced interval recorded from this benchmark's own code:
// a call into a layer's public entry point, or a phase boundary the
// planner reported through its Progress hook. Spans of one operation
// share Req; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced runs stay untraced.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its index for children to reference.
func (t *tracer) add(name string, req, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sample is one Progress callback with its arrival time.
type sample struct {
	at time.Time
	p  core.Progress
}

// progressLog collects the Progress samples of one operation.
type progressLog struct {
	mu      sync.Mutex
	samples []sample
}

func (l *progressLog) hook(p core.Progress) {
	now := time.Now()
	l.mu.Lock()
	l.samples = append(l.samples, sample{now, p})
	l.mu.Unlock()
}

func (l *progressLog) take() []sample {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.samples
	l.samples = nil
	return s
}

// phases is one operation's time split by layer, derived from the
// Progress samples between the call's start and return.
type phases struct {
	build    time.Duration // call → first sample (instance prep, model build)
	post     time.Duration // last sample → return (peel, validate, makespan)
	lp       time.Duration // "model" → last LP sample
	milpRoot time.Duration // "model" → first "branch"
	milpBB   time.Duration // first → last "branch"
	astar    time.Duration // first → last A* sample
	horizon  time.Duration // first → last horizon sample
	windows  []time.Duration
	sampled  bool
}

// derivePhases splits [start, end] at the Progress samples and records
// the pieces as child spans of the operation's root span. A call that
// failed spent its tail in the solver, not in post-processing.
func derivePhases(tr *tracer, req, root int, start, end time.Time, ss []sample, failed bool) phases {
	var ph phases
	if len(ss) == 0 {
		return ph
	}
	ph.sampled = true
	first, last := ss[0].at, ss[len(ss)-1].at
	if failed {
		last = end
	}
	ph.build, ph.post = first.Sub(start), end.Sub(last)
	tr.add("core.build", req, root, start, first)
	tr.add("core.post", req, root, last, end)
	var model, firstBranch, lastBranch time.Time
	prevWindow := first
	for _, s := range ss {
		switch s.p.Phase {
		case "model":
			if model.IsZero() {
				model = s.at
			}
		case "branch":
			if s.p.Solver == "milp" {
				if firstBranch.IsZero() {
					firstBranch = s.at
				}
				lastBranch = s.at
			}
		case "window":
			ph.windows = append(ph.windows, s.at.Sub(prevWindow))
			tr.add("horizon.window", req, root, prevWindow, s.at)
			prevWindow = s.at
		}
	}
	switch ss[0].p.Solver {
	case "lp":
		if !model.IsZero() {
			ph.lp = last.Sub(model)
			tr.add("lp.solve", req, root, model, last)
		}
	case "milp":
		if !model.IsZero() {
			rootEnd := last
			if !firstBranch.IsZero() {
				rootEnd = firstBranch
				ph.milpBB = lastBranch.Sub(firstBranch)
				tr.add("milp.bb", req, root, firstBranch, lastBranch)
			}
			ph.milpRoot = rootEnd.Sub(model)
			tr.add("milp.root", req, root, model, rootEnd)
		}
	case "astar":
		ph.astar = last.Sub(first)
		tr.add("astar", req, root, first, last)
	case "horizon":
		ph.horizon = last.Sub(first)
	}
	return ph
}

// layerRows formats per-layer self-time totals, largest first.
func layerRows(self map[string]time.Duration) []string {
	type kv struct {
		name string
		d    time.Duration
	}
	var all []kv
	var total time.Duration
	for k, v := range self {
		all = append(all, kv{k, v})
		total += v
	}
	sort.Slice(all, func(i, j int) bool { return all[i].d > all[j].d })
	var rows []string
	for _, e := range all {
		rows = append(rows, fmt.Sprintf("self %-20s %10.1f ms %5.1f%%", e.name, ms(e.d), 100*frac(int(e.d), int(total))))
	}
	return rows
}
