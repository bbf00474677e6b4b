package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"teccl/internal/collective"
	"teccl/internal/core"
	_ "teccl/internal/horizon" // registers core.SolverHorizon
	"teccl/internal/topo"
)

// coldRequest is one entry of the cold-solve catalog.
type coldRequest struct {
	name   string
	t      *topo.Topology
	d      *collective.Demand
	opt    core.Options
	solver core.Solver
	// dnf marks the request known to fail at its deadline at this
	// commit (the Table 8-style FastestLink DNF).
	dnf bool
}

// coldLimit bounds every catalog request that is expected to solve; the
// slowest solves in about 5 s.
const coldLimit = 30 * time.Second

// coldMinPasses is the number of passes an untraced run makes at least,
// so that whether a request counts at one time or the median of two
// does not hang on how long the first pass took.
const coldMinPasses = 2

// coldCatalog builds the fixed 14-request catalog of paper instances.
// Sizes follow the paper's tables: size/#GPUs bytes per chunk.
func coldCatalog() []coldRequest {
	def := core.Options{TimeLimit: coldLimit}
	slow := core.Options{EpochMode: core.SlowestLink, TimeLimit: coldLimit}
	makespan := def
	makespan.MinimizeMakespan = true
	em2 := slow
	em2.EpochMultiplier = 2
	window := slow
	window.HorizonWindow, window.HorizonOverlap = 8, 7
	dnf := core.Options{TimeLimit: 10 * time.Second}

	dgx1, ndv2, dgx2 := topo.DGX1(), topo.NDv2Mini(2), topo.DGX2Mini(2)
	i1x2, i2x4, i2x6 := topo.Internal1(2), topo.Internal2(4), topo.Internal2(6)
	return []coldRequest{
		{name: "dgx1-ag-200K", t: dgx1, d: allGather(dgx1, 200e3), opt: def},
		{name: "dgx1-a2a-200K", t: dgx1, d: allToAll(dgx1, 200e3), opt: def},
		{name: "dgx1-a2a-200K-mm", t: dgx1, d: allToAll(dgx1, 200e3), opt: makespan, solver: core.SolverLP},
		{name: "ndv2mini2-a2a-200K-sl", t: ndv2, d: allToAll(ndv2, 200e3), opt: slow, solver: core.SolverLP},
		{name: "internal1x2-a2a-1M", t: i1x2, d: allToAll(i1x2, 1e6), opt: def, solver: core.SolverLP},
		{name: "internal2x4-a2a-16M-sl", t: i2x4, d: allToAll(i2x4, 16e6), opt: slow, solver: core.SolverLP},
		{name: "internal2x6-a2a-16M-em2", t: i2x6, d: allToAll(i2x6, 16e6), opt: em2, solver: core.SolverLP},
		{name: "internal2x4-ag-16M-astar", t: i2x4, d: allGather(i2x4, 16e6), opt: slow, solver: core.SolverAStar},
		{name: "internal2x6-ag-16M-astar", t: i2x6, d: allGather(i2x6, 16e6), opt: em2, solver: core.SolverAStar},
		{name: "ndv2mini2-ag-4M-milp", t: ndv2, d: allGather(ndv2, 4e6), opt: slow, solver: core.SolverMILP},
		{name: "dgx2mini2-ag-1M", t: dgx2, d: allGather(dgx2, 1e6), opt: slow},
		{name: "internal1x2-ag-4M-milp", t: i1x2, d: allGather(i1x2, 4e6), opt: def, solver: core.SolverMILP},
		{name: "ndv2mini2-a2a-200K-horizon", t: ndv2, d: allToAll(ndv2, 200e3), opt: window, solver: core.SolverHorizon},
		{name: "ndv2mini2-a2a-1M-fl", t: ndv2, d: allToAll(ndv2, 1e6), opt: dnf, dnf: true},
	}
}

// coldPass plans every catalog request, in the given order, each on a
// fresh Planner so nothing is reused across requests.
func coldPass(cat []coldRequest, order []int, tr *tracer) ([]*op, time.Duration) {
	log := &progressLog{}
	var ops []*op
	start := time.Now()
	for i, idx := range order {
		c := cat[idx]
		opt := c.opt
		req := core.Request{Demand: c.d, Options: &opt, Solver: c.solver}
		if tr != nil {
			req.Progress = log.hook
		}
		pl := core.NewPlanner(c.t, core.PlannerOptions{})
		p, wall, cpu, ph, err := timedCall(tr, log, i, "plan", func() (*core.Plan, error) {
			return pl.Plan(context.Background(), req)
		})
		pl.Close()
		o := &op{id: c.name, class: "cold", wall: wall, cpu: cpu, err: err, plan: p, t: c.t, d: c.d, ph: ph}
		if c.dnf {
			o.known = &knownFailure{deadline: c.opt.TimeLimit}
		}
		ops = append(ops, o)
	}
	return ops, time.Since(start)
}

// runColdSolve: one or more passes over the catalog, serial, each
// request on a fresh Planner. The seed only permutes the order.
func runColdSolve(cfg config) (*report, error) {
	rep := newReport()
	// Set-up: build the catalog and warm the process with the four
	// smallest solves on throwaway sessions, so the first timed request
	// does not pay for faulting in code and growing the heap.
	cat, setup, err := medianSetup(5, func() ([]coldRequest, error) {
		cat := coldCatalog()
		for _, i := range []int{0, 7, 8, 10} {
			c := cat[i]
			opt := c.opt
			pl := core.NewPlanner(c.t, core.PlannerOptions{})
			_, err := pl.Plan(context.Background(), core.Request{Demand: c.d, Options: &opt, Solver: c.solver})
			pl.Close()
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", c.name, err)
			}
		}
		return cat, nil
	}, func([]coldRequest) {})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(cat))

	// Untraced passes give the end-to-end numbers. The first pass plans
	// every request; later passes, coldMinPasses in all and more while a
	// whole one fits in the budget, repeat the requests that returned a
	// plan. A failed request ran to
	// its deadline and is not repeated.
	budget := time.Duration(cfg.seconds * float64(time.Second))
	began := time.Now()
	goBefore := readGo()
	first, firstWall := coldPass(cat, order, nil)
	goAfter := readGo()
	reps := make([][]*op, len(first))
	var again, againOrder []int
	var againWall time.Duration
	for i, o := range first {
		reps[i] = []*op{o}
		if o.err == nil {
			again = append(again, i)
			againOrder = append(againOrder, order[i])
			againWall += o.wall
		}
	}
	passes := 1
	for !cfg.trace && len(again) > 0 && (passes < coldMinPasses || time.Since(began)+againWall <= budget) {
		ops, _ := coldPass(cat, againOrder, nil)
		for k, i := range again {
			reps[i] = append(reps[i], ops[k])
		}
		passes++
	}
	var all []*op
	for _, r := range reps {
		all = append(all, r...)
	}
	checkOps(rep, all, nil)
	repeatedMetrics(rep, reps, true)
	qualityMetrics(rep, first)
	localLayers(rep, first)

	if cfg.trace {
		// The traced pass gives the per-layer numbers; its wall against
		// the untraced pass is the tracing overhead.
		tr := newTracer()
		rep.spans = tr
		ops, wall := coldPass(cat, order, tr)
		traced := newReport()
		checkOps(traced, ops, tr)
		localLayers(traced, ops)
		goLayer(traced.layer, goBefore, goAfter, len(first))
		rep.layer = traced.layer
		rep.layer["trace.overhead_frac"] = wall.Seconds()/firstWall.Seconds() - 1
		rep.attempted += traced.attempted
		rep.failed += traced.failed
		rep.problems = append(rep.problems, traced.problems...)
	}
	zeroLayers(rep, "replan.incremental_frac", "replan.fallback_frac", "replan.rebase_frac",
		"replan.incremental_ms", "replan.fallback_ms", "replan.pivots", "replan.pivot_ratio",
		"replan.regret_max", "daemon.handler_ms", "daemon.overhead_ms",
		"daemon.rejects", "wire.client_ms", "wire.req_kb", "wire.resp_kb", "gen.late_p99_ms")

	rep.rows = append(rep.rows, fmt.Sprintf("cold-solve: %d pass(es), seed %d, order %v", passes, cfg.seed, order))
	rep.rows = append(rep.rows, fmt.Sprintf("%-28s %-8s %10s %10s %7s %6s %6s %6s %7s %9s  %s",
		"request", "solver", "time_ms", "wall_ms", "iters", "nodes", "refac", "rounds", "windows", "lb_ratio", "outcome"))
	for i, o := range first {
		var c, w []float64
		for _, a := range reps[i] {
			c = append(c, ms(a.time()))
			w = append(w, ms(a.wall))
		}
		solver, outcome := "-", "ok"
		var it, nodes, refac, rounds, windows int
		if o.plan != nil && o.plan.Result != nil {
			r := o.plan.Result
			solver = o.plan.Solver.String()
			it, nodes, refac, rounds, windows = r.RootIterations, r.Nodes, r.Refactorizations, r.Rounds, r.Windows
		}
		if !o.ok {
			outcome = "FAILED: " + o.reason
		}
		rep.rows = append(rep.rows, fmt.Sprintf("%-28s %-8s %10.1f %10.1f %7d %6d %6d %6d %7d %9.3f  %s",
			o.id, solver, median(c), median(w), it, nodes, refac, rounds, windows, o.v.lbRatio, outcome))
	}
	rep.rows = append(rep.rows, fmt.Sprintf("cold-solve fail_frac %.4f (%d of %d requests per pass did not return a checked plan)",
		1-rep.e2e["ok_frac"], len(first)-len(okOps(first)), len(first)))
	return rep, nil
}
