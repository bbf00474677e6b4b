package main

import (
	"fmt"
	"strings"
	"time"

	"teccl/internal/collective"
	"teccl/internal/core"
	"teccl/internal/topo"
)

// op is one timed call into a planner and what checking it found.
type op struct {
	id    string
	class string
	wall  time.Duration
	cpu   time.Duration // process CPU time the call took; see procCPU
	err   error
	plan  *core.Plan
	t     *topo.Topology     // topology the schedule must hold on
	d     *collective.Demand // demand it must satisfy
	// known, when set, is the way this request is known to fail at the
	// commit that added the benchmark. Failing that way is its expected
	// outcome: it lowers ok_frac without counting as a benchmark failure.
	// Any other outcome is checked like every request.
	known    *knownFailure
	expected bool // failed in its known way
	ph       phases
	v        verdict
	ok       bool   // returned a plan that passed every check
	reason   string // why the op is not ok
}

// knownFailure describes an open defect a request runs into: it runs
// out of its TimeLimit (deadline), or errors with one of msgs in the
// message.
type knownFailure struct {
	deadline time.Duration
	msgs     []string
}

// matches reports whether a call that took wall and returned err
// failed in the known way.
func (k *knownFailure) matches(err error, wall time.Duration) bool {
	if k == nil || err == nil {
		return false
	}
	if k.deadline > 0 && wall >= k.deadline*9/10 {
		return true
	}
	for _, m := range k.msgs {
		if strings.Contains(err.Error(), m) {
			return true
		}
	}
	return false
}

// time is what the op counts at in the time metrics: its process CPU
// time, except for a known failure that ran to its deadline, which
// counts at its wall time. Such a call is bounded by the wall clock, so
// its CPU time would only say how much CPU the host granted before the
// deadline.
func (o *op) time() time.Duration {
	if o.expected && o.known.deadline > 0 {
		return o.wall
	}
	return o.cpu
}

// gpuInts lists a topology's GPU node IDs.
func gpuInts(t *topo.Topology) []int {
	var out []int
	for _, g := range t.GPUs() {
		out = append(out, int(g))
	}
	return out
}

// allGather and allToAll size one chunk per GPU as size/#GPUs, the
// convention of the paper's tables.
func allGather(t *topo.Topology, size float64) *collective.Demand {
	g := gpuInts(t)
	return collective.AllGather(t.NumNodes(), g, 1, size/float64(len(g)))
}

func allToAll(t *topo.Topology, size float64) *collective.Demand {
	g := gpuInts(t)
	return collective.AllToAll(t.NumNodes(), g, 1, size/float64(len(g)))
}

// timedCall runs one Plan or Replan call, recording its root span and,
// when traced, the phase spans its Progress samples delimit.
func timedCall(tr *tracer, log *progressLog, reqID int, name string, call func() (*core.Plan, error)) (*core.Plan, time.Duration, time.Duration, phases, error) {
	cpu0 := procCPU()
	start := time.Now()
	p, err := call()
	end := time.Now()
	cpu := procCPU() - cpu0
	var ph phases
	if tr != nil {
		root := tr.add(name, reqID, -1, start, end)
		ph = derivePhases(tr, reqID, root, start, end, log.take(), err != nil)
	}
	return p, end.Sub(start), cpu, ph, err
}

// checkOps checks every op's plan and decides whether it is ok.
// Validation spans join the trace under the op's request id.
func checkOps(rep *report, ops []*op, tr *tracer) {
	for i, o := range ops {
		rep.attempted++
		if o.err != nil {
			o.reason = o.err.Error()
			if o.known.matches(o.err, o.wall) {
				o.expected = true
				o.reason = fmt.Sprintf("expected failure after %.3f s: %v", o.wall.Seconds(), o.err)
				continue
			}
			rep.fail("%s: %s", o.id, o.reason)
			continue
		}
		v, err := checkPlan(o.plan, o.t, o.d)
		o.v = v
		if tr != nil && v.validate > 0 {
			now := time.Now()
			tr.add("schedule.validate", i, -1, now.Add(-v.validate-v.simulate), now.Add(-v.simulate))
			tr.add("sim.run", i, -1, now.Add(-v.simulate), now)
		}
		if err != nil {
			o.reason = err.Error()
			rep.fail("%s: %s", o.id, o.reason)
			continue
		}
		o.ok = true
	}
}

// okOps returns the ops that produced a checked plan.
func okOps(ops []*op) []*op {
	var out []*op
	for _, o := range ops {
		if o.ok {
			out = append(out, o)
		}
	}
	return out
}

// qualityMetrics sets finish_lb_ratio and bytes_ratio from checked plans.
func qualityMetrics(rep *report, ops []*op) {
	var lb, by []float64
	for _, o := range okOps(ops) {
		lb = append(lb, o.v.lbRatio)
		by = append(by, o.v.bytesRatio)
	}
	rep.e2e["finish_lb_ratio"] = geomean(lb)
	rep.e2e["bytes_ratio"] = geomean(by)
	rep.exact["finish_lb_ratio"] = rep.e2e["finish_lb_ratio"]
	rep.exact["bytes_ratio"] = rep.e2e["bytes_ratio"]
}

// repeatedMetrics sets the latency metrics, solve_s, max_rps and ok_frac
// from repeated passes over the same requests: reps[i] holds request
// i's attempts. Times are process CPU times (see op.time). Each request
// counts at its median time, which damps the 10–25% run-to-run spread
// of single cold solves on a shared host; solve_s is the sum of those
// medians, one pass's time. A request is ok
// when every attempt passed its checks. A request that failed in its
// known way counts in solve_s at its time to failure, but not in the
// percentiles, which would otherwise report its deadline rather than
// the program. It counts in solve_geomean_ms when failuresInGeomean.
func repeatedMetrics(rep *report, reps [][]*op, failuresInGeomean bool) {
	var lat, all []float64
	okCount, total := 0, 0.0
	for _, attempts := range reps {
		var w []float64
		ok := true
		for _, o := range attempts {
			w = append(w, ms(o.time()))
			ok = ok && o.ok
		}
		all = append(all, median(w))
		if !attempts[0].expected {
			lat = append(lat, median(w))
		}
		total += median(w) / 1000
		if ok {
			okCount++
		}
	}
	rep.e2e["p50_ms"] = quantile(lat, 0.5)
	rep.e2e["p90_ms"] = quantile(lat, 0.9)
	rep.e2e["p99_ms"] = quantile(lat, 0.99)
	rep.e2e["solve_geomean_ms"] = geomean(lat)
	if failuresInGeomean {
		rep.e2e["solve_geomean_ms"] = geomean(all)
	}
	rep.e2e["ok_frac"] = frac(okCount, len(reps))
	rep.e2e["solve_s"] = total
	rep.e2e["max_rps"] = float64(len(reps)) / total
}

// localLayers fills the per-layer metrics observable on local planner
// calls: solver counters (totals over ops), phase times from Progress
// (medians over the ops that entered the phase) and cache provenance.
func localLayers(rep *report, ops []*op) {
	L := rep.layer
	var iters, refac, ft, nnz, nodes, nodeIters, rounds, windows, milpRefac, sends int
	var lpTime time.Duration
	var lpIters int
	var build, post, overhead, lpMs, rootMs, bbMs, astarMs, horizonMs, windowMs, replayMs, valMs, simMs []float64
	replay, warm, crash := 0, 0, 0
	ok := okOps(ops)
	for _, o := range ok {
		r := o.plan.Result
		iters += r.RootIterations
		refac += r.Refactorizations
		ft += r.FTUpdates
		nnz += r.UpdateNnz
		nodes += r.Nodes
		nodeIters += r.NodeIterations
		rounds += r.Rounds
		windows += r.Windows
		sends += o.v.sends
		valMs = append(valMs, ms(o.v.validate))
		simMs = append(simMs, ms(o.v.simulate))
		overhead = append(overhead, ms(o.wall-r.SolveTime))
		if o.plan.Solver == core.SolverMILP {
			milpRefac += r.Refactorizations
		}
		if o.plan.CacheHit {
			replay++
			replayMs = append(replayMs, ms(o.wall))
		}
		if o.plan.WarmStart {
			warm++
		}
		if o.plan.CrashStart {
			crash++
		}
		ph := o.ph
		if !ph.sampled {
			continue
		}
		build = append(build, ms(ph.build))
		post = append(post, ms(ph.post))
		if ph.lp > 0 {
			lpMs = append(lpMs, ms(ph.lp))
			lpTime += ph.lp
			lpIters += r.RootIterations
		}
		if ph.milpRoot > 0 {
			rootMs = append(rootMs, ms(ph.milpRoot))
			bbMs = append(bbMs, ms(ph.milpBB))
		}
		if ph.astar > 0 {
			astarMs = append(astarMs, ms(ph.astar))
		}
		if ph.horizon > 0 {
			horizonMs = append(horizonMs, ms(ph.horizon))
		}
		for _, w := range ph.windows {
			windowMs = append(windowMs, ms(w))
		}
	}
	L["lp.iters"], L["lp.refactors"] = float64(iters), float64(refac)
	L["lp.ft_updates"], L["lp.update_nnz"] = float64(ft), float64(nnz)
	L["milp.nodes"], L["milp.node_iters"] = float64(nodes), float64(nodeIters)
	L["milp.refactors_per_node"] = frac(milpRefac, nodes)
	L["astar.rounds"], L["horizon.windows"] = float64(rounds), float64(windows)
	L["schedule.sends"] = float64(sends)
	for _, k := range []string{"lp.iters", "lp.refactors", "milp.nodes", "horizon.windows", "astar.rounds"} {
		rep.exact[k] = L[k]
	}
	L["lp.us_per_iter"] = 0
	if lpIters > 0 {
		L["lp.us_per_iter"] = float64(lpTime.Microseconds()) / float64(lpIters)
	}
	L["core.build_ms"], L["core.post_ms"] = median(build), median(post)
	L["core.planner_overhead_ms"] = median(overhead)
	L["lp.solve_ms"] = median(lpMs)
	L["milp.root_ms"], L["milp.bb_ms"] = median(rootMs), median(bbMs)
	L["astar.ms"], L["horizon.ms"], L["horizon.window_ms"] = median(astarMs), median(horizonMs), median(windowMs)
	L["planner.replay_frac"] = frac(replay, len(ok))
	L["planner.warm_frac"] = frac(warm, len(ok))
	L["planner.crash_frac"] = frac(crash, len(ok))
	L["planner.replay_ms"] = median(replayMs)
	L["schedule.validate_ms"], L["sim.run_ms"] = median(valMs), median(simMs)
}

// zeroLayers sets the listed per-layer metrics to 0: layers the
// workload never enters.
func zeroLayers(rep *report, names ...string) {
	for _, n := range names {
		rep.layer[n] = 0
	}
}

// medianSetup runs setup n times, releasing all but the last result
// with discard, and returns the last result and the median process CPU
// time one set-up took.
func medianSetup[T any](n int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var durs []float64
	var last T
	for i := 0; i < n; i++ {
		start := procCPU()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		durs = append(durs, (procCPU() - start).Seconds())
		if i < n-1 {
			discard(v)
		} else {
			last = v
		}
	}
	return last, median(durs), nil
}
