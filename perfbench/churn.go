package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"teccl/internal/collective"
	"teccl/internal/core"
	"teccl/internal/topo"
)

// churnLimit bounds every plan and replan of the LP and MILP sessions;
// their cold plans take at most a few hundred milliseconds.
const churnLimit = 10 * time.Second

// churnAStarLimit bounds the A* session, whose cold plan takes under
// 10 ms: its known failure (below) runs to the deadline, and a 10 s
// deadline would leave room for only a few of them in a run.
const churnAStarLimit = 250 * time.Millisecond

// churnDeltas is the length of the seeded delta stream.
const churnDeltas = 100

// churnMinRounds is the number of rounds an untraced run replays the
// stream at least, so that each delta counts at the median of three
// times and one round slowed by host contention does not move it.
const churnMinRounds = 3

// churnSession is one live session of churn-replan, opened by its first
// Plan during set-up.
type churnSession struct {
	name   string
	t      *topo.Topology
	d      *collective.Demand
	opt    core.Options
	solver core.Solver
	// known is the way this session's replans and reopens are known to
	// fail at the commit that added the benchmark (see METRICS.md). Such
	// a failure lowers ok_frac but is not counted in failed; any other
	// outcome is checked normally.
	known *knownFailure
	// exact marks a session whose outcomes repeat exactly: Replan bounds
	// LP attempts by a pivot budget, but MILP and A* attempts by a
	// wall-clock deadline (ReplanOptions.RegretFraction of the measured
	// cold-solve time), so on a contended host those sessions take other
	// paths and report other counts.
	exact bool
}

// churnKinds is the churnstream rotation every session takes, "degrade"
// twice so that degrade/restore is as frequent as in that script.
var churnKinds = []string{"degrade", "degrade", "scale", "pair", "link-down", "straggler"}

func churnSessions() []churnSession {
	slow := core.Options{EpochMode: core.SlowestLink, TimeLimit: churnLimit}
	def := core.Options{TimeLimit: churnLimit}
	astar := core.Options{EpochMode: core.SlowestLink, TimeLimit: churnAStarLimit}
	ndv2, dgx1, i2x4 := topo.NDv2Mini(2), topo.DGX1(), topo.Internal2(4)
	return []churnSession{
		{"ndv2mini2-a2a-200K-sl", ndv2, allToAll(ndv2, 200e3), slow, core.SolverLP, nil, true},
		{"dgx1-a2a-200K", dgx1, allToAll(dgx1, 200e3), def, core.SolverLP,
			&knownFailure{msgs: []string{"LP infeasible with K="}}, true},
		{"dgx1-ag-200K", dgx1, allGather(dgx1, 200e3), def, core.SolverMILP,
			&knownFailure{msgs: []string{"cannot receive chunk", "infeasible with K="}}, false},
		{"internal2x4-ag-16M", i2x4, allGather(i2x4, 16e6), astar, core.SolverAStar,
			&knownFailure{deadline: churnAStarLimit}, false},
	}
}

// churnStep is one delta of the stream with the world it leaves behind.
type churnStep struct {
	session int
	kind    string
	delta   core.Delta
	world   *topo.Topology     // the session's topology after the delta
	demand  *collective.Demand // the session's demand after the delta
}

type droppedPair struct {
	src, dst int
	chunks   []int
}

// churnWorld is the generator's model of one session's fabric. Every
// kind but link failure is undone by its next occurrence, so at most
// one degrade, random scale, straggler and dropped pair is outstanding
// at a time; links fail permanently while one can go without
// disconnecting the fabric, as in churnstream.
type churnWorld struct {
	t         *topo.Topology
	d         *collective.Demand
	fastest   topo.LinkID // target of κ-preserving degrade/restore
	degraded  bool
	scaled    topo.LinkID // link carrying the outstanding random scale, -1 when none
	scale     float64
	straggler topo.LinkID // link whose α is inflated, -1 when none
	dropped   *droppedPair
	pick      *rand.Rand // draws the session's churn script
}

// liveLinks lists the links that are up, other than the ones in skip.
func liveLinks(t *topo.Topology, skip ...topo.LinkID) []topo.LinkID {
	var out []topo.LinkID
next:
	for l := 0; l < t.NumLinks(); l++ {
		id := topo.LinkID(l)
		if t.LinkDown(id) {
			continue
		}
		for _, s := range skip {
			if s == id {
				continue next
			}
		}
		out = append(out, id)
	}
	return out
}

// churnStream generates the delta stream: n/4 steps per session, each
// one of churnKinds, every kind but link failure undone by its next
// occurrence: κ-preserving degrade (×0.8) and
// restore (×1.25) of the session's fastest link; a random-link capacity
// scale in [0.5, 1.5) that may change κ, and its inverse; a dropped
// demand pair and its AddDemand re-add; a permanent link failure that
// keeps the fabric connected; an α straggler (×4) and its recovery.
func churnStream(sessions []churnSession, seed int64, n int) ([]churnStep, error) {
	rng := rand.New(rand.NewSource(seed))
	worlds := make([]*churnWorld, len(sessions))
	for i, s := range sessions {
		fastest, best := topo.LinkID(0), 0.0
		for l := 0; l < s.t.NumLinks(); l++ {
			if c := s.t.Link(topo.LinkID(l)).Capacity; c > best {
				fastest, best = topo.LinkID(l), c
			}
		}
		worlds[i] = &churnWorld{t: s.t.Clone(), d: s.d.Clone(), fastest: fastest, scaled: -1, straggler: -1,
			pick: rand.New(rand.NewSource(int64(i) + 1))}
	}
	// Each session's churn script — the order of its kinds, the links,
	// pairs and factors they touch (scale factors stratified over
	// [0.5, 1.5)) — is drawn from a generator seeded per session; the
	// workload seed interleaves the four scripts. Replan outcomes are
	// path-dependent: when the seed also drew the scripts, p50 ranged
	// from 24 to 75 ms across five seeds, wider than any bound a
	// regression gate can use.
	var order []int
	plan := make([][]string, len(sessions))
	factors := make([][]float64, len(sessions))
	for si := range sessions {
		for i := 0; i < n/len(sessions); i++ {
			order = append(order, si)
			plan[si] = append(plan[si], churnKinds[i%len(churnKinds)])
		}
		pick := worlds[si].pick
		pick.Shuffle(len(plan[si]), func(i, j int) { plan[si][i], plan[si][j] = plan[si][j], plan[si][i] })
		for _, k := range plan[si] {
			if k == "scale" {
				factors[si] = append(factors[si], 0)
			}
		}
		for i := range factors[si] {
			factors[si][i] = 0.5 + (float64(i)+pick.Float64())/float64(len(factors[si]))
		}
		pick.Shuffle(len(factors[si]), func(i, j int) { factors[si][i], factors[si][j] = factors[si][j], factors[si][i] })
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	var steps []churnStep
	for _, si := range order {
		w := worlds[si]
		var d core.Delta
		var kind string
		next := plan[si][0]
		plan[si] = plan[si][1:]
		switch next {
		case "degrade":
			kind = "degrade"
		case "scale":
			if w.scaled >= 0 {
				kind = "unscale"
				d.Scale = []topo.LinkScale{{Link: w.scaled, Capacity: 1 / w.scale}}
				w.scaled = -1
				break
			}
			kind = "scale"
			live := liveLinks(w.t, w.fastest, w.straggler)
			w.scaled, w.scale = live[w.pick.Intn(len(live))], factors[si][0]
			factors[si] = factors[si][1:]
			d.Scale = []topo.LinkScale{{Link: w.scaled, Capacity: w.scale}}
		case "pair":
			if p := w.dropped; p != nil {
				kind = "re-add"
				add := collective.New(w.d.NumNodes(), w.d.NumChunks(), w.d.ChunkBytes)
				for _, c := range p.chunks {
					add.Set(p.src, c, p.dst)
				}
				d.AddDemand = add
				w.dropped = nil
				break
			}
			kind = "drop"
			g := gpuInts(w.t)
			src := g[w.pick.Intn(len(g))]
			dst := g[(indexOf(g, src)+1+w.pick.Intn(len(g)-1))%len(g)]
			d.DropPairs = []core.DemandPair{{Src: src, Dst: dst}}
			w.dropped = &droppedPair{src, dst, w.d.DestWantsFromSource(src, dst)}
		case "link-down":
			kind = "link-down"
			var removable []topo.LinkID
			for _, l := range liveLinks(w.t, w.fastest, w.scaled, w.straggler) {
				probe, err := w.t.ApplyDelta(topo.Delta{LinksDown: []topo.LinkID{l}})
				if err == nil && probe.Validate() == nil {
					removable = append(removable, l)
				}
			}
			if len(removable) == 0 {
				kind = "degrade"
				break
			}
			d.LinksDown = []topo.LinkID{removable[w.pick.Intn(len(removable))]}
		case "straggler":
			if w.straggler >= 0 {
				kind = "recover"
				d.Scale = []topo.LinkScale{{Link: w.straggler, Alpha: 0.25}}
				w.straggler = -1
				break
			}
			kind = "straggler"
			var slowable []topo.LinkID
			for _, l := range liveLinks(w.t, w.fastest, w.scaled) {
				if w.t.Link(l).Alpha > 0 {
					slowable = append(slowable, l)
				}
			}
			if len(slowable) == 0 {
				kind = "degrade"
				break
			}
			w.straggler = slowable[w.pick.Intn(len(slowable))]
			d.Scale = []topo.LinkScale{{Link: w.straggler, Alpha: 4}}
		}
		if kind == "degrade" {
			factor := 0.8
			if w.degraded {
				kind, factor = "restore", 1.25
			}
			w.degraded = !w.degraded
			d.Scale = []topo.LinkScale{{Link: w.fastest, Capacity: factor}}
		}
		nt, err := w.t.ApplyDelta(topo.Delta{LinksDown: d.LinksDown, Scale: d.Scale})
		if err != nil {
			return nil, fmt.Errorf("step %d (%s on %s): %w", len(steps), kind, sessions[si].name, err)
		}
		w.t = nt
		nd := w.d.Clone()
		for _, p := range d.DropPairs {
			nd.DropPair(p.Src, p.Dst)
		}
		if d.AddDemand != nil {
			nd.Or(d.AddDemand)
		}
		w.d = nd
		steps = append(steps, churnStep{session: si, kind: kind, delta: d, world: nt, demand: nd})
	}
	return steps, nil
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// openChurn opens every session with its first Plan.
func openChurn(sessions []churnSession, hook core.ProgressFunc) ([]*core.Planner, error) {
	var pls []*core.Planner
	for _, s := range sessions {
		pl, _, err := openSession(s, s.t, s.d, hook)
		if err != nil {
			closeAll(pls)
			return nil, fmt.Errorf("opening %s: %w", s.name, err)
		}
		pls = append(pls, pl)
	}
	return pls, nil
}

// openSession opens a session of s on topology t and demand d with its
// first Plan.
func openSession(s churnSession, t *topo.Topology, d *collective.Demand, hook core.ProgressFunc) (*core.Planner, *core.Plan, error) {
	opt := s.opt
	opt.Progress = hook
	pl := core.NewPlanner(t, core.PlannerOptions{Defaults: opt})
	p, err := pl.Plan(context.Background(), core.Request{Demand: d, Solver: s.solver})
	if err != nil {
		pl.Close()
		return nil, nil, err
	}
	return pl, p, nil
}

func closeAll(pls []*core.Planner) {
	for _, pl := range pls {
		pl.Close()
	}
}

// replanOp is one timed Replan with the session counters read after it.
type replanOp struct {
	*op
	pivots     int // incremental pivots this replan added
	coldPivots int // the session's cold-solve pivot estimate
}

// churnRound replays the stream against freshly opened sessions. A
// failed replan leaves the session on the churned topology but the
// incumbent demand, out of step with the stream, so the session is down
// until its next delta, which opens a fresh session on that delta's
// topology and demand with a timed cold Plan (class "reopen"). One
// failure then does not decide the rest of the session's stream.
func churnRound(pls []*core.Planner, steps []churnStep, sessions []churnSession, tr *tracer, log *progressLog) ([]*replanOp, time.Duration) {
	var ops []*replanOp
	down := make([]bool, len(pls))
	var hook core.ProgressFunc
	if log != nil {
		hook = log.hook
	}
	start := time.Now()
	for i, s := range steps {
		sess := sessions[s.session]
		pl := pls[s.session]
		rop := &replanOp{op: &op{id: fmt.Sprintf("%03d %s %s", i, sess.name, s.kind),
			t: s.world, d: s.demand, known: sess.known}}
		o := rop.op
		if down[s.session] {
			var fresh *core.Planner
			o.plan, o.wall, o.cpu, o.ph, o.err = timedCall(tr, log, i, "reopen", func() (*core.Plan, error) {
				var p *core.Plan
				var err error
				fresh, p, err = openSession(sess, s.world, s.demand, hook)
				return p, err
			})
			o.class = "reopen"
			if o.err == nil {
				pl.Close()
				pls[s.session] = fresh
				down[s.session] = false
			}
			ops = append(ops, rop)
			continue
		}
		before := pl.Stats().ReplanIncrementalPivots
		o.plan, o.wall, o.cpu, o.ph, o.err = timedCall(tr, log, i, "replan", func() (*core.Plan, error) {
			return pl.Replan(context.Background(), s.delta)
		})
		st := pl.Stats()
		rop.pivots, rop.coldPivots = st.ReplanIncrementalPivots-before, st.ColdEstimatePivots
		switch {
		case o.plan == nil:
			o.class = "error"
			down[s.session] = true
		case o.plan.ReBased:
			o.class = "rebase"
		case o.plan.ReplanFallback:
			o.class = "fallback"
		default:
			o.class = "incremental"
		}
		ops = append(ops, rop)
	}
	return ops, time.Since(start)
}

func plainOps(rops []*replanOp) []*op {
	out := make([]*op, len(rops))
	for i, r := range rops {
		out[i] = r.op
	}
	return out
}

// runChurnReplan: four live sessions absorb a seeded stream of Replan
// deltas, serially. The stream repeats on fresh sessions while the
// budget lasts; every round is identical.
func runChurnReplan(cfg config) (*report, error) {
	rep := newReport()
	sessions := churnSessions()
	steps, err := churnStream(sessions, cfg.seed, churnDeltas)
	if err != nil {
		return nil, err
	}
	open := func() ([]*core.Planner, error) { return openChurn(sessions, nil) }
	pls, setup, err := medianSetup(5, open, closeAll)
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup

	// Rounds replay the stream on fresh sessions, churnMinRounds times
	// and more while a whole round fits in the budget; every round is
	// identical.
	budget := time.Duration(cfg.seconds * float64(time.Second))
	began := time.Now()
	goBefore := readGo()
	first, firstWall := churnRound(pls, steps, sessions, nil, nil)
	goAfter := readGo()
	closeAll(pls)
	reps := make([][]*op, len(first))
	for i, o := range first {
		reps[i] = []*op{o.op}
	}
	rounds := 1
	for !cfg.trace && (rounds < churnMinRounds || time.Since(began)+firstWall <= budget) {
		if pls, err = open(); err != nil {
			return nil, err
		}
		ops, _ := churnRound(pls, steps, sessions, nil, nil)
		closeAll(pls)
		for i, o := range ops {
			reps[i] = append(reps[i], o.op)
		}
		rounds++
	}
	var all []*op
	for _, r := range reps {
		all = append(all, r...)
	}
	checkOps(rep, all, nil)
	repeatedMetrics(rep, reps, false)
	qualityMetrics(rep, plainOps(first))
	replanLayers(rep, first)
	// The exact values come from the sessions whose outcomes repeat.
	var exact []*replanOp
	for i, o := range first {
		if sessions[steps[i].session].exact {
			exact = append(exact, o)
		}
	}
	sub := newReport()
	qualityMetrics(sub, plainOps(exact))
	replanLayers(sub, exact)
	rep.exact = sub.exact

	if cfg.trace {
		tr := newTracer()
		rep.spans = tr
		log := &progressLog{}
		pls, err := openChurn(sessions, log.hook)
		if err != nil {
			return nil, err
		}
		log.take()
		ops, wall := churnRound(pls, steps, sessions, tr, log)
		closeAll(pls)
		traced := newReport()
		checkOps(traced, plainOps(ops), tr)
		replanLayers(traced, ops)
		goLayer(traced.layer, goBefore, goAfter, len(first))
		traced.layer["replan.regret_max"] = regretMax(sessions, steps, ops)
		traced.layer["trace.overhead_frac"] = wall.Seconds()/firstWall.Seconds() - 1
		rep.layer = traced.layer
		rep.attempted += traced.attempted
		rep.failed += traced.failed
		rep.problems = append(rep.problems, traced.problems...)
	}
	zeroLayers(rep, "daemon.handler_ms", "daemon.overhead_ms",
		"daemon.rejects", "wire.client_ms", "wire.req_kb", "wire.resp_kb", "gen.late_p99_ms")
	if _, ok := rep.layer["replan.regret_max"]; !ok {
		rep.layer["replan.regret_max"] = 0
	}

	rep.rows = append(rep.rows, fmt.Sprintf("churn-replan: %d round(s) of %d deltas, seed %d", rounds, len(steps), cfg.seed))
	byClass := map[string][]float64{}
	for _, o := range first {
		byClass[o.class] = append(byClass[o.class], ms(o.time()))
	}
	for _, c := range []string{"incremental", "fallback", "rebase", "reopen", "error"} {
		if lat := byClass[c]; len(lat) > 0 {
			rep.rows = append(rep.rows, fmt.Sprintf("class %-12s share %.3f  n=%3d  p50 %8.1f ms  p90 %8.1f ms",
				c, frac(len(lat), len(first)), len(lat), quantile(lat, 0.5), quantile(lat, 0.9)))
		}
	}
	for si, s := range sessions {
		var lat []float64
		kinds := map[string]int{}
		for i, o := range first {
			if steps[i].session == si {
				lat = append(lat, ms(o.time()))
				kinds[o.class]++
			}
		}
		rep.rows = append(rep.rows, fmt.Sprintf("session %-24s n=%3d  p50 %8.1f ms  %v", s.name, len(lat), median(lat), kinds))
	}
	expected := 0
	for _, o := range first {
		if o.expected {
			expected++
		}
		if !o.ok {
			rep.rows = append(rep.rows, fmt.Sprintf("replan %s: %s", o.id, o.reason))
		}
	}
	rep.rows = append(rep.rows, fmt.Sprintf("churn-replan fail_frac %.4f (%d of %d deltas per round failed in their session's known way)",
		1-rep.e2e["ok_frac"], expected, len(first)))
	return rep, nil
}

// replanLayers fills the replan.* metrics and the local layer metrics.
func replanLayers(rep *report, ops []*replanOp) {
	localLayers(rep, plainOps(ops))
	L := rep.layer
	counts := map[string]int{}
	var incMs, fbMs []float64
	pivots, coldSum := 0, 0
	for _, o := range ops {
		counts[o.class]++
		pivots += o.pivots
		switch o.class {
		case "incremental":
			incMs = append(incMs, ms(o.wall))
			if o.pivots > 0 {
				coldSum += o.coldPivots
			}
		case "fallback", "rebase":
			fbMs = append(fbMs, ms(o.wall))
		}
	}
	L["replan.incremental_frac"] = frac(counts["incremental"], len(ops))
	L["replan.fallback_frac"] = frac(counts["fallback"], len(ops))
	L["replan.rebase_frac"] = frac(counts["rebase"], len(ops))
	L["replan.incremental_ms"], L["replan.fallback_ms"] = median(incMs), median(fbMs)
	L["replan.pivots"] = float64(pivots)
	L["replan.pivot_ratio"] = frac(pivots, coldSum)
	for _, k := range []string{"replan.incremental_frac", "replan.fallback_frac", "replan.rebase_frac"} {
		rep.exact[k] = L[k]
	}
}

// regretMax is the largest ratio of a replan's wall time to a cold plan
// of the same churned problem on a fresh session.
func regretMax(sessions []churnSession, steps []churnStep, ops []*replanOp) float64 {
	worst := 0.0
	for i, s := range steps {
		if ops[i].err != nil || ops[i].class == "reopen" {
			continue
		}
		sess := sessions[s.session]
		opt := sess.opt
		pl := core.NewPlanner(s.world, core.PlannerOptions{})
		start := time.Now()
		_, err := pl.Plan(context.Background(), core.Request{Demand: s.demand, Options: &opt, Solver: sess.solver})
		cold := time.Since(start)
		pl.Close()
		if err == nil && cold > 0 {
			worst = max(worst, ops[i].wall.Seconds()/cold.Seconds())
		}
	}
	return worst
}
