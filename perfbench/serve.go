package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"teccl/client"
	"teccl/internal/collective"
	"teccl/internal/core"
	"teccl/internal/daemon"
	"teccl/internal/topo"
)

// serveLimit is the TimeLimit every serve-mix request carries.
const serveLimit = 10 * time.Second

// The max_rps search: seconds of load per step, grid ratio, and the
// seed of the one request sequence every run's steps draw from. Near
// saturation a single slow warm start in a step decides whether it
// passes, so steps drawn from the workload seed made max_rps depend on
// the draw more than on the program.
const (
	stepSeconds = 1.5
	stepGrowth  = 1.06 // steps finer than a tenth
	stepSeed    = 1
)

// serveWindowSeconds is the length of one window of the main phase;
// each window is served by its own freshly primed daemon. The time
// metrics are medians of the per-window values. On a shared 2-vCPU host
// the p50 of consecutive 6 s windows of one process ranged from 4.9 to
// 7.7 ms, so many short windows reject more of that contention than a
// few long ones.
const serveWindowSeconds = 3

// serveReq is one distinct request of serve-mix with its local
// reference outcome.
type serveReq struct {
	id     string
	class  string // replay, milp-astar, warm or cold: the class it was drawn for
	t      *topo.Topology
	d      *collective.Demand
	opt    core.Options
	solver core.Solver
	ref    verdict // outcome of a local plan on a fresh session
	refObj float64
}

// serveHot builds the hot sets: LP requests the daemon replays from its
// schedule cache, and MILP/A* requests it re-solves every time.
func serveHot() (lp, exact []*serveReq) {
	def := core.Options{TimeLimit: serveLimit}
	slow := core.Options{EpochMode: core.SlowestLink, TimeLimit: serveLimit}
	dgx1, ndv2, i2x4 := topo.DGX1(), topo.NDv2Mini(2), topo.Internal2(4)
	lp = []*serveReq{
		{id: "dgx1-a2a-200K", class: "replay", t: dgx1, d: allToAll(dgx1, 200e3), opt: def, solver: core.SolverLP},
		{id: "ndv2mini2-a2a-200K-sl", class: "replay", t: ndv2, d: allToAll(ndv2, 200e3), opt: slow, solver: core.SolverLP},
		{id: "internal2x4-a2a-16M-sl", class: "replay", t: i2x4, d: allToAll(i2x4, 16e6), opt: slow, solver: core.SolverLP},
	}
	exact = []*serveReq{
		{id: "dgx1-ag-200K", class: "milp-astar", t: dgx1, d: allGather(dgx1, 200e3), opt: def, solver: core.SolverMILP},
		{id: "internal2x4-ag-16M-sl", class: "milp-astar", t: i2x4, d: allGather(i2x4, 16e6), opt: slow, solver: core.SolverAStar},
	}
	return lp, exact
}

// serveStream builds the request sequence: 70% repeats of the hot LP
// set, 15% repeats of the hot MILP/A* set, 10% variants of a hot LP
// request (an ALLTOALL among four of its GPUs at 0.5×, 1× or 2× its
// chunk size, which warm-starts from the hot basis) and 5% requests for
// a fabric the daemon has never seen (a full mesh of 3–6 GPUs with a
// drawn capacity, solved cold). The class counts, and the counts of
// each hot request, variant parent and chunk multiple, are the same for
// every seed; the seed draws the GPU subsets, the capacities and the
// order. Drawing the classes independently moved
// the mix by a few percent per seed and p50 with it.
func serveStream(rng *rand.Rand, n int, hotLP, hotExact []*serveReq) []*serveReq {
	var out []*serveReq
	for i := 0; i < n*70/100; i++ {
		out = append(out, hotLP[i%len(hotLP)])
	}
	for i := 0; i < n*15/100; i++ {
		out = append(out, hotExact[i%len(hotExact)])
	}
	variants := map[string]*serveReq{}
	for i := 0; i < n*10/100; i++ {
		h := hotLP[i%len(hotLP)]
		g := gpuInts(h.t)
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		sub := slices.Sorted(slices.Values(g[:4]))
		mult := []float64{0.5, 1, 2}[i/len(hotLP)%3]
		id := fmt.Sprintf("%s/%v×%g", h.id, sub, mult)
		v, ok := variants[id]
		if !ok {
			d := collective.AllToAll(h.t.NumNodes(), sub, 1, h.d.ChunkBytes*mult)
			v = &serveReq{id: id, class: "warm", t: h.t, d: d, opt: h.opt, solver: core.SolverLP}
			variants[id] = v
		}
		out = append(out, v)
	}
	for i := 0; len(out) < n; i++ {
		gpus := 3 + i%4
		capacity := 25e9 * (0.5 + rng.Float64())
		t := topo.FullMesh(gpus, capacity, 1e-6)
		out = append(out, &serveReq{id: fmt.Sprintf("mesh%d-%.0fGBps", gpus, capacity/1e9), class: "cold",
			t: t, d: allToAll(t, 1e6), opt: core.Options{TimeLimit: serveLimit}, solver: core.SolverLP})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// referencePlans plans every distinct request locally on a fresh
// session; the daemon's answers are checked against these.
func referencePlans(reqs []*serveReq) error {
	seen := map[*serveReq]bool{}
	for _, r := range reqs {
		if seen[r] {
			continue
		}
		seen[r] = true
		opt := r.opt
		pl := core.NewPlanner(r.t, core.PlannerOptions{})
		p, err := pl.Plan(context.Background(), core.Request{Demand: r.d, Options: &opt, Solver: r.solver})
		pl.Close()
		if err != nil {
			return fmt.Errorf("reference plan %s: %w", r.id, err)
		}
		v, err := checkPlan(p, r.t, r.d)
		if err != nil {
			return fmt.Errorf("reference plan %s: %w", r.id, err)
		}
		r.ref, r.refObj = v, p.Objective
	}
	return nil
}

// handlerCall is what the traced handler wrapper saw of one request.
type handlerCall struct {
	start, end          time.Time
	reqBytes, respBytes int64
}

// tracedHandler wraps the daemon's http.Handler, timing each request
// and counting body bytes. Requests are matched to the generator's
// request ids through the reqHeader header.
type tracedHandler struct {
	next  http.Handler
	mu    sync.Mutex
	calls map[int]handlerCall
}

const reqHeader = "X-Perfbench-Req"

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.Header.Get(reqHeader))
	if err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	body := &countingReader{r: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	end := time.Now()
	h.mu.Lock()
	h.calls[id] = handlerCall{start, end, body.n, cw.n}
	h.mu.Unlock()
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

type reqIDKey struct{}

// taggingTransport copies the request id from the context into a
// header, so the handler wrapper can attribute server-side time.
type taggingTransport struct{ next http.RoundTripper }

func (t taggingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqIDKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, strconv.Itoa(id))
	}
	return t.next.RoundTrip(r)
}

// service is one embedded daemon behind an in-process listener, with a
// Go client and one remote session per hot topology.
type service struct {
	srv       *daemon.Server
	ts        *httptest.Server
	transport *http.Transport
	client    *client.Client
	traced    *tracedHandler
	sessions  map[*topo.Topology]*client.RemotePlanner
}

// startService starts a daemon (MaxConcurrent = procs), dials it with at
// most procs connections, and primes the hot set: each hot request is
// planned once, so its session exists and LP answers replay.
func startService(procs int, traced bool, hot []*serveReq) (*service, error) {
	s := &service{srv: daemon.New(daemon.Options{MaxConcurrent: procs}), sessions: map[*topo.Topology]*client.RemotePlanner{}}
	var h http.Handler = s.srv
	if traced {
		s.traced = &tracedHandler{next: s.srv, calls: map[int]handlerCall{}}
		h = s.traced
	}
	s.ts = httptest.NewServer(h)
	s.transport = &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs}
	c, err := client.Dial(s.ts.URL, client.ClientOptions{HTTPClient: &http.Client{Transport: taggingTransport{s.transport}}})
	if err != nil {
		s.stop()
		return nil, err
	}
	s.client = c
	for _, r := range hot {
		opt := r.opt
		if _, err := s.planner(r.t).Plan(context.Background(), core.Request{Demand: r.d, Options: &opt, Solver: r.solver}); err != nil {
			s.stop()
			return nil, fmt.Errorf("priming %s: %w", r.id, err)
		}
	}
	return s, nil
}

// planner returns the remote session for a topology, opening one per
// distinct topology value.
func (s *service) planner(t *topo.Topology) *client.RemotePlanner {
	if p, ok := s.sessions[t]; ok {
		return p
	}
	p := s.client.Planner(t)
	s.sessions[t] = p
	return p
}

// rejects sums the daemon's admission rejections from /metrics.
func (s *service) rejects() (int, error) {
	resp, err := s.ts.Client().Get(s.ts.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	total := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "teccld_rejected_total{") {
			f := strings.Fields(line)
			n, err := strconv.Atoi(f[len(f)-1])
			if err != nil {
				return 0, err
			}
			total += n
		}
	}
	return total, sc.Err()
}

func (s *service) stop() {
	s.ts.Close()
	s.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = s.srv.Drain(ctx) // ts.Close already waited for every request
	s.srv.Close()
	s.transport.CloseIdleConnections()
}

// serveOp is one request of the open loop.
type serveOp struct {
	*op
	req      *serveReq
	sent     time.Time
	rtt      time.Duration // client call: send → decoded plan
	late     time.Duration // generator lateness: send − max(due, worker free)
	objMatch bool          // matched the reference on objective, not bytes
}

// poissonDue returns n send offsets with Poisson arrivals at rate.
func poissonDue(rng *rand.Rand, n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	at := 0.0
	for i := range due {
		at += rng.ExpFloat64() / rate
		due[i] = time.Duration(at * float64(time.Second))
	}
	return due
}

// constantDue returns n send offsets evenly spaced at rate.
func constantDue(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i+1) / rate * float64(time.Second))
	}
	return due
}

// openLoop offers reqs at the given send offsets from workers
// goroutines, each holding at most one request in flight. Latency runs
// from each request's due time, so a stall delays the requests queued
// behind it. With one worker no two requests overlap, and each
// request's process CPU time, send to answer, is its own (client and
// daemon, and the GC work that ran meanwhile). Request i carries the id
// base+i to the handler wrapper.
func openLoop(s *service, reqs []*serveReq, due []time.Duration, workers, base int) ([]*serveOp, time.Duration) {
	planners := make([]*client.RemotePlanner, len(reqs))
	for i, r := range reqs {
		if r.class == "cold" {
			planners[i] = s.client.Planner(r.t) // a fabric nobody has planned
		} else {
			planners[i] = s.planner(r.t)
		}
	}
	ops := make([]*serveOp, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				free := time.Now()
				dueAt := start.Add(due[i])
				time.Sleep(time.Until(dueAt))
				sent := time.Now()
				cpu0 := procCPU()
				r := reqs[i]
				opt := r.opt
				ctx := context.WithValue(context.Background(), reqIDKey{}, base+i)
				p, err := planners[i].Plan(ctx, core.Request{Demand: r.d, Options: &opt, Solver: r.solver})
				cpu := procCPU() - cpu0
				done := time.Now()
				late := sent.Sub(dueAt)
				if free.After(dueAt) {
					late = sent.Sub(free)
				}
				ops[i] = &serveOp{op: &op{id: r.id, class: r.class, wall: done.Sub(dueAt), cpu: cpu, err: err, plan: p, t: r.t, d: r.d},
					req: r, sent: sent, rtt: done.Sub(sent), late: late}
			}
		}()
	}
	wg.Wait()
	return ops, time.Since(start)
}

// checkServe checks each plan and matches it against its reference: on
// finish epoch and bytes sent, or — for a plan first solved warm or
// re-solved from a stored basis, which may land on another optimal
// vertex with another finish epoch and byte count — on the objective.
func checkServe(rep *report, ops []*serveOp) {
	for _, o := range ops {
		rep.attempted++
		if o.err != nil {
			o.reason = o.err.Error()
			rep.fail("%s: %s", o.id, o.reason)
			continue
		}
		v, err := checkPlan(o.plan, o.t, o.d)
		o.v = v
		if err != nil {
			o.reason = err.Error()
			rep.fail("%s: %s", o.id, o.reason)
			continue
		}
		ref := o.req.ref
		if !sameOutcome(v, ref) {
			// Hot LP requests were first solved cold when the daemon was
			// primed, and never-seen fabrics are solved cold: those must
			// match the cold local reference exactly.
			exactClass := o.class == "replay" || o.class == "cold"
			sameObj := math.Abs(o.plan.Objective-o.req.refObj) <= 1e-6*math.Max(1, math.Abs(o.req.refObj))
			if exactClass || !sameObj {
				o.reason = fmt.Sprintf("differs from the local reference: finish epoch %d vs %d, bytes %.6g vs %.6g, objective %.9g vs %.9g",
					v.finishEpoch, ref.finishEpoch, v.bytesSent, ref.bytesSent, o.plan.Objective, o.req.refObj)
				rep.fail("%s: %s", o.id, o.reason)
				continue
			}
			o.objMatch = true
		}
		o.ok = true
	}
}

// servedClass is the class a served plan actually fell in, from its
// provenance.
func servedClass(o *serveOp) string {
	switch {
	case o.plan == nil:
		return "error"
	case o.plan.CacheHit:
		return "replay"
	case o.plan.Solver == core.SolverMILP || o.plan.Solver == core.SolverAStar:
		return "milp-astar"
	case o.plan.WarmStart:
		return "warm"
	default:
		return "cold"
	}
}

// stepMix takes the first n requests of reqs that keep the class shares
// of the whole sequence, so every seed's search steps offer the same
// mix.
func stepMix(reqs []*serveReq, n int) []*serveReq {
	quota := map[string]int{}
	for _, r := range reqs {
		quota[r.class]++
	}
	for c, q := range quota {
		quota[c] = q * n / len(reqs)
	}
	var out []*serveReq
	for _, r := range reqs {
		if quota[r.class] > 0 {
			quota[r.class]--
			out = append(out, r)
		}
	}
	return out
}

// stepPasses reports whether an open-loop step met the latency limit:
// every request succeeded, p99 is under the limit, and so is the last
// request (no growing backlog).
func stepPasses(ops []*serveOp, limit time.Duration) (bool, float64) {
	var lat []float64
	for _, o := range ops {
		if o.err != nil {
			return false, 0 // a failed or refused request misses the limit
		}
		lat = append(lat, ms(o.wall))
	}
	p99 := quantile(lat, 0.99)
	return p99 <= ms(limit) && lat[len(lat)-1] <= ms(limit), p99
}

// maxRPS finds the highest rate on the grid rate·stepGrowth^k, k in
// [-40, 40], that keeps the p99 latency (wall clock, from the due time)
// under the latency limit, by bisection down to one grid step. The main
// phase at the offered rate is step k = 0: it passes when every request
// succeeded and mainP99, the median of its windows' p99 latency, is
// under the limit. Every other step offers the first stepSeconds of
// requests of reqs, with its class shares, at a constant rate from
// cfg.procs workers to a fresh primed daemon: near saturation, Poisson
// bursts made a step's p99 swing by 5× between runs of one rate. When
// no rate passes, max_rps is 0 and the run fails.
func maxRPS(cfg config, hot, reqs []*serveReq, rep *report, mainP99 float64) (float64, error) {
	p99 := mainP99
	ok := rep.failed == 0 && p99 <= ms(cfg.limit)
	rep.rows = append(rep.rows, fmt.Sprintf("max_rps step %8.2f req/s  p99 %8.1f ms  pass %v", cfg.rate, p99, ok))
	lo, hi := 0, 41
	if !ok {
		lo, hi = -41, 0
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		rate := cfg.rate * math.Pow(stepGrowth, float64(mid))
		// A step that misses the limit runs once more: a rate fails only
		// when both runs miss, so one burst on a shared host does not end
		// the search low.
		var ok bool
		for attempt := 0; attempt < 2 && !ok; attempt++ {
			s, err := startService(cfg.procs, false, hot)
			if err != nil {
				return 0, err
			}
			step := stepMix(reqs, int(rate*stepSeconds))
			ops, _ := openLoop(s, step, constantDue(len(step), rate), cfg.procs, 0)
			s.stop()
			var p99 float64
			ok, p99 = stepPasses(ops, cfg.limit)
			rep.rows = append(rep.rows, fmt.Sprintf("max_rps step %8.2f req/s  p99 %8.1f ms  pass %v", rate, p99, ok))
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo == -41 {
		rep.fail("max_rps: no offered rate down to %.3g req/s kept p99 under %v", cfg.rate*math.Pow(stepGrowth, -40), cfg.limit)
		return 0, nil
	}
	return cfg.rate * math.Pow(stepGrowth, float64(lo)), nil
}

// window is one stretch of the serve-mix main phase: a request
// sequence with its send offsets, served by its own primed daemon.
type window struct {
	reqs    []*serveReq
	due     []time.Duration
	ops     []*serveOp
	wall    time.Duration
	cpu     time.Duration       // process CPU time of the open loop
	calls   map[int]handlerCall // traced runs: what the handler wrapper saw
	rejects int                 // traced runs: the daemon's admission rejections
}

// serveWindowsRun serves every window on a freshly primed daemon (the
// first on first, when given), checks each window's plans into rep
// right after it, and returns the runtime counters read around the open
// loops alone. Checked plans drop their schedules, so the heap the
// next window runs on does not grow with the plans already served.
func serveWindowsRun(cfg config, traced bool, hot []*serveReq, first *service, wins []*window, rep *report) (goCounters, error) {
	var spent goCounters
	for i, w := range wins {
		s := first
		if i > 0 || s == nil {
			var err error
			if s, err = startService(cfg.procs, traced, hot); err != nil {
				return spent, err
			}
		}
		before := readGo()
		cpu0 := procCPU()
		w.ops, w.wall = openLoop(s, w.reqs, w.due, 1, i*len(w.reqs))
		w.cpu = procCPU() - cpu0
		spent = spent.plus(readGo().minus(before))
		if traced {
			w.calls = s.traced.calls
			n, err := s.rejects()
			if err != nil {
				s.stop()
				return spent, err
			}
			w.rejects = n
		}
		s.stop()
		checkServe(rep, w.ops)
		for _, o := range w.ops {
			if o.plan != nil && o.plan.Result != nil {
				o.plan.Schedule = nil
			}
		}
	}
	return spent, nil
}

// allOps concatenates the windows' ops in order.
func allOps(wins []*window) []*serveOp {
	var out []*serveOp
	for _, w := range wins {
		out = append(out, w.ops...)
	}
	return out
}

// runServeMix: the embedded daemon serves a seeded open-loop request
// mix from the Go client in the same process.
func runServeMix(cfg config) (*report, error) {
	// The generator, the client and the daemon share one P, so the
	// process CPU time a request takes is spent on that request and the
	// GC. In five interleaved runs on a shared 2-vCPU host, one P held
	// p50 latency within ±4% and CPU per request at 4.1 ms, against ±7%
	// and 4.8 ms with two.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rep := newReport()
	hotLP, hotExact := serveHot()
	hot := append(append([]*serveReq(nil), hotLP...), hotExact...)
	rng := rand.New(rand.NewSource(cfg.seed))
	arrivals := rand.New(rand.NewSource(cfg.seed + 1))
	// The main phase lasts about --seconds at the offered rate, and has
	// at least 1000 requests so p99 has ten samples beyond it.
	nwin := max(5, int(cfg.seconds/serveWindowSeconds))
	n := max(1000, int(cfg.rate*cfg.seconds)) / nwin
	wins := make([]*window, nwin)
	var reqs []*serveReq
	for i := range wins {
		w := &window{reqs: serveStream(rng, n, hotLP, hotExact)}
		w.due = poissonDue(arrivals, n, cfg.rate)
		wins[i] = w
		reqs = append(reqs, w.reqs...)
	}

	svc, setup, err := medianSetup(5, func() (*service, error) {
		return startService(cfg.procs, false, hot)
	}, (*service).stop)
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	if err := referencePlans(append(hot, reqs...)); err != nil {
		svc.stop()
		return nil, err
	}

	// An untimed window, window 0's requests on the set-up daemon, warms
	// the process first: without it the first windows of a run were
	// among its slowest in three runs of four.
	warm := &window{reqs: wins[0].reqs, due: wins[0].due}
	if _, err := serveWindowsRun(cfg, false, hot, svc, []*window{warm}, rep); err != nil {
		return nil, err
	}
	spent, err := serveWindowsRun(cfg, false, hot, nil, wins, rep)
	if err != nil {
		return nil, err
	}
	mainP99 := serveMetrics(rep, wins)
	goLayer(rep.layer, goCounters{}, spent, len(reqs))

	if cfg.trace {
		twins := make([]*window, len(wins))
		for i, w := range wins {
			twins[i] = &window{reqs: w.reqs, due: w.due}
		}
		traced := newReport()
		if _, err := serveWindowsRun(cfg, true, hot, nil, twins, traced); err != nil {
			return nil, err
		}
		serveMetrics(traced, twins)
		goLayer(traced.layer, goCounters{}, spent, len(reqs))
		rep.spans = newTracer()
		wireLayers(traced, twins, rep.spans)
		traced.layer["trace.overhead_frac"] = traced.e2e["p50_ms"]/rep.e2e["p50_ms"] - 1
		rep.layer = traced.layer
		rep.attempted += traced.attempted
		rep.failed += traced.failed
		rep.problems = append(rep.problems, traced.problems...)
		rep.rows = append(rep.rows, traced.rows...)
	} else {
		steps := serveStream(rand.New(rand.NewSource(stepSeed)), len(reqs), hotLP, hotExact)
		m, err := maxRPS(cfg, hot, steps, rep, mainP99)
		if err != nil {
			return nil, err
		}
		rep.e2e["max_rps"] = m
	}
	// Warm-started plans depend on the order in which two concurrent
	// requests reach a session, so serve-mix has no exact values.
	rep.exact = map[string]float64{}
	return rep, nil
}

// serveMetrics fills the end-to-end metrics, the layer metrics visible
// in returned plans, and the per-class and per-window rows. The time
// metrics are medians over the windows of each window's percentile of
// per-request CPU time; solve_s is the windows' CPU time. It returns the
// median over the windows of each window's p99 latency, wall clock from
// the due time, which max_rps tests against the latency limit.
func serveMetrics(rep *report, wins []*window) float64 {
	ops := allOps(wins)
	plain := make([]*op, len(ops))
	single := make([][]*op, len(ops))
	var late []float64
	for i, o := range ops {
		plain[i] = o.op
		single[i] = []*op{o.op}
		late = append(late, ms(o.late))
	}
	repeatedMetrics(rep, single, true)
	qualityMetrics(rep, plain)
	localLayers(rep, plain)
	var p50, p90, p99, geo, wallP50, wallP99 []float64
	var wall, cpu time.Duration
	for i, w := range wins {
		var c, lat []float64
		for _, o := range w.ops {
			c = append(c, ms(o.cpu))
			lat = append(lat, ms(o.wall))
		}
		p50 = append(p50, quantile(c, 0.5))
		p90 = append(p90, quantile(c, 0.9))
		p99 = append(p99, quantile(c, 0.99))
		geo = append(geo, geomean(c))
		wallP50 = append(wallP50, quantile(lat, 0.5))
		wallP99 = append(wallP99, quantile(lat, 0.99))
		wall += w.wall
		cpu += w.cpu
		rep.rows = append(rep.rows, fmt.Sprintf("window %d: %d requests in %.2f s  cpu p50 %6.2f p90 %6.2f p99 %6.2f ms  latency p50 %6.2f p99 %6.2f ms",
			i, len(w.ops), w.wall.Seconds(), p50[i], p90[i], p99[i], wallP50[i], wallP99[i]))
	}
	rep.e2e["p50_ms"], rep.e2e["p90_ms"], rep.e2e["p99_ms"] = median(p50), median(p90), median(p99)
	rep.e2e["solve_geomean_ms"] = median(geo)
	rep.e2e["solve_s"] = cpu.Seconds()
	L := rep.layer
	L["gen.late_p99_ms"] = quantile(late, 0.99)
	// The daemon's planners report no Progress across the wire, so the
	// core phase split is not observable here.
	zeroLayers(rep, "core.build_ms", "core.post_ms", "core.planner_overhead_ms", "lp.solve_ms",
		"lp.us_per_iter", "milp.root_ms", "milp.bb_ms", "astar.ms", "horizon.ms", "horizon.window_ms",
		"replan.incremental_frac", "replan.fallback_frac", "replan.rebase_frac",
		"replan.incremental_ms", "replan.fallback_ms", "replan.pivots", "replan.pivot_ratio",
		"replan.regret_max", "daemon.handler_ms", "daemon.overhead_ms",
		"daemon.rejects", "wire.client_ms", "wire.req_kb", "wire.resp_kb")
	var replayRTT []float64
	byClass, byClassCPU := map[string][]float64{}, map[string][]float64{}
	objOnly := 0
	for _, o := range ops {
		c := servedClass(o)
		byClass[c] = append(byClass[c], ms(o.wall))
		byClassCPU[c] = append(byClassCPU[c], ms(o.cpu))
		if c == "replay" {
			replayRTT = append(replayRTT, ms(o.rtt))
		}
		if o.objMatch {
			objOnly++
		}
	}
	L["planner.replay_ms"] = median(replayRTT)
	rep.rows = append(rep.rows, fmt.Sprintf("serve-mix: %d requests in %d windows, %.2f s wall, %.2f s CPU, %d matched their reference on objective rather than bytes",
		len(ops), len(wins), wall.Seconds(), cpu.Seconds(), objOnly))
	for _, c := range []string{"replay", "milp-astar", "warm", "cold", "error"} {
		if lat := byClass[c]; len(lat) > 0 {
			cc := byClassCPU[c]
			rep.rows = append(rep.rows, fmt.Sprintf("class %-10s share %.3f  n=%4d  cpu p50 %6.2f p99 %6.2f ms  latency p50 %6.2f p90 %6.2f p99 %6.2f ms",
				c, frac(len(lat), len(ops)), len(lat), quantile(cc, 0.5), quantile(cc, 0.99), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99)))
		}
	}
	rep.rows = append(rep.rows, fmt.Sprintf("serve-mix latency (wall, from the due time, median over windows): p50 %.2f ms  p99 %.2f ms",
		median(wallP50), median(wallP99)))
	rep.rows = append(rep.rows, fmt.Sprintf("serve-mix fail_frac %.4f", 1-rep.e2e["ok_frac"]))
	return median(wallP99)
}

// wireLayers fills the daemon.* and wire.* metrics from the handler
// wrappers' records and adds client and handler spans to the trace.
func wireLayers(rep *report, wins []*window, tr *tracer) {
	var handler, overhead, wire, reqKB, respKB []float64
	rejects := 0
	for wi, w := range wins {
		rejects += w.rejects
		base := wi * len(w.reqs)
		for i, o := range w.ops {
			c, ok := w.calls[base+i]
			if !ok {
				continue
			}
			hd := c.end.Sub(c.start)
			handler = append(handler, ms(hd))
			if o.plan != nil && o.plan.Result != nil {
				overhead = append(overhead, ms(hd-o.plan.SolveTime))
			}
			wire = append(wire, ms(o.rtt-hd))
			reqKB = append(reqKB, float64(c.reqBytes)/1024)
			respKB = append(respKB, float64(c.respBytes)/1024)
			root := tr.add("client", base+i, -1, o.sent, o.sent.Add(o.rtt))
			tr.add("daemon.handler", base+i, root, c.start, c.end)
		}
	}
	L := rep.layer
	L["daemon.handler_ms"], L["daemon.overhead_ms"] = median(handler), median(overhead)
	L["daemon.rejects"] = float64(rejects)
	L["wire.client_ms"] = median(wire)
	L["wire.req_kb"], L["wire.resp_kb"] = mean(reqKB), mean(respKB)
}
