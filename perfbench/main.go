// Command perfbench is the repository benchmark. It drives one of three
// seeded workloads through the planner's public entry points — the
// library path (core.NewPlanner → Plan/Replan) and the serving path
// (daemon.New behind an in-process listener, reached with client.Dial)
// — times every call from outside, checks every returned schedule, and
// prints one JSON result line last on standard output:
//
//	bash perfbench/run.sh --workload cold-solve --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with spans and Progress hooks installed and reports the
// per-layer metrics. --workload all runs the three workloads in turn. METRICS.md defines every metric and the layer each
// one belongs to.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rate     float64 // serve-mix offered rate, requests/s
	limit    time.Duration
	out      string
	procs    int // concurrency bound: goroutines issuing work and connections
}

// report is what one workload measured.
type report struct {
	attempted int
	failed    int      // operations that failed unexpectedly or failed a check
	problems  []string // one line per failed operation or check
	e2e       map[string]float64
	layer     map[string]float64
	// exact holds the values that must repeat exactly across runs of the
	// same binary with the same seed (and, for cold-solve, any seed).
	exact map[string]float64
	rows  []string
	spans *tracer
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, exact: map[string]float64{}}
}

// fail records one failed operation or check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// endToEnd and perLayer list every reported metric with its unit; they
// mirror BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"solve_s", "s"}, {"solve_geomean_ms", "ms"},
	{"p50_ms", "ms"}, {"p90_ms", "ms"}, {"p99_ms", "ms"}, {"max_rps", "req/s"},
	{"ok_frac", "ratio"}, {"finish_lb_ratio", "ratio"}, {"bytes_ratio", "ratio"},
	{"max_rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"core.build_ms", "ms"}, {"core.post_ms", "ms"}, {"core.planner_overhead_ms", "ms"},
	{"planner.replay_frac", "ratio"}, {"planner.warm_frac", "ratio"},
	{"planner.crash_frac", "ratio"}, {"planner.replay_ms", "ms"},
	{"lp.solve_ms", "ms"}, {"lp.iters", "count"}, {"lp.refactors", "count"},
	{"lp.ft_updates", "count"}, {"lp.update_nnz", "count"}, {"lp.us_per_iter", "us"},
	{"milp.nodes", "count"}, {"milp.node_iters", "count"}, {"milp.root_ms", "ms"},
	{"milp.bb_ms", "ms"}, {"milp.refactors_per_node", "ratio"},
	{"astar.rounds", "count"}, {"astar.ms", "ms"},
	{"horizon.windows", "count"}, {"horizon.window_ms", "ms"}, {"horizon.ms", "ms"},
	{"replan.incremental_frac", "ratio"}, {"replan.fallback_frac", "ratio"},
	{"replan.rebase_frac", "ratio"}, {"replan.incremental_ms", "ms"},
	{"replan.fallback_ms", "ms"}, {"replan.pivots", "count"},
	{"replan.pivot_ratio", "ratio"}, {"replan.regret_max", "ratio"},
	{"schedule.sends", "count"}, {"schedule.validate_ms", "ms"}, {"sim.run_ms", "ms"},
	{"daemon.handler_ms", "ms"}, {"daemon.overhead_ms", "ms"},
	{"daemon.rejects", "count"},
	{"wire.client_ms", "ms"}, {"wire.req_kb", "KB"}, {"wire.resp_kb", "KB"},
	{"go.allocs_per_op", "count"}, {"go.alloc_mb_per_op", "MB"}, {"go.gc_cpu_frac", "ratio"},
	{"gen.late_p99_ms", "ms"}, {"trace.overhead_frac", "ratio"},
}

var workloads = map[string]func(config) (*report, error){
	"cold-solve":   runColdSolve,
	"churn-replan": runChurnReplan,
	"serve-mix":    runServeMix,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	var limitMs float64
	fs.StringVar(&cfg.workload, "workload", "", "cold-solve, churn-replan, serve-mix, or all three in turn")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "measurement budget in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.Float64Var(&cfg.rate, "rate", 60, "serve-mix offered rate in requests/s")
	fs.Float64Var(&limitMs, "latency-limit-ms", 50, "serve-mix p99 latency limit for max_rps")
	fs.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for span files and the exactness record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = []string{"cold-solve", "churn-replan", "serve-mix"}
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", n)
			return 2
		}
	}
	if cfg.seconds <= 0 || cfg.rate <= 0 || limitMs <= 0 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintln(stderr, "perfbench: bad arguments")
		return 2
	}
	cfg.trace = traceFlag == 1
	cfg.limit = time.Duration(limitMs * float64(time.Millisecond))
	cfg.procs = min(runtime.NumCPU(), 2)
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, n := range names {
		cfg.workload = n
		if code := runOne(cfg, stdout, stderr); code != 0 {
			return code
		}
	}
	return 0
}

// runOne runs one workload and prints its rows, its metrics by name
// and unit, and the JSON result line.
func runOne(cfg config, stdout, stderr io.Writer) int {
	rep, err := workloads[cfg.workload](cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.e2e["max_rss_mb"] = maxRSSMB()
	if err := checkExact(cfg, rep); err != nil {
		rep.fail("exactness: %v", err)
	}
	if cfg.trace {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := rep.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		rep.rows = append(rep.rows, "spans written to "+path)
		rep.rows = append(rep.rows, layerRows(rep.spans.selfTimes())...)
	}

	for _, row := range rep.rows {
		fmt.Fprintln(stdout, row)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stdout, "FAIL", p)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	list, values := endToEnd, rep.e2e
	if cfg.trace {
		list, values = perLayer, rep.layer
	}
	for _, m := range list {
		v, ok := values[m.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", cfg.workload, m.name)
			return 1
		}
		out[m.name] = metric{v, m.unit}
		fmt.Fprintf(stdout, "metric %-26s %14.6g %s\n", m.name, v, m.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, out})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// checkExact compares the run's exact values with those an earlier run
// of the same binary and seed recorded, and records them when none
// exists. Cold-solve's seed only permutes its catalog, so its values
// must match across seeds too.
func checkExact(cfg config, rep *report) error {
	if len(rep.exact) == 0 {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	seed := fmt.Sprint(cfg.seed)
	if cfg.workload == "cold-solve" {
		seed = "any"
	}
	dir := filepath.Join(cfg.out, "exact")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%s.json", hex.EncodeToString(sum[:8]), cfg.workload, seed))
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		js, err := json.Marshal(rep.exact)
		if err != nil {
			return err
		}
		return os.WriteFile(path, js, 0o644)
	}
	if err != nil {
		return err
	}
	var want map[string]float64
	if err := json.Unmarshal(prev, &want); err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	// Counts must match exactly. Ratios are sums over schedule sends,
	// whose order the planner does not fix, so they may differ in the
	// last bits.
	var diffs []string
	for k, v := range rep.exact {
		w, ok := want[k]
		if !ok || math.Abs(v-w) > 1e-9*math.Abs(w) {
			diffs = append(diffs, fmt.Sprintf("%s %v (earlier run %v)", k, v, w))
		}
	}
	if len(diffs) == 0 && len(want) == len(rep.exact) {
		rep.rows = append(rep.rows, "exactness: counts match the earlier same-seed run")
		return nil
	}
	sort.Strings(diffs)
	return fmt.Errorf("same-seed run differs: %s", strings.Join(diffs, "; "))
}

// procCPU is the CPU time this process has used, user and system, over
// all its threads. The benchmark times operations with it rather than
// with the wall clock: the kernel accounts CPU time the hypervisor gives
// to other guests as steal, not as the process's time, and on a shared
// 2-vCPU host, spells of 10–35% steal made wall times of the same
// operations double from one run to the next.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the peak resident set of this process.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goCounters snapshots the runtime's allocation and CPU counters.
type goCounters struct{ allocs, bytes, gcCPU, totalCPU float64 }

var goMetricNames = []string{
	"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
}

func readGo() goCounters {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goCounters{val(0), val(1), val(2), val(3)}
}

func (a goCounters) plus(b goCounters) goCounters {
	return goCounters{a.allocs + b.allocs, a.bytes + b.bytes, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

func (a goCounters) minus(b goCounters) goCounters {
	return goCounters{a.allocs - b.allocs, a.bytes - b.bytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// goLayer fills the go.* metrics from counters read around ops operations.
func goLayer(layer map[string]float64, before, after goCounters, ops int) {
	layer["go.allocs_per_op"] = (after.allocs - before.allocs) / float64(max(ops, 1))
	layer["go.alloc_mb_per_op"] = (after.bytes - before.bytes) / float64(max(ops, 1)) / (1 << 20)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		layer["go.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	} else {
		layer["go.gc_cpu_frac"] = 0
	}
}
