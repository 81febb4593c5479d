// Command benchmark is the repo's end-to-end benchmark: five workloads over
// the solver, the simulator, the goroutine runtime and the TCP cluster,
// every output checked against a reference, end-to-end metrics with tracing
// off and per-layer metrics from a traced run. README.md in this directory
// describes the workloads, the metrics and how they interact;
// BENCHMARK.json at the repo root is the contract later changes are gated
// by.
//
//	bash benchmark/run.sh --workload solve_cold --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// workloads are the five scenario names, in the order every run executes
// them. A workload is a time mix: all five scenarios run, the named one for
// ownerShare of the measured time and the others for an equal part of the
// rest, so that every end-to-end metric is observed in every run.
var workloads = []string{"solve_cold", "resolve_warm", "sim_matrix", "live_pipeline", "cluster_ctrl"}

// workloadWhy is each workload's one-line reason for existing, as
// BENCHMARK.json records it.
var workloadWhy = map[string]string{
	"solve_cold":    "one-shot ftsearch.Solve on seeded 12-PE applications gets half the time: ftsearch and core do the work, the runtimes none",
	"resolve_warm":  "retained ftsearch.Solver re-solving seeded rate shifts, then ReconfigPlanner.Plan, gets half the time: the warm path a cold-path win can hurt",
	"sim_matrix":    "the serial Fig. 9-12 matrix via experiments.RunAllWith gets half the time: engine tick, sim heap and the controlplane machines dominate",
	"live_pipeline": "the goroutine runtime under closed-loop, open-loop and primary-kill phases gets half the time: channels and scheduling, no solver",
	"cluster_ctrl":  "in-process cluster nodes over loopback TCP through the fault proxy get half the time: timer-bound command round trips and leader failover",
}

// runSeconds is the measured time of one run the driver is told to use.
const runSeconds = 15

const ownerShare = 0.5

// turns is how many slices of its time each CPU-bound scenario runs in,
// round robin.
const turns = 3

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

// share is the part of the measured time a scenario gets under a workload.
func share(owner, scenario string) float64 {
	if owner == scenario {
		return ownerShare
	}
	return (1 - ownerShare) / float64(len(workloads)-1)
}

// scenarios is one set-up of all five scenarios.
type scenarios struct {
	in      *inputs
	solve   *solveScenario
	resolve *resolveScenario
	matrix  *matrixScenario
	live    *liveScenario
	cluster *clusterScenario
}

// setUp builds the inputs from the seed, pre-solves what the warm paths
// retain, and boots the runtimes.
func setUp(r *run, seed int64) (*scenarios, error) {
	r.tr.workload = "setup"
	root := r.tr.begin(0, "bench.setup")
	defer r.tr.end(root)
	in, err := buildInputs(seed, r.sz, r.tr, root)
	if err != nil {
		return nil, err
	}
	s := &scenarios{in: in, solve: newSolveScenario(r, in), matrix: newMatrixScenario(r, in)}
	if s.resolve, err = newResolveScenario(r, in, seed, root); err != nil {
		return nil, err
	}
	if s.live, err = newLiveScenario(r, root); err != nil {
		return nil, err
	}
	if s.cluster, err = newClusterScenario(r, root); err != nil {
		s.live.close()
		return nil, err
	}
	return s, nil
}

// tearDown stops the runtimes of a set-up that will not be measured.
func (s *scenarios) tearDown() {
	s.live.close()
	s.cluster.close()
}

// settleGoroutines waits for the goroutine count to fall back to base and
// returns the count it ended on.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// execute is one benchmark run of one workload.
func execute(owner string, seed int64, seconds float64, traced bool, sz sizes) *run {
	r := newRun(owner, sz, traced)
	baseGoroutines := runtime.NumGoroutine()

	// Set-up is untimed work for the metrics below and timed as setup_s: it
	// is done Setups times and the last one is kept.
	var setupS []float64
	var s *scenarios
	for i := 0; i < sz.Setups; i++ {
		if s != nil {
			s.tearDown()
			settleGoroutines(baseGoroutines)
		}
		if i > 0 {
			r.tr.on = false // spans of one set-up are enough
		}
		t0 := time.Now()
		var err error
		s, err = setUp(r, seed)
		setupS = append(setupS, time.Since(t0).Seconds())
		r.ops(1)
		if err != nil {
			r.fail("set-up: %v", err)
			r.tr.on = traced
			return r
		}
	}
	r.tr.on = traced
	r.setTiming("setup_s", setupS)

	budget := func(scenario string) time.Duration {
		return time.Duration(seconds * share(owner, scenario) * float64(time.Second))
	}
	// The three CPU-bound scenarios take turns, a slice of their time each,
	// so that a slow stretch of the shared box spreads over all of them
	// instead of landing on one. The two runtimes then run their phases once;
	// the parallel matrix probe goes last, while both cores are awake.
	for i := 0; i < turns; i++ {
		runtime.GC()
		s.solve.measure(budget("solve_cold") / turns)
		s.resolve.measure(budget("resolve_warm") / turns)
		s.matrix.measure(budget("sim_matrix") / turns)
	}
	runtime.GC()
	s.live.measure(budget("live_pipeline"))
	s.matrix.measureParallel()
	runtime.GC()
	s.cluster.measure(budget("cluster_ctrl"))
	if traced {
		solvePaper(r, s.in.paper)
		runProbes(r, s.in)
	}

	// Leave no trace: every runtime is stopped by now.
	r.ops(1)
	if n := settleGoroutines(baseGoroutines); n > baseGoroutines {
		r.fail("goroutine leak: %d goroutines running, %d before set-up", n, baseGoroutines)
	}

	s.solve.report()
	s.resolve.report()
	s.matrix.report()
	s.live.report()
	s.cluster.report()

	// heap_mb: live heap after a forced collection with the workload state
	// (inputs, retained solvers, reference results) still referenced.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.set("heap_mb", float64(mem.HeapAlloc)/1e6, 1)
	runtime.KeepAlive(s)

	if traced {
		if rtt, ok := r.metrics["cmd_rtt_ms_p50"]; ok && rtt > 0 {
			r.set("netx.proxy_rtt_over_cmd_rtt", r.metrics["netx.proxy_rtt_us_p50"]/1e3/rtt, 1)
		}
		r.set("bench.fail_frac", float64(r.failed)/math.Max(1, float64(r.attempted)), int(r.attempted))
		r.set("bench.trace_spans", float64(len(r.tr.spans)), 1)
		for _, st := range []struct{ key, call string }{
			{"appgen.generate_ms", "appgen.Generate"},
			{"strategy.greedy_ms", "strategy.Greedy"},
			{"strategy.nonreplicated_ms", "strategy.NonReplicated"},
		} {
			r.setTiming(st.key, r.tr.durationsMs("setup", st.call))
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if miss := r.missing(defs); len(miss) > 0 && r.failed == 0 {
		r.fail("metrics not produced: %v", miss)
	}
	return r
}

// ---- output ----

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec is BENCHMARK.json as the catalog in metrics.go implies it; -spec
// prints it and a test holds the checked-in file to it.
func spec() map[string]any {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []wl
	for _, w := range workloads {
		ws = append(ws, wl{w, workloadWhy[w]})
	}
	var es []e2e
	for _, d := range endToEnd {
		es = append(es, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	var ls []layer
	for _, d := range perLayer {
		ls = append(ls, layer{d.Name, d.Unit, d.Better})
	}
	return map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  es,
		"per_layer":   ls,
	}
}

// resultLine is the last line of standard output: exactly these keys.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report is what -out writes: the result line plus the run's context.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	Result     resultLine         `json:"result"`
	Samples    map[string]int     `json:"samples"`
	Tails      map[string]float64 `json:"tails,omitempty"`
	Failures   []string           `json:"failures,omitempty"`
}

func (r *run) resultLine(defs []metricDef) resultLine {
	out := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	for _, d := range defs {
		if v, ok := r.metrics[d.Name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			out.Metrics[d.Name] = metricOut{v, d.Unit}
		}
	}
	return out
}

// printTable prints every metric of defs by name and unit.
func printTable(w io.Writer, r *run, defs []metricDef, seed int64, seconds float64) {
	fmt.Fprintf(w, "# workload %s  seed %d  seconds %g  traced %v  %s  GOMAXPROCS %d  nproc %d\n",
		r.owner, seed, seconds, r.tr.on, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			fmt.Fprintf(w, "%-36s %14s %-9s\n", d.Name, "-", d.Unit)
			continue
		}
		line := fmt.Sprintf("%-36s %14.6g %-9s n=%d", d.Name, v, d.Unit, r.samples[d.Name])
		if t, ok := r.tails[d.Name]; ok && r.samples[d.Name] >= 20 {
			line += fmt.Sprintf("  p%g=%.6g", topPercentile(r.samples[d.Name]), t)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "attempted %d  failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	if r.tr.on {
		fmt.Fprintf(w, "# spans: scenario call count total_ms self_ms\n")
		for _, c := range r.tr.summary() {
			fmt.Fprintf(w, "%-14s %-36s %8d %12.3f %12.3f\n", c.Workload, c.Call, c.Count, c.TotalMs, c.SelfMs)
		}
	}
}

// repeatTable runs the workload n times on consecutive seeds and prints,
// per end-to-end metric, the median of each half of the runs, the spread of
// all runs and whether both stay within the metric's bound: the driver's
// acceptance rule, and the tool for pairing a parent with a change.
func repeatTable(w io.Writer, owner string, seed int64, seconds float64, n int, sz sizes) bool {
	vals := map[string][]float64{}
	ok := true
	for i := 0; i < n; i++ {
		r := execute(owner, seed+int64(i), seconds, false, sz)
		if r.failed > 0 {
			ok = false
			for _, f := range r.failures {
				fmt.Fprintf(w, "FAIL seed %d: %s\n", seed+int64(i), f)
			}
		}
		for _, d := range endToEnd {
			vals[d.Name] = append(vals[d.Name], r.metrics[d.Name])
		}
	}
	fmt.Fprintf(w, "# workload %s: %d runs, seeds %d..%d\n", owner, n, seed, seed+int64(n)-1)
	fmt.Fprintf(w, "%-24s %12s %12s %8s %8s  %s\n", "metric", "median[0:h]", "median[h:]", "spread", "bound", "verdict")
	for _, d := range endToEnd {
		v := vals[d.Name]
		a, b := median(v[:n/2]), median(v[n/2:])
		worse := b/a - 1
		if d.Better == "higher" {
			worse = a/b - 1
		}
		sp := spread(v)
		verdict := "ok"
		if worse > d.Bound || (d.Name != "setup_s" && sp > d.Bound) {
			verdict = "unresolved"
			ok = false
		}
		fmt.Fprintf(w, "%-24s %12.6g %12.6g %8.4f %8.2f  %s\n", d.Name, a, b, sp, d.Bound, verdict)
	}
	return ok
}

func main() {
	var (
		workload = flag.String("workload", "all", "one of "+fmt.Sprint(workloads)+", or all")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", runSeconds, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans here as JSON lines")
		out      = flag.String("out", "", "write the run reports here as JSON")
		smoke    = flag.Bool("smoke", false, "tiny sizes: every code path, meaningless timings")
		repeat   = flag.Int("repeat", 0, "run the untraced workload this many times and judge each metric's spread against its bound")
		specOut  = flag.Bool("spec", false, "print the BENCHMARK.json the metric catalog implies and exit")
	)
	flag.Parse()
	if *specOut {
		b, _ := json.MarshalIndent(spec(), "", "  ") // strings and numbers only: cannot fail
		fmt.Println(string(b))
		return
	}
	if flag.NArg() > 0 || (*workload != "all" && !isWorkload(*workload)) || *seconds <= 0 || (*trace != 0 && *trace != 1) || *repeat == 1 {
		fmt.Fprintf(os.Stderr, "benchmark: bad arguments\n")
		flag.Usage()
		os.Exit(2)
	}
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	names := workloads
	if *workload != "all" {
		names = []string{*workload}
	}
	allOK := true
	if *repeat > 1 {
		for _, w := range names {
			allOK = repeatTable(os.Stdout, w, *seed, *seconds, *repeat, sz) && allOK
		}
		if !allOK {
			os.Exit(1)
		}
		return
	}
	var reports []report
	for _, w := range names {
		r := execute(w, *seed, *seconds, *trace == 1, sz)
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		printTable(os.Stdout, r, defs, *seed, *seconds)
		line := r.resultLine(defs)
		allOK = allOK && line.Correct
		reports = append(reports, report{
			Workload: w, Seed: *seed, Seconds: *seconds, Traced: *trace == 1,
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Result: line, Samples: r.samples, Tails: r.tails, Failures: r.failures,
		})
		if *traceOut != "" && *trace == 1 {
			path := *traceOut
			if len(names) > 1 {
				path = w + "." + path
			}
			if err := r.tr.writeJSONL(path); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				os.Exit(2)
			}
		}
		b, _ := json.Marshal(line) // numbers and strings only: cannot fail
		fmt.Println(string(b))
	}
	if *out != "" {
		b, err := json.MarshalIndent(reports, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(2)
		}
	}
	if !allOK {
		os.Exit(1)
	}
}
