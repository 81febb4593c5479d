package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"laar/internal/engine"
	"laar/internal/experiments"
)

// icSlack is how far a LAAR variant's measured worst-case IC may fall below
// its target before the run is wrong. The IC guarantee is on the fluid
// model; the paper itself reports measured shortfalls up to 4.7 %.
const icSlack = 0.05

// matrixScenario is the Fig. 9–12 runtime matrix: every corpus application
// under six variants and the best-case, worst-case and host-crash
// scenarios, run serially as the single-thread baseline.
type matrixScenario struct {
	r      *run
	corpus []*experiments.AppRun
	ref    *experiments.RuntimeResults
	cells  int
	// the reference pass's cell totals, and whether a pass of each walk has
	// been compared in full yet
	refTotals             []float64
	deepPlain, deepTraced bool

	passS      []float64
	tracedS    []float64
	allocBytes []float64
	parS       []float64
}

func newMatrixScenario(r *run, in *inputs) *matrixScenario {
	m := &matrixScenario{r: r, corpus: in.corpus}
	m.cells = len(m.corpus)*len(experiments.Variants)*2 + r.sz.CrashApps*len(experiments.Variants)
	return m
}

func (m *matrixScenario) opts(parallelism int) experiments.RunAllOptions {
	return experiments.RunAllOptions{Parallelism: parallelism, CrashApps: m.r.sz.CrashApps}
}

// pass runs the matrix once through the repo's own driver.
func (m *matrixScenario) pass(parallelism int) (*experiments.RuntimeResults, float64, error) {
	t0 := time.Now()
	rr, err := experiments.RunAllWith(m.corpus, engine.Config{}, m.opts(parallelism))
	return rr, time.Since(t0).Seconds(), err
}

// cellSeed and crashTime restate two unexported rules of
// experiments.RunAllWith / RunVariant so that the traced pass can walk the
// cells itself; check() holds the two walks to reflect.DeepEqual results.
func cellSeed(base int64, app int, v experiments.Variant, sc experiments.Scenario) int64 {
	x := uint64(base) ^ 0x9e3779b97f4a7c15
	x ^= uint64(app)<<32 | uint64(v)<<8 | uint64(sc)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

func crashTime(app *experiments.AppRun) float64 {
	var highs []float64
	for _, seg := range app.Trace.Segments() {
		if seg.Config == app.Gen.HighCfg {
			highs = append(highs, seg.Start)
		}
	}
	switch len(highs) {
	case 0:
		return app.Trace.Duration() / 2
	case 1:
		return highs[0] + 2
	}
	return highs[1] + 2
}

// tracedCell runs one (application, variant, scenario) cell with engine.New,
// InjectAll and Run under their own child spans.
func (m *matrixScenario) tracedCell(parent, idx int, v experiments.Variant, sc experiments.Scenario) (*engine.Metrics, error) {
	tr := m.r.tr
	app := m.corpus[idx]
	strat := app.Strategies[v]
	cell := tr.begin(parent, "bench.matrix_cell")
	defer tr.end(cell)
	id := tr.begin(cell, "engine.New")
	sim, err := engine.New(app.Gen.Desc, app.Gen.Assignment, strat, app.Trace, engine.Config{Seed: cellSeed(0, idx, v, sc)})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	var plan []engine.FailureEvent
	switch sc {
	case experiments.WorstCase:
		plan = engine.WorstCasePlan(app.Gen.Rates, strat)
	case experiments.HostCrash:
		hosts := app.Gen.Assignment.NumHosts
		if plan, err = engine.HostCrashPlan(hosts, idx%hosts, crashTime(app), 16); err != nil {
			return nil, err
		}
	}
	if plan != nil {
		id = tr.begin(cell, "engine.InjectAll")
		err = sim.InjectAll(plan)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	id = tr.begin(cell, "engine.Run")
	met, err := sim.Run()
	tr.end(id)
	return met, err
}

// tracedPass walks the cells in RunAllWith's order.
func (m *matrixScenario) tracedPass() (*experiments.RuntimeResults, float64, error) {
	n := len(m.corpus)
	rr := &experiments.RuntimeResults{
		Best:  make([]map[experiments.Variant]*engine.Metrics, n),
		Worst: make([]map[experiments.Variant]*engine.Metrics, n),
		Crash: make([]map[experiments.Variant]*engine.Metrics, m.r.sz.CrashApps),
	}
	root := m.r.tr.begin(0, "bench.matrix_pass")
	t0 := time.Now()
	for i := range m.corpus {
		rr.Best[i] = map[experiments.Variant]*engine.Metrics{}
		rr.Worst[i] = map[experiments.Variant]*engine.Metrics{}
		if i < m.r.sz.CrashApps {
			rr.Crash[i] = map[experiments.Variant]*engine.Metrics{}
		}
		for _, v := range experiments.Variants {
			for _, sc := range []experiments.Scenario{experiments.BestCase, experiments.WorstCase, experiments.HostCrash} {
				dst := [][]map[experiments.Variant]*engine.Metrics{rr.Best, rr.Worst, rr.Crash}[sc]
				if i >= len(dst) {
					continue
				}
				m.r.tr.op++
				met, err := m.tracedCell(root, i, v, sc)
				if err != nil {
					m.r.tr.end(root)
					return nil, 0, fmt.Errorf("app %d %v %v: %w", i, v, sc, err)
				}
				dst[i][v] = met
			}
		}
	}
	d := time.Since(t0).Seconds()
	m.r.tr.end(root)
	return rr, d, nil
}

// checkMatrix holds one pass's results to the paper's claims: LAAR's
// measured worst-case IC meets its target, and L.5 drops nothing in the
// best case where static replication does.
func checkMatrix(rr *experiments.RuntimeResults) []string {
	var bad []string
	var l5Drops, srDrops float64
	for i := range rr.Best {
		ref := rr.Best[i][experiments.NR].ProcessedTotal
		for _, v := range []experiments.Variant{experiments.L5, experiments.L6, experiments.L7} {
			if ref > 0 {
				if ic := rr.Worst[i][v].ProcessedTotal / ref; ic < v.ICTarget()-icSlack {
					bad = append(bad, fmt.Sprintf("app %d %v: measured worst-case IC %.3f below target %.1f", i, v, ic, v.ICTarget()))
				}
			}
		}
		l5Drops += rr.Best[i][experiments.L5].DroppedTotal
		srDrops += rr.Best[i][experiments.SR].DroppedTotal
	}
	if l5Drops != 0 {
		bad = append(bad, fmt.Sprintf("L.5 dropped %.0f tuples in the best case, want 0", l5Drops))
	}
	if srDrops <= l5Drops {
		bad = append(bad, fmt.Sprintf("SR dropped %.0f tuples in the best case, not more than L.5's %.0f", srDrops, l5Drops))
	}
	return bad
}

// cellTotals is the cheap stand-in for reflect.DeepEqual on a pass: the
// scalar totals of every cell, compared exactly. A full DeepEqual walks 3 M
// time-series floats by reflection and costs as much as the pass it checks.
func cellTotals(rr *experiments.RuntimeResults) []float64 {
	var out []float64
	for _, scen := range [][]map[experiments.Variant]*engine.Metrics{rr.Best, rr.Worst, rr.Crash} {
		for _, byV := range scen {
			for _, v := range experiments.Variants {
				m := byV[v]
				out = append(out, m.EmittedTotal, m.SinkTotal, m.ProcessedTotal, m.DroppedTotal,
					m.CPUCyclesTotal, float64(m.ConfigSwitches), float64(len(m.Series)))
			}
		}
	}
	return out
}

// check counts one pass's cells and holds it to the reference pass: the
// first pass of each walk (RunAllWith's, the traced one) by
// reflect.DeepEqual, later ones by their cell totals.
func (m *matrixScenario) check(rr *experiments.RuntimeResults, err error, deep *bool) {
	m.r.ops(int64(m.cells))
	if err != nil {
		m.r.failN(int64(m.cells), "sim_matrix: %v", err)
		return
	}
	if m.ref == nil {
		m.ref, m.refTotals = rr, cellTotals(rr)
		for _, msg := range checkMatrix(rr) {
			m.r.fail("sim_matrix: %s", msg)
		}
		return
	}
	same := reflect.DeepEqual(m.refTotals, cellTotals(rr))
	if same && !*deep {
		same, *deep = reflect.DeepEqual(m.ref, rr), true
	}
	if !same {
		m.r.fail("sim_matrix: pass results differ from the reference pass")
	}
}

// measure runs passes until the budget is spent, at least one, after a
// warm-up pass the first time it is called.
func (m *matrixScenario) measure(budget time.Duration) {
	m.r.tr.workload = "sim_matrix"
	var rr *experiments.RuntimeResults
	var err error
	if m.ref == nil {
		rr, _, err = m.pass(1)
		m.check(rr, err, &m.deepPlain)
	}
	start := time.Now()
	for done := false; !done; done = time.Since(start) >= budget {
		p := len(m.passS) + len(m.tracedS)
		m.r.tr.pass, m.r.tr.op = p, 0
		traced := m.r.tr.on && (m.r.owner != "sim_matrix" || p%2 == 0)
		before := totalAlloc(m.r)
		var d float64
		deep := &m.deepPlain
		if traced {
			rr, d, err = m.tracedPass()
			m.tracedS = append(m.tracedS, d)
			deep = &m.deepTraced
		} else {
			rr, d, err = m.pass(1)
			m.passS = append(m.passS, d)
		}
		if m.r.tr.on {
			m.allocBytes = append(m.allocBytes, float64(totalAlloc(m.r)-before)/float64(m.cells))
		}
		m.check(rr, err, deep)
	}
}

// measureParallel is the traced run's experiments.par_speedup probe: the
// same matrix across every core.
func (m *matrixScenario) measureParallel() {
	if !m.r.tr.on {
		return
	}
	m.r.tr.workload = "sim_matrix"
	for i := 0; i < 3; i++ {
		rr, d, err := m.pass(runtime.GOMAXPROCS(0))
		m.check(rr, err, &m.deepPlain)
		m.parS = append(m.parS, d)
	}
}

func (m *matrixScenario) report() {
	r := m.r
	all := append(append([]float64(nil), m.passS...), m.tracedS...)
	r.setTiming("matrix_s", all)
	if !r.tr.on || m.ref == nil {
		return
	}
	r.setTiming("engine.new_ms", r.tr.durationsMs("sim_matrix", "engine.New"))
	inject := r.tr.durationsMs("sim_matrix", "engine.InjectAll")
	for i := range inject {
		inject[i] *= 1e3
	}
	r.setTiming("engine.inject_all_us", inject)
	runMs := r.tr.durationsMs("sim_matrix", "engine.Run")
	r.setTiming("engine.run_ms_per_cell", runMs)
	r.set("engine.wall_ns_per_sim_s", median(runMs)*1e6/r.sz.TraceSeconds, len(runMs))
	r.setTiming("engine.alloc_bytes_per_cell", m.allocBytes)
	r.set("engine.cells", float64(m.cells), 1)
	var switches int
	var dropped float64
	for _, scen := range [][]map[experiments.Variant]*engine.Metrics{m.ref.Best, m.ref.Worst, m.ref.Crash} {
		for _, byV := range scen {
			for _, met := range byV {
				switches += met.ConfigSwitches
				dropped += met.DroppedTotal
			}
		}
	}
	r.set("engine.config_switches", float64(switches), m.cells)
	r.set("engine.dropped_total", dropped, m.cells)
	r.set("experiments.par_speedup", median(all)/median(m.parS), len(m.parS))
	r.set("bench.matrix_span_coverage", r.tr.totalMs("sim_matrix", "engine.New", "engine.InjectAll", "engine.Run")/r.tr.totalMs("sim_matrix", "bench.matrix_pass"), len(m.tracedS))
	if r.owner == "sim_matrix" && len(m.passS) > 0 && len(m.tracedS) > 0 {
		r.set("bench.trace_overhead_frac", median(m.tracedS)/median(m.passS)-1, len(m.tracedS))
	}
}
