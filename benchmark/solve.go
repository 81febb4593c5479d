package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"laar/internal/appgen"
	"laar/internal/controlplane"
	"laar/internal/core"
	"laar/internal/ftsearch"
)

// relTol absorbs the different accumulation orders of FT-Search's compiled
// instance and core's reference evaluation of the same strategy.
const relTol = 1e-9

func relEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// solveOutcome is what must repeat exactly from pass to pass and from run
// to run for one solve: the search is sequential and bounded by a node
// budget, never by the clock.
type solveOutcome struct {
	Outcome ftsearch.Outcome
	Cost    float64
	Nodes   int64
	Prunes  [4]int64
}

func outcomeOf(res *ftsearch.Result) solveOutcome {
	o := solveOutcome{Outcome: res.Outcome, Cost: res.Cost, Nodes: res.Stats.Nodes}
	for i := range o.Prunes {
		o.Prunes[i] = res.Stats.Prunes[i]
	}
	return o
}

// proved reports the search space was exhausted (BST or NUL).
func (o solveOutcome) proved() bool {
	return o.Outcome == ftsearch.Optimal || o.Outcome == ftsearch.Infeasible
}

// verifyStrategy re-derives a returned strategy's guarantees with core's
// reference functions: IC at least the target, no host overloaded, and the
// reported cost equal to core.Cost.
func verifyStrategy(r *core.Rates, asg *core.Assignment, icMin float64, res *ftsearch.Result) error {
	if res.Strategy == nil {
		if res.Outcome == ftsearch.Optimal || res.Outcome == ftsearch.Feasible {
			return fmt.Errorf("outcome %v without a strategy", res.Outcome)
		}
		return nil
	}
	if ic := core.IC(r, res.Strategy, core.Pessimistic{}); ic < icMin-relTol {
		return fmt.Errorf("strategy IC %.9f below target %.2f", ic, icMin)
	}
	if h, c, over := core.Overloaded(r, res.Strategy, asg); over {
		return fmt.Errorf("strategy overloads host %d in configuration %d", h, c)
	}
	if want := core.Cost(r, res.Strategy); !relEqual(res.Cost, want, relTol) {
		return fmt.Errorf("reported cost %v, core.Cost %v", res.Cost, want)
	}
	return nil
}

// totalAlloc reads the bytes allocated so far, for the traced run's
// allocation metrics; an untraced run skips the stop-the-world read.
func totalAlloc(r *run) uint64 {
	if !r.tr.on {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// samePass compares a pass's outcomes with the reference pass.
func samePass(ref, got []solveOutcome) error {
	if len(ref) != len(got) {
		return fmt.Errorf("pass has %d operations, reference has %d", len(got), len(ref))
	}
	for i := range ref {
		if ref[i] != got[i] {
			return fmt.Errorf("operation %d: %+v, reference pass had %+v", i, got[i], ref[i])
		}
	}
	return nil
}

// ---- solve_cold ----

type solveInstance struct {
	gen   *appgen.Generated
	icMin float64
}

// solveScenario is the paper's offline optimiser: one-shot ftsearch.Solve
// calls, closed loop, one client.
type solveScenario struct {
	r    *run
	inst []solveInstance
	ref  []solveOutcome

	passS      []float64 // wall time of the solves of each measured pass
	tracedS    []float64 // the same, for passes run with spans on
	firstMs    []float64
	allocBytes []float64
}

func newSolveScenario(r *run, in *inputs) *solveScenario {
	s := &solveScenario{r: r}
	for _, g := range in.apps {
		for _, ic := range solveICs {
			s.inst = append(s.inst, solveInstance{g, ic})
		}
	}
	return s
}

// pass solves every instance once and returns the summed solve time.
func (s *solveScenario) pass(traced bool) float64 {
	tr := s.r.tr
	if !traced {
		tr = nil
	}
	root := tr.begin(0, "bench.solve_pass")
	outs := make([]solveOutcome, 0, len(s.inst))
	var total time.Duration
	for i, in := range s.inst {
		if tr != nil {
			tr.op = i
		}
		id := tr.begin(root, "ftsearch.Solve")
		t0 := time.Now()
		res, err := ftsearch.Solve(in.gen.Rates, in.gen.Assignment, ftsearch.Options{
			ICMin: in.icMin, NodeBudget: s.r.sz.SolveBudget, Workers: 1,
		})
		total += time.Since(t0)
		tr.end(id)
		s.r.ops(1)
		if err != nil {
			s.r.fail("solve_cold: instance %d: %v", i, err)
			outs = append(outs, solveOutcome{})
			continue
		}
		if err := verifyStrategy(in.gen.Rates, in.gen.Assignment, in.icMin, res); err != nil {
			s.r.fail("solve_cold: instance %d: %v", i, err)
		}
		outs = append(outs, outcomeOf(res))
		if res.Strategy != nil {
			s.firstMs = append(s.firstMs, float64(res.FirstTime)/1e6)
		}
	}
	tr.end(root)
	if s.ref == nil {
		s.ref = outs
	} else if err := samePass(s.ref, outs); err != nil {
		s.r.fail("solve_cold: not deterministic: %v", err)
	}
	return total.Seconds()
}

// measure runs passes until the budget is spent, at least one, after a
// warm-up pass the first time it is called. In a traced run of the owning
// workload every second pass runs with spans off, which is what
// bench.trace_overhead_frac compares.
func (s *solveScenario) measure(budget time.Duration) {
	s.r.tr.workload = "solve_cold"
	if s.ref == nil {
		s.pass(false)
	}
	start := time.Now()
	for done := false; !done; done = time.Since(start) >= budget {
		p := len(s.passS) + len(s.tracedS)
		s.r.tr.pass = p
		traced := s.r.tr.on && (s.r.owner != "solve_cold" || p%2 == 0)
		before := totalAlloc(s.r)
		d := s.pass(traced)
		if s.r.tr.on {
			s.allocBytes = append(s.allocBytes, float64(totalAlloc(s.r)-before)/float64(len(s.inst)))
		}
		if traced {
			s.tracedS = append(s.tracedS, d)
		} else {
			s.passS = append(s.passS, d)
		}
	}
}

func (s *solveScenario) report() {
	r := s.r
	all := append(append([]float64(nil), s.passS...), s.tracedS...)
	r.setTiming("solve_s", all)
	if !r.tr.on {
		return
	}
	var nodes int64
	var prunes [4]int64
	proved := 0
	for _, o := range s.ref {
		nodes += o.Nodes
		for i := range prunes {
			prunes[i] += o.Prunes[i]
		}
		if o.proved() {
			proved++
		}
	}
	r.set("ftsearch.nodes", float64(nodes), len(s.ref))
	r.set("ftsearch.nodes_per_s", float64(nodes)/median(all), len(all))
	r.set("ftsearch.prunes_cpu", float64(prunes[ftsearch.PruneCPU]), len(s.ref))
	r.set("ftsearch.prunes_ic", float64(prunes[ftsearch.PruneIC]), len(s.ref))
	r.set("ftsearch.prunes_cost", float64(prunes[ftsearch.PruneCost]), len(s.ref))
	r.set("ftsearch.prunes_dom", float64(prunes[ftsearch.PruneDOM]), len(s.ref))
	r.set("ftsearch.proved_frac", float64(proved)/float64(len(s.ref)), len(s.ref))
	r.setTiming("ftsearch.first_solution_ms", s.firstMs)
	r.setTiming("ftsearch.alloc_bytes_per_solve", s.allocBytes)
	r.set("bench.solve_span_coverage", r.tr.totalMs("solve_cold", "ftsearch.Solve")/r.tr.totalMs("solve_cold", "bench.solve_pass"), len(s.tracedS))
	if r.owner == "solve_cold" && len(s.passS) > 0 && len(s.tracedS) > 0 {
		r.set("bench.trace_overhead_frac", median(s.tracedS)/median(s.passS)-1, len(s.tracedS))
	}
}

// ---- resolve_warm ----

// resolveLadder draws the rate ladder every configuration of every solver
// climbs in one pass: a small and a large swing around nominal, the
// amplitudes seeded (about ±5 % and ±10 %). Scales are absolute and the
// ladder ends at nominal, so every pass starts from the same rates.
func resolveLadder(rng *rand.Rand) []float64 {
	small := 0.03 + 0.04*rng.Float64()
	large := 0.08 + 0.04*rng.Float64()
	return []float64{1 + small, 1 - small, 1 + large, 1 - large, 1.0}
}

// checkEvery is how often a warm resolve is compared with a cold solve.
const checkEvery = 8

type warmSolver struct {
	gen    *appgen.Generated
	icMin  float64
	sv     *ftsearch.Solver
	cur    *core.Strategy
	scales []float64 // accumulated absolute scale per configuration
}

type resolveOp struct {
	solver int
	shift  ftsearch.Shift
}

// resolveScenario is the paper's dynamic re-provisioning: retained solvers
// re-solve a seeded schedule of rate shifts warm, and every changed
// strategy is planned into an IC-safe flip order.
type resolveScenario struct {
	r       *run
	solvers []*warmSolver
	sched   []resolveOp
	planner controlplane.ReconfigPlanner
	ref     []solveOutcome

	opMs       [][]float64 // [op][measured pass] latency of Resolve (+ Plan)
	opMsTraced [][]float64
	newMs      []float64
	allocBytes []float64
	warmStarts int
	// warm-versus-cold comparison on the checked shifts of the warm-up pass
	checkedWarmNodes, checkedColdNodes int64
}

// newResolveScenario builds and cold-solves the retained solvers: this is
// the part of set-up a heavier NewSolver would show in.
func newResolveScenario(r *run, in *inputs, seed int64, parent int) (*resolveScenario, error) {
	s := &resolveScenario{r: r}
	for _, g := range in.pool {
		for _, ic := range solveICs[:2] {
			id := r.tr.begin(parent, "ftsearch.NewSolver")
			t0 := time.Now()
			sv, err := ftsearch.NewSolver(g.Rates, g.Assignment, ftsearch.SolverConfig{
				Opts: ftsearch.Options{ICMin: ic, NodeBudget: r.sz.ResolveBudget},
			})
			s.newMs = append(s.newMs, float64(time.Since(t0))/1e6)
			r.tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("resolve_warm: NewSolver: %w", err)
			}
			id = r.tr.begin(parent, "ftsearch.Solver.Solve")
			res, err := sv.Solve()
			r.tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("resolve_warm: first Solve: %w", err)
			}
			ws := &warmSolver{gen: g, icMin: ic, sv: sv, cur: res.Strategy, scales: make([]float64, g.Desc.NumConfigs())}
			for c := range ws.scales {
				ws.scales[c] = 1
			}
			s.solvers = append(s.solvers, ws)
		}
	}
	// One seeded order of (solver, configuration) per ladder step.
	rng := scenarioRNG(seed, 4)
	for _, scale := range resolveLadder(rng) {
		var step []resolveOp
		for i, ws := range s.solvers {
			for c := range ws.scales {
				step = append(step, resolveOp{i, ftsearch.Shift{Cfg: c, Scale: scale}})
			}
		}
		rng.Shuffle(len(step), func(a, b int) { step[a], step[b] = step[b], step[a] })
		s.sched = append(s.sched, step...)
	}
	s.opMs = make([][]float64, len(s.sched))
	s.opMsTraced = make([][]float64, len(s.sched))
	return s, nil
}

// shiftedRates rebuilds core.Rates with every configuration's source rates
// scaled: the ground truth a warm resolve is compared against.
func shiftedRates(d *core.Descriptor, scales []float64) (*core.Rates, error) {
	configs := make([]core.InputConfig, len(d.Configs))
	for i, c := range d.Configs {
		configs[i] = core.InputConfig{Name: c.Name, Prob: c.Prob, Rates: append([]float64(nil), c.Rates...)}
		for j := range configs[i].Rates {
			configs[i].Rates[j] *= scales[i]
		}
	}
	d2 := &core.Descriptor{App: d.App, Configs: configs, HostCapacity: d.HostCapacity, BillingPeriod: d.BillingPeriod}
	if err := d2.Validate(); err != nil {
		return nil, err
	}
	return core.NewRates(d2), nil
}

// checkAgainstCold compares a warm result with a one-shot cold solve on the
// accumulated rates. Both searches are exhaustive unless the node budget
// cut them, so when both proved their answer the outcome and cost must
// agree; a budget-cut pair is not comparable and is skipped.
func checkAgainstCold(ws *warmSolver, warm *ftsearch.Result, budget int64) (coldNodes int64, comparable bool, err error) {
	rates, err := shiftedRates(ws.gen.Desc, ws.scales)
	if err != nil {
		return 0, false, err
	}
	if err := verifyStrategy(rates, ws.gen.Assignment, ws.icMin, warm); err != nil {
		return 0, false, fmt.Errorf("on shifted rates: %w", err)
	}
	cold, err := ftsearch.Solve(rates, ws.gen.Assignment, ftsearch.Options{ICMin: ws.icMin, NodeBudget: budget, Workers: 1})
	if err != nil {
		return 0, false, err
	}
	w, c := outcomeOf(warm), outcomeOf(cold)
	if !w.proved() || !c.proved() {
		return c.Nodes, false, nil
	}
	if w.Outcome != c.Outcome {
		return c.Nodes, true, fmt.Errorf("warm outcome %v, cold %v", w.Outcome, c.Outcome)
	}
	if !relEqual(w.Cost, c.Cost, 1e-6) {
		return c.Nodes, true, fmt.Errorf("warm cost %v, cold %v", w.Cost, c.Cost)
	}
	return c.Nodes, true, nil
}

// pass replays the schedule once. check turns on the cold comparison of
// every checkEvery-th resolve, outside the timed region.
func (s *resolveScenario) pass(traced, check bool) []float64 {
	tr := s.r.tr
	if !traced {
		tr = nil
	}
	root := tr.begin(0, "bench.resolve_pass")
	outs := make([]solveOutcome, 0, len(s.sched))
	ms := make([]float64, len(s.sched))
	for i, op := range s.sched {
		ws := s.solvers[op.solver]
		if tr != nil {
			tr.op = i
		}
		opSpan := tr.begin(root, "bench.resolve_op")
		t0 := time.Now()
		id := tr.begin(opSpan, "ftsearch.Solver.Resolve")
		res, err := ws.sv.Resolve(op.shift)
		tr.end(id)
		if err == nil && res.Strategy != nil && ws.cur != nil {
			id = tr.begin(opSpan, "controlplane.ReconfigPlanner.Plan")
			for c := range res.Strategy.Active {
				s.planner.Plan(ws.cur.Active[c], res.Strategy.Active[c])
			}
			tr.end(id)
		}
		ms[i] = float64(time.Since(t0)) / 1e6
		tr.end(opSpan)
		s.r.ops(1)
		if err != nil {
			s.r.fail("resolve_warm: op %d: %v", i, err)
			outs = append(outs, solveOutcome{})
			continue
		}
		ws.scales[op.shift.Cfg] = op.shift.Scale
		if res.Strategy != nil {
			ws.cur = res.Strategy
		}
		if res.WarmStart {
			s.warmStarts++
		}
		outs = append(outs, outcomeOf(res))
		if check && i%checkEvery == 0 {
			coldNodes, comparable, err := checkAgainstCold(ws, res, s.r.sz.ResolveBudget)
			if err != nil {
				s.r.fail("resolve_warm: op %d: %v", i, err)
			}
			if comparable {
				s.checkedWarmNodes += res.Stats.Nodes
				s.checkedColdNodes += coldNodes
			}
		}
	}
	tr.end(root)
	if !check { // the checked pass is the warm-up; measured passes must agree with each other
		if s.ref == nil {
			s.ref = outs
		} else if err := samePass(s.ref, outs); err != nil {
			s.r.fail("resolve_warm: not deterministic: %v", err)
		}
	}
	return ms
}

// measure runs passes until the budget is spent, at least one, after the
// checked warm-up pass the first time it is called.
func (s *resolveScenario) measure(budget time.Duration) {
	s.r.tr.workload = "resolve_warm"
	if s.ref == nil {
		s.pass(false, true)
		s.warmStarts = 0
	}
	start := time.Now()
	for done := false; !done; done = time.Since(start) >= budget {
		p := len(s.opMs[0]) + len(s.opMsTraced[0])
		s.r.tr.pass = p
		traced := s.r.tr.on && (s.r.owner != "resolve_warm" || p%2 == 0)
		before := totalAlloc(s.r)
		ms := s.pass(traced, false)
		if s.r.tr.on {
			s.allocBytes = append(s.allocBytes, float64(totalAlloc(s.r)-before)/float64(len(s.sched)))
		}
		dst := s.opMs
		if traced {
			dst = s.opMsTraced
		}
		for i, v := range ms {
			dst[i] = append(dst[i], v)
		}
	}
}

// perOpMedians reduces [op][pass] latencies to one typical latency per
// operation of the schedule, so that a stall of the shared box in one pass
// does not read as a slow resolve.
func perOpMedians(opMs ...[][]float64) []float64 {
	var out []float64
	for i := range opMs[0] {
		var all []float64
		for _, m := range opMs {
			all = append(all, m[i]...)
		}
		if len(all) > 0 {
			out = append(out, median(all))
		}
	}
	return out
}

func (s *resolveScenario) report() {
	r := s.r
	typical := perOpMedians(s.opMs, s.opMsTraced)
	passes := len(s.opMs[0]) + len(s.opMsTraced[0])
	r.set("resolve_ms_p50", percentile(typical, 50), len(typical)*passes)
	r.set("resolve_ms_p99", percentile(typical, 99), len(typical)*passes)
	if !r.tr.on {
		return
	}
	var warmNodes int64
	for _, o := range s.ref {
		warmNodes += o.Nodes
	}
	r.setTiming("ftsearch.new_solver_ms", s.newMs)
	r.set("ftsearch.warm_nodes", float64(warmNodes), len(s.ref))
	ratio := math.NaN()
	if s.checkedColdNodes > 0 {
		ratio = float64(s.checkedWarmNodes) / float64(s.checkedColdNodes)
	}
	r.set("ftsearch.warm_node_ratio", ratio, len(s.sched)/checkEvery)
	r.set("ftsearch.warm_start_frac", float64(s.warmStarts)/float64(len(s.sched)*passes), len(s.sched)*passes)
	r.setTiming("ftsearch.alloc_bytes_per_resolve", s.allocBytes)
	if r.owner == "resolve_warm" && len(s.opMs[0]) > 0 && len(s.opMsTraced[0]) > 0 {
		r.set("bench.trace_overhead_frac",
			percentile(perOpMedians(s.opMsTraced), 50)/percentile(perOpMedians(s.opMs), 50)-1, len(s.opMsTraced[0]))
	}
}

// solvePaper is the traced run's nodes/s probe at the paper's scale: 24-PE
// instances cut by the node budget, so the rate is over a fixed node count.
func solvePaper(r *run, paper []*appgen.Generated) {
	r.tr.workload = "solve_cold"
	var rates []float64
	for rep := 0; rep < 3; rep++ {
		var nodes int64
		var total time.Duration
		for i, g := range paper {
			id := r.tr.begin(0, "ftsearch.Solve.paper")
			t0 := time.Now()
			res, err := ftsearch.Solve(g.Rates, g.Assignment, ftsearch.Options{ICMin: 0.6, NodeBudget: r.sz.PaperBudget, Workers: 1})
			total += time.Since(t0)
			r.tr.end(id)
			r.ops(1)
			if err != nil {
				r.fail("solve_cold: paper instance %d: %v", i, err)
				continue
			}
			if err := verifyStrategy(g.Rates, g.Assignment, 0.6, res); err != nil {
				r.fail("solve_cold: paper instance %d: %v", i, err)
			}
			nodes += res.Stats.Nodes
		}
		rates = append(rates, float64(nodes)/total.Seconds())
	}
	r.setTiming("ftsearch.paper_nodes_per_s", rates)
}
