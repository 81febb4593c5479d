package main

import (
	"fmt"
	"math/rand"
	"time"

	"laar/internal/appgen"
	"laar/internal/core"
	"laar/internal/experiments"
	"laar/internal/ftsearch"
	"laar/internal/strategy"
	"laar/internal/trace"
)

// sizes fixes how much work one pass of each scenario is. The work is the
// same in every workload; a workload only decides how many passes each
// scenario gets. README.md records why each number was chosen.
type sizes struct {
	// solve_cold: SolveApps seeded applications of SolvePEs PEs on 5 hosts,
	// each solved under every target of solveICs within SolveBudget nodes.
	SolveApps   int
	SolvePEs    int
	SolveBudget int64
	// resolve_warm: a fixed pool of ResolveApps applications of ResolvePEs
	// PEs, one retained solver per application and target of the first two
	// solveICs, every Resolve bounded by ResolveBudget nodes.
	ResolveApps   int
	ResolvePEs    int
	ResolveBudget int64
	// the nodes/s probe: PaperApps applications of the paper's 24 PEs.
	PaperApps   int
	PaperBudget int64
	// sim_matrix: MatrixApps applications of MatrixPEs PEs, the first
	// CrashApps of them also run the host-crash scenario.
	MatrixApps   int
	MatrixPEs    int
	MatrixBudget int64
	CrashApps    int
	TraceSeconds float64
	// live_pipeline
	LiveRate     float64       // phase B open-loop rate, tuples/s
	LiveKillRate float64       // phase C open-loop rate, tuples/s
	LiveWarmup   time.Duration // unmeasured closed loop before phase A
	// run shape
	Setups    int // set-ups timed per run; setup_s is their median
	MinPasses int // kill cycles and (× 10) flips the runtimes make at least
	ProbeDiv  int // the inner-layer probes loop 1/ProbeDiv of their full counts
}

var fullSizes = sizes{
	SolveApps: 32, SolvePEs: 12, SolveBudget: 100_000,
	ResolveApps: 32, ResolvePEs: 10, ResolveBudget: 100_000,
	PaperApps: 2, PaperBudget: 2_000_000,
	MatrixApps: 12, MatrixPEs: 24, MatrixBudget: 300_000, CrashApps: 5, TraceSeconds: 200,
	LiveRate: 100_000, LiveKillRate: 20_000, LiveWarmup: 1200 * time.Millisecond,
	Setups: 3, MinPasses: 3, ProbeDiv: 1,
}

// smokeSizes keeps every code path and shrinks every count, for the tests.
var smokeSizes = sizes{
	SolveApps: 3, SolvePEs: 8, SolveBudget: 20_000,
	ResolveApps: 3, ResolvePEs: 8, ResolveBudget: 20_000,
	PaperApps: 1, PaperBudget: 50_000,
	MatrixApps: 2, MatrixPEs: 12, MatrixBudget: 100_000, CrashApps: 1, TraceSeconds: 90,
	LiveRate: 20_000, LiveKillRate: 10_000, LiveWarmup: 20 * time.Millisecond,
	Setups: 1, MinPasses: 2, ProbeDiv: 50,
}

// resolvePoolSeed is the first appgen seed of resolve_warm's application
// pool. The pool does not depend on --seed: FT-Search difficulty is heavy-
// tailed, and with seeded applications the median resolve latency measures
// the draw (spread 0.10 across seeds at 32 applications) instead of the
// code. The run's seed draws what a re-provisioning system is actually
// given: the rate shifts.
const resolvePoolSeed = 20140324

// solveICs are the SLA targets solve_cold solves every application under;
// resolve_warm keeps a solver for the first two.
var solveICs = []float64{0.5, 0.6, 0.7}

// inputs is everything the scenarios are given, built from the seed alone.
type inputs struct {
	apps   []*appgen.Generated   // solve_cold
	pool   []*appgen.Generated   // resolve_warm
	paper  []*appgen.Generated   // paper-scale nodes/s probe
	corpus []*experiments.AppRun // sim_matrix
}

// scenarioRNG gives each scenario its own stream, so adding a draw to one
// leaves the inputs of the others as they were.
func scenarioRNG(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// genApps draws n applications; a draw appgen rejects is skipped.
func genApps(rng *rand.Rand, n, pes int, tr *tracer, parent int) ([]*appgen.Generated, error) {
	var out []*appgen.Generated
	for attempts := 0; len(out) < n; attempts++ {
		if attempts > 6*n+20 {
			return nil, fmt.Errorf("appgen: only %d of %d applications of %d PEs after %d draws", len(out), n, pes, attempts)
		}
		id := tr.begin(parent, "appgen.Generate")
		gen, err := appgen.Generate(appgen.Params{NumPEs: pes, NumHosts: 5, Seed: rng.Int63()})
		tr.end(id)
		if err == nil {
			out = append(out, gen)
		}
	}
	return out, nil
}

// buildCorpus assembles the sim_matrix corpus the way
// experiments.BuildCorpus does, except that FT-Search is bounded by a node
// budget: a wall-clock deadline always expires at 24 PEs and would make the
// simulated strategies differ from run to run.
func buildCorpus(rng *rand.Rand, sz sizes, tr *tracer, parent int) ([]*experiments.AppRun, error) {
	var corpus []*experiments.AppRun
	for attempts := 0; len(corpus) < sz.MatrixApps; attempts++ {
		if attempts > 6*sz.MatrixApps+20 {
			return nil, fmt.Errorf("corpus: only %d of %d applications admit all six variants", len(corpus), sz.MatrixApps)
		}
		gens, err := genApps(rng, 1, sz.MatrixPEs, tr, parent)
		if err != nil {
			return nil, err
		}
		if run := buildAppRun(gens[0], sz, tr, parent); run != nil {
			corpus = append(corpus, run)
		}
	}
	return corpus, nil
}

// buildAppRun computes the six variant strategies of one application, or
// nil when one of them does not exist (the paper, too, keeps only
// applications that deploy under every variant).
func buildAppRun(gen *appgen.Generated, sz sizes, tr *tracer, parent int) *experiments.AppRun {
	run := &experiments.AppRun{Gen: gen, Strategies: make(map[experiments.Variant]*core.Strategy)}
	// The hardest target first: an application that fails one is dropped
	// after one solve, not three.
	for _, v := range []experiments.Variant{experiments.L7, experiments.L6, experiments.L5} {
		id := tr.begin(parent, "ftsearch.Solve")
		res, err := ftsearch.Solve(gen.Rates, gen.Assignment, ftsearch.Options{
			ICMin: v.ICTarget(), NodeBudget: sz.MatrixBudget, Workers: 1,
		})
		tr.end(id)
		if err != nil || res.Strategy == nil {
			return nil
		}
		run.Strategies[v] = res.Strategy
	}
	id := tr.begin(parent, "strategy.Static")
	run.Strategies[experiments.SR] = strategy.Static(gen.Desc, core.DefaultReplication)
	tr.end(id)
	id = tr.begin(parent, "strategy.NonReplicated")
	run.Strategies[experiments.NR] = strategy.NonReplicated(run.Strategies[experiments.L5], gen.HighCfg)
	tr.end(id)
	id = tr.begin(parent, "strategy.Greedy")
	grd, err := strategy.Greedy(gen.Rates, gen.Assignment)
	tr.end(id)
	if err != nil {
		return nil
	}
	run.Strategies[experiments.GRD] = grd
	id = tr.begin(parent, "trace.Alternating")
	tc, err := trace.Alternating(sz.TraceSeconds, 90, 1.0/3.0, gen.LowCfg, gen.HighCfg)
	tr.end(id)
	if err != nil {
		return nil
	}
	run.Trace = tc
	return run
}

// buildInputs generates every scenario's inputs from the seed.
func buildInputs(seed int64, sz sizes, tr *tracer, parent int) (*inputs, error) {
	in := &inputs{}
	var err error
	if in.apps, err = genApps(scenarioRNG(seed, 1), sz.SolveApps, sz.SolvePEs, tr, parent); err != nil {
		return nil, err
	}
	if in.pool, err = genApps(rand.New(rand.NewSource(resolvePoolSeed)), sz.ResolveApps, sz.ResolvePEs, tr, parent); err != nil {
		return nil, err
	}
	if in.paper, err = genApps(scenarioRNG(seed, 2), sz.PaperApps, 24, tr, parent); err != nil {
		return nil, err
	}
	if in.corpus, err = buildCorpus(scenarioRNG(seed, 3), sz, tr, parent); err != nil {
		return nil, err
	}
	return in, nil
}
