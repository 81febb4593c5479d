package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"laar/internal/cluster"
	"laar/internal/experiments"
	"laar/internal/ftsearch"
)

// smokeSeconds keeps a smoke run's measured part short; the scenarios'
// minimum pass counts decide how long it really takes.
const smokeSeconds = 0.4

// TestSmokeEveryWorkload runs each workload once in smoke size, traced, so
// that every end-to-end and every per-layer metric must turn up: present,
// finite, with its unit. It asserts no timing value.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		r := execute(w, 1, smokeSeconds, true, smokeSizes)
		for _, f := range r.failures {
			t.Errorf("%s: %s", w, f)
		}
		if r.failed != 0 || r.attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d", w, r.attempted, r.failed)
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			if miss := r.missing(defs); len(miss) > 0 {
				t.Errorf("%s: metrics missing or not finite: %v", w, miss)
			}
			line := r.resultLine(defs)
			for _, d := range defs {
				if got := line.Metrics[d.Name].Unit; got != d.Unit {
					t.Errorf("%s: %s carries unit %q, want %q", w, d.Name, got, d.Unit)
				}
			}
		}
		for _, d := range endToEnd {
			if r.metrics[d.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, d.Name, r.metrics[d.Name])
			}
		}
		if len(r.tr.spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", w)
		}
	}
}

// TestResultLineShape checks the untraced run's last line: exactly the four
// keys, every end-to-end metric and nothing else.
func TestResultLineShape(t *testing.T) {
	r := execute("sim_matrix", 2, smokeSeconds, false, smokeSizes)
	for _, f := range r.failures {
		t.Error(f)
	}
	if len(r.tr.spans) != 0 {
		t.Errorf("untraced run recorded %d spans", len(r.tr.spans))
	}
	b, err := json.Marshal(r.resultLine(endToEnd))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("result line keys: %s", b)
	}
	var metrics map[string]metricOut
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("result line has %d metrics, want the %d end-to-end ones", len(metrics), len(endToEnd))
	}
}

// counts is what must repeat exactly for a fixed seed.
type counts struct {
	Solve     []solveOutcome
	Resolve   []solveOutcome
	Cells     int
	SinkTotal float64
}

func countsFor(t *testing.T, seed int64) counts {
	t.Helper()
	r := newRun("solve_cold", smokeSizes, false)
	in, err := buildInputs(seed, r.sz, r.tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	solve := newSolveScenario(r, in)
	solve.measure(0)
	resolve, err := newResolveScenario(r, in, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	resolve.measure(0)
	matrix := newMatrixScenario(r, in)
	matrix.measure(0)
	for _, f := range r.failures {
		t.Errorf("seed %d: %s", seed, f)
	}
	c := counts{Solve: solve.ref, Resolve: resolve.ref, Cells: matrix.cells}
	for _, byV := range matrix.ref.Best {
		for _, v := range experiments.Variants {
			c.SinkTotal += byV[v].SinkTotal
		}
	}
	return c
}

// TestCountsRepeatForASeed: outcomes, costs, node and prune counts, cell
// count and simulated sink totals are functions of the seed alone.
func TestCountsRepeatForASeed(t *testing.T) {
	a, b := countsFor(t, 7), countsFor(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two runs with seed 7 differ:\n%+v\n%+v", a, b)
	}
	c := countsFor(t, 8)
	if reflect.DeepEqual(a.Solve, c.Solve) || a.SinkTotal == c.SinkTotal {
		t.Errorf("seeds 7 and 8 gave the same corpus")
	}
}

// ---- each correctness check bites when fed one corrupted expectation ----

func TestVerifyStrategyCatchesWrongCost(t *testing.T) {
	in, err := buildInputs(3, smokeSizes, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := in.apps[0]
	res, err := ftsearch.Solve(g.Rates, g.Assignment, ftsearch.Options{ICMin: 0.5, NodeBudget: smokeSizes.SolveBudget, Workers: 1})
	if err != nil || res.Strategy == nil {
		t.Fatalf("no strategy to corrupt: %v, %v", res, err)
	}
	if err := verifyStrategy(g.Rates, g.Assignment, 0.5, res); err != nil {
		t.Fatalf("honest result rejected: %v", err)
	}
	res.Cost *= 1.001
	if err := verifyStrategy(g.Rates, g.Assignment, 0.5, res); err == nil || !strings.Contains(err.Error(), "cost") {
		t.Errorf("wrong cost accepted: %v", err)
	}
	res.Cost /= 1.001
	if err := verifyStrategy(g.Rates, g.Assignment, 0.99, res); err == nil || !strings.Contains(err.Error(), "IC") {
		t.Errorf("IC below target accepted: %v", err)
	}
}

func TestSamePassCatchesDrift(t *testing.T) {
	ref := []solveOutcome{{Outcome: ftsearch.Optimal, Cost: 10, Nodes: 100}, {Outcome: ftsearch.Infeasible, Nodes: 7}}
	if err := samePass(ref, append([]solveOutcome(nil), ref...)); err != nil {
		t.Fatalf("equal passes rejected: %v", err)
	}
	got := append([]solveOutcome(nil), ref...)
	got[1].Nodes++
	if err := samePass(ref, got); err == nil {
		t.Errorf("a node count that moved between passes was accepted")
	}
	if err := samePass(ref, ref[:1]); err == nil {
		t.Errorf("a short pass was accepted")
	}
}

func TestSeqCheckerCatchesReorderAndDuplicate(t *testing.T) {
	c := newSeqChecker()
	for _, seq := range []int64{0, 1, 2, 5, 9} { // gaps are fine: tuples may be lost at a kill
		c.observe(seq)
	}
	if c.bad.Load() != 0 {
		t.Fatalf("increasing sequence flagged %d times", c.bad.Load())
	}
	c.observe(7) // reordered
	c.observe(7) // duplicated
	if c.bad.Load() != 2 {
		t.Errorf("reordered + duplicated deliveries flagged %d times, want 2", c.bad.Load())
	}
}

func TestMatrixCheckCatchesBrokenClaims(t *testing.T) {
	r := newRun("sim_matrix", smokeSizes, false)
	in, err := buildInputs(4, r.sz, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := newMatrixScenario(r, in)
	rr, _, err := m.pass(1)
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkMatrix(rr); len(bad) != 0 {
		t.Fatalf("honest matrix rejected: %v", bad)
	}
	rr.Best[0][experiments.L5].DroppedTotal = 3
	if bad := checkMatrix(rr); len(bad) == 0 {
		t.Errorf("L.5 dropping tuples in the best case was accepted")
	}
	rr.Best[0][experiments.L5].DroppedTotal = 0
	rr.Worst[0][experiments.L7].ProcessedTotal = 0
	if bad := checkMatrix(rr); len(bad) == 0 {
		t.Errorf("a worst-case IC of 0 for L.7 was accepted")
	}
	// A pass that differs from the reference pass fails the run.
	var deep bool
	m.check(rr, nil, &deep) // becomes the reference (and reports the corrupted claim)
	before := r.failed
	other, _, err := m.pass(1)
	if err != nil {
		t.Fatal(err)
	}
	m.check(other, nil, &deep)
	if r.failed != before+1 {
		t.Errorf("a pass differing from the reference pass did not fail the run")
	}
}

func TestInvariantViolationFailsTheRun(t *testing.T) {
	// A forged history: both controllers claim the lease at the final poll.
	lead := func(id int) *cluster.CtrlStats {
		return &cluster.CtrlStats{ID: id, Leading: true, Epoch: 256 + uint64(id)}
	}
	poll := cluster.Poll{
		Ctrls:   []*cluster.CtrlStats{lead(0), lead(1)},
		Hosts:   []*cluster.HostStats{{Host: 0}, {Host: 1}, {Host: 2}},
		Gateway: &cluster.GatewayStats{Sent: 1},
	}
	r := newRun("cluster_ctrl", smokeSizes, false)
	checkInvariants(r, &cluster.RunReport{Top: clusterTop, Polls: []cluster.Poll{poll, poll}})
	if r.failed == 0 {
		t.Fatalf("two leaders at the final poll were accepted")
	}
	if line := r.resultLine(endToEnd); line.Correct {
		t.Errorf("a run with an invariant violation reads correct")
	}
	found := false
	for _, f := range r.failures {
		found = found || strings.Contains(f, "leader-unique-lowest")
	}
	if !found {
		t.Errorf("violation not reported by name: %v", r.failures)
	}
}

// TestBenchmarkJSONInStep holds the checked-in BENCHMARK.json to the catalog
// in metrics.go (it is what -spec prints), and the catalog to the limits of
// the contract it could break.
func TestBenchmarkJSONInStep(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is out of step with the catalog; regenerate it with `go run . -spec`")
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("too many metrics for the contract: %d end-to-end, %d per-layer", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v outside the contract's limits", d)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the contract wants setup_s in s, lower is better; have %+v", endToEnd[0])
	}
	for _, w := range workloads {
		if why := workloadWhy[w]; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s needs a one-line why of at most 200 characters, has %q", w, why)
		}
	}
}
