package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"laar/internal/core"
	"laar/internal/live"
)

const (
	liveQueueLen   = 4096
	liveInFlight   = 2048 // phase A closed-loop window, below the queue length so the primary path never drops
	liveMonitor    = 20 * time.Millisecond
	liveWindow     = 20 * time.Millisecond // phase A throughput is taken per window of this length
	liveOpTimeout  = 2 * time.Second       // a drain, failover or flip-back slower than this is a failed operation
	livePushSample = 64                    // traced runs time every 64th Push

	// liveTailWindow is the window live_latency_ms_p99 is taken in. The load
	// generator shares the box's two cores with the pipeline and has to spin
	// to hold 100 k tuples/s; a pipeline thread the kernel wakes on the
	// generator's core waits for it (see waitUntil), and how many of a phase's
	// tuples sit behind such a wait is a draw of thread placements, not a
	// property of the code. The tail metric is therefore the median over 1 ms
	// windows of the window's p99, which stalls touching a minority of
	// windows cannot move; the plain p99 over the whole phase is kept as
	// live.latency_ms_p99_raw.
	liveTailWindow = time.Millisecond
)

// item is the payload of one tuple: its sequence number at the source and
// the instant it was due to be sent, in ns since the scenario's epoch.
type item struct{ seq, due int64 }

// identity forwards its input. The runtime consumes the returned slice
// before the replica's next Process call, so one buffer per replica does.
type identity struct{ out [1]any }

func (o *identity) Process(t live.Tuple) []any {
	o.out[0] = t.Data
	return o.out[:]
}

// seqChecker counts sink deliveries whose sequence number does not exceed
// the previous one: a reordered or duplicated tuple.
type seqChecker struct {
	last atomic.Int64
	bad  atomic.Int64
}

func newSeqChecker() *seqChecker {
	c := &seqChecker{}
	c.last.Store(-1)
	return c
}

func (c *seqChecker) observe(seq int64) {
	if prev := c.last.Swap(seq); seq <= prev {
		c.bad.Add(1)
	}
}

// liveScenario drives the goroutine runtime with real tuples on the wall
// clock: src → PE1 → PE2 → PE3 → sink, two replicas per PE on two hosts.
type liveScenario struct {
	r        *run
	rt       *live.Runtime
	src, pe2 core.ComponentID
	epoch    time.Time

	// sink side; written by the sink callback (one goroutine at a time: the
	// primary of PE3, which this scenario never kills)
	delivered atomic.Int64
	order     *seqChecker
	recording atomic.Bool
	recN      atomic.Int64
	recDue    []int64   // phase B: due time of each delivery, ns since the epoch
	recLatMs  []float64 // phase B: due time → sink callback, per delivery
	lastAt    atomic.Int64
	maxGap    atomic.Int64

	seq int64 // next sequence number; generator side

	// results
	windowsPerS               []float64 // phase A throughput per window
	untracedPerS              []float64 // the same with tracing off, in a traced run of this workload
	pushNs                    []float64
	latP50, latP99, latRawP99 []float64 // phase B, one value per round
	lateP99                   []float64 // phase B generator lateness, per round
	latN                      int       // phase B deliveries, all rounds
	gapMs                     []float64
	recoverMs                 []float64
	startMs, stopMs           float64
	pushedAB, deliveredAB     int64
	pushedC, deliveredC, dupC int64
	stats                     *live.Stats
}

func (l *liveScenario) now() int64 { return int64(time.Since(l.epoch)) }

// waitUntil spins until the scenario clock reaches t. The load generator has
// to spin: at 100 k tuples/s the gaps are 10 µs and this kernel's timers are
// good to a millisecond. It yields both to the Go scheduler and to the
// kernel: without the second, a pipeline thread the kernel wakes on the
// spinning generator's core waits out a whole scheduler tick (4 ms).
func (l *liveScenario) waitUntil(t int64) {
	for l.now() < t {
		runtime.Gosched()
		osYield()
	}
}

// newLiveScenario builds and starts the runtime; both are set-up.
func newLiveScenario(r *run, parent int) (*liveScenario, error) {
	b := core.NewBuilder("linear")
	src := b.AddSource("src")
	pes := []core.ComponentID{b.AddPE("pe1"), b.AddPE("pe2"), b.AddPE("pe3")}
	sink := b.AddSink("sink")
	b.Connect(src, pes[0], 1, 1000).Connect(pes[0], pes[1], 1, 1000).Connect(pes[1], pes[2], 1, 1000).Connect(pes[2], sink, 1, 0)
	app, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("live_pipeline: %w", err)
	}
	d := &core.Descriptor{
		App:          app,
		Configs:      []core.InputConfig{{Name: "only", Rates: []float64{r.sz.LiveRate}, Prob: 1}},
		HostCapacity: 1e9, BillingPeriod: 300,
	}
	asg := core.NewAssignment(len(pes), core.DefaultReplication, 2)
	for pe := range asg.Host {
		asg.Host[pe][0], asg.Host[pe][1] = 0, 1
	}
	l := &liveScenario{r: r, src: src, pe2: pes[1], epoch: time.Now(), order: newSeqChecker()}
	id := r.tr.begin(parent, "live.New")
	l.rt, err = live.New(d, asg, core.AllActive(1, len(pes), core.DefaultReplication),
		func(core.ComponentID, int) live.Operator { return &identity{} },
		live.Config{QueueLen: liveQueueLen, MonitorInterval: liveMonitor})
	r.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("live_pipeline: %w", err)
	}
	l.rt.OnSink(l.onSink)
	id = r.tr.begin(parent, "live.Start")
	t0 := time.Now()
	err = l.rt.Start()
	l.startMs = float64(time.Since(t0)) / 1e6
	r.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("live_pipeline: %w", err)
	}
	return l, nil
}

func (l *liveScenario) onSink(_ core.ComponentID, t live.Tuple) {
	it := t.Data.(*item)
	now := l.now()
	l.order.observe(it.seq)
	if l.recording.Load() {
		if i := l.recN.Add(1) - 1; int(i) < len(l.recLatMs) {
			l.recDue[i] = it.due
			l.recLatMs[i] = openLoopLatencyMs(it.due, now)
		}
	}
	if gap := now - l.lastAt.Swap(now); gap > l.maxGap.Load() {
		l.maxGap.Store(gap)
	}
	l.delivered.Add(1)
}

// close stops the runtime; it is safe to call on a scenario whose set-up
// is being thrown away.
func (l *liveScenario) close() {
	if l.rt == nil {
		return
	}
	id := l.r.tr.begin(0, "live.Stop")
	t0 := time.Now()
	st, err := l.rt.Stop()
	l.stopMs = float64(time.Since(t0)) / 1e6
	l.r.tr.end(id)
	if err != nil {
		l.r.fail("live_pipeline: Stop: %v", err)
	}
	l.stats, l.rt = st, nil
}

// drain waits until the sink has seen want deliveries.
func (l *liveScenario) drain(want int64) {
	deadline := time.Now().Add(liveOpTimeout)
	for l.delivered.Load() < want && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
}

// push sends one tuple and reports a Push error as a failed operation.
func (l *liveScenario) push(it *item) {
	it.seq = l.seq
	l.seq++
	if err := l.rt.Push(l.src, it); err != nil {
		l.r.fail("live_pipeline: Push: %v", err)
	}
}

// phaseA is the closed loop: this goroutine pushes as fast as the sink
// delivers, with at most liveInFlight tuples in the pipeline. It returns the
// throughput of each window. sample times every livePushSample-th Push,
// which is this scenario's tracing.
func (l *liveScenario) phaseA(budget time.Duration, sample bool) (windowsPerS []float64) {
	ring := make([]item, 2*liveInFlight)
	base := l.delivered.Load()
	start := l.now()
	end := start + int64(budget)
	winStart, winBase := start, base
	var pushed int64
	for {
		if pushed%256 == 0 {
			t := l.now()
			// A phase shorter than one window (a smoke run) is one window.
			if t-winStart >= int64(liveWindow) || (t >= end && len(windowsPerS) == 0) {
				d := l.delivered.Load()
				windowsPerS = append(windowsPerS, float64(d-winBase)/(float64(t-winStart)/1e9))
				winStart, winBase = t, d
			}
			if t >= end {
				break
			}
		}
		for pushed-(l.delivered.Load()-base) >= liveInFlight {
			runtime.Gosched()
		}
		it := &ring[pushed%int64(len(ring))]
		if sample && pushed%livePushSample == 0 {
			t0 := time.Now()
			l.push(it)
			l.pushNs = append(l.pushNs, float64(time.Since(t0)))
		} else {
			l.push(it)
		}
		pushed++
	}
	l.drain(base + pushed)
	l.account(pushed, l.delivered.Load()-base)
	return windowsPerS
}

// account books a phase's tuples: one attempted operation per push, one
// failure per tuple that never reached the sink.
func (l *liveScenario) account(pushed, delivered int64) {
	l.pushedAB += pushed
	l.deliveredAB += delivered
	l.r.ops(pushed)
	if lost := pushed - delivered; lost > 0 {
		l.r.failN(lost, "live_pipeline: %d of %d tuples never reached the sink", lost, pushed)
	}
}

// openLoop pushes n tuples, tuple i due at start + i·interval whatever the
// pipeline does, and returns how late each was sent. It stops early when
// stop is closed.
func (l *liveScenario) openLoop(rate float64, n int64, stop <-chan struct{}) (lateMs []float64, pushed int64) {
	slab := make([]item, n)
	lateMs = make([]float64, 0, n)
	interval := 1e9 / rate
	start := l.now()
	for i := int64(0); i < n; i++ {
		due := start + int64(float64(i)*interval)
		l.waitUntil(due)
		select {
		case <-stop:
			return lateMs, i
		default:
		}
		slab[i].due = due
		lateMs = append(lateMs, latenessMs(due, l.now()))
		l.push(&slab[i])
	}
	return lateMs, n
}

// phaseB is the open loop at a fixed rate; latency runs from the due time
// to the sink callback.
func (l *liveScenario) phaseB(budget time.Duration) {
	n := int64(l.r.sz.LiveRate * budget.Seconds())
	l.recDue, l.recLatMs = make([]int64, n), make([]float64, n)
	l.recN.Store(0)
	base := l.delivered.Load()
	l.recording.Store(true)
	late, pushed := l.openLoop(l.r.sz.LiveRate, n, nil)
	l.drain(base + pushed)
	l.recording.Store(false)
	got := l.recN.Load()
	if got > n {
		got = n
	}
	lat := l.recLatMs[:got]
	l.latP50 = append(l.latP50, percentile(lat, 50))
	l.latP99 = append(l.latP99, median(windowed(l.recDue[:got], lat, int64(liveTailWindow), 99)))
	l.latRawP99 = append(l.latRawP99, percentile(lat, 99))
	l.lateP99 = append(l.lateP99, percentile(late, 99))
	l.latN += len(lat)
	l.recDue, l.recLatMs = nil, nil
	l.account(pushed, l.delivered.Load()-base)
}

// waitPrimary polls until PE2's primary satisfies ok.
func (l *liveScenario) waitPrimary(ok func(int) bool) bool {
	deadline := time.Now().Add(liveOpTimeout)
	for !ok(l.rt.Primary(l.pe2)) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// phaseC kills PE2's primary over and over under a steady open-loop input
// and measures the silence at the sink. The controller notices a dead
// replica on its next monitor tick, so the gap is the rest of the monitor
// period the kill lands in plus the failover itself. Every kill is placed
// half a period after a tick — the expected position of a kill at a random
// instant — so that the median over a few kills is not a draw of phases.
func (l *liveScenario) phaseC(budget time.Duration) {
	stop := make(chan struct{})
	done := make(chan struct{})
	base := l.delivered.Load()
	var pushed int64
	n := int64(l.r.sz.LiveKillRate * (budget.Seconds() + 4*liveOpTimeout.Seconds()))
	go func() {
		defer close(done)
		_, pushed = l.openLoop(l.r.sz.LiveKillRate, n, stop)
	}()
	// One unmeasured cycle aligns the loop with the controller's ticks: the
	// primary flips back to replica 0 on a tick.
	end := time.Now().Add(budget)
	for k := 0; k < l.r.sz.MinPasses+1 || time.Now().Before(end); k++ {
		if !l.killCycle(k) {
			break
		}
	}
	close(stop)
	<-done
	time.Sleep(liveMonitor) // lets the tuples still in the pipeline reach the sink; those in flight at a kill are lost
	l.pushedC += pushed
	l.deliveredC += l.delivered.Load() - base
	l.dupC += l.order.bad.Swap(0) // a flip-back duplicate is the runtime's behaviour: reported, not a failure
}

// killCycle is one kill → failover → recover → flip-back round. Cycle 0 is
// the unmeasured alignment cycle.
func (l *liveScenario) killCycle(k int) bool {
	// The previous cycle ended on a tick: the primary flipped back on one.
	l.waitUntil(l.now() + int64(liveMonitor/2))
	prim := l.rt.Primary(l.pe2)
	l.r.ops(1)
	l.maxGap.Store(0)
	id := l.r.tr.begin(0, "live.KillReplica")
	err := l.rt.KillReplica(l.pe2, prim)
	l.r.tr.end(id)
	if err != nil {
		l.r.fail("live_pipeline: KillReplica: %v", err)
		return false
	}
	if !l.waitPrimary(func(p int) bool { return p >= 0 && p != prim }) {
		l.r.fail("live_pipeline: no failover within %v of killing PE2's primary", liveOpTimeout)
		return false
	}
	// Output resumes with the new primary: the delivery that ends the gap
	// records it.
	l.drain(l.delivered.Load() + 1)
	if k > 0 {
		l.gapMs = append(l.gapMs, float64(l.maxGap.Load())/1e6)
	}
	id = l.r.tr.begin(0, "live.RecoverReplica")
	t0 := time.Now()
	err = l.rt.RecoverReplica(l.pe2, prim)
	if err == nil {
		for !l.rt.FullyReplicated() {
			runtime.Gosched()
		}
	}
	l.recoverMs = append(l.recoverMs, float64(time.Since(t0))/1e6)
	l.r.tr.end(id)
	if err != nil {
		l.r.fail("live_pipeline: RecoverReplica: %v", err)
		return false
	}
	if !l.waitPrimary(func(p int) bool { return p == prim }) {
		l.r.fail("live_pipeline: primary did not return to the recovered replica within %v", liveOpTimeout)
		return false
	}
	return true
}

// liveRounds is how many times the three phases run back to back. A burst
// of contention on the shared host doubles the microsecond-scale latencies
// of phase B for as long as it lasts; with the phases in rounds and the
// latencies as medians over the rounds, a burst shorter than a round is
// voted out.
const liveRounds = 3

// measure runs the three phases in rounds within budget, after an unmeasured
// closed-loop warm-up that is not part of it. The warm-up is long for a
// reason measured on this box: after the single-threaded scenarios the VM's
// second vCPU has been idle, and two busy threads get the speed of one for
// about a second before they get the speed of two. A shorter warm-up has the
// pipeline run its first phases at 385 k instead of 680 k tuples/s.
func (l *liveScenario) measure(budget time.Duration) {
	l.r.tr.workload = "live_pipeline"
	l.phaseA(l.r.sz.LiveWarmup, false)
	slice := budget / liveRounds
	for round := 0; round < liveRounds; round++ {
		l.r.tr.pass = round
		if l.r.tr.on && l.r.owner == "live_pipeline" {
			// Half of phase A without the Push timing, for bench.trace_overhead_frac.
			l.untracedPerS = append(l.untracedPerS, l.phaseA(slice*2/10, false)...)
			l.windowsPerS = append(l.windowsPerS, l.phaseA(slice*2/10, true)...)
		} else {
			l.windowsPerS = append(l.windowsPerS, l.phaseA(slice*4/10, l.r.tr.on)...)
		}
		l.phaseB(slice * 35 / 100)
		if bad := l.order.bad.Swap(0); bad > 0 {
			l.r.failN(bad, "live_pipeline: %d sink deliveries out of sequence in phases A and B", bad)
		}
		l.phaseC(slice * 25 / 100)
	}
	if l.deliveredAB < int64(0.999*float64(l.pushedAB)) {
		l.r.fail("live_pipeline: delivered fraction %.5f below 0.999", float64(l.deliveredAB)/float64(l.pushedAB))
	}
	l.close()
}

func (l *liveScenario) report() {
	r := l.r
	r.setTiming("live_tuples_per_s", append(append([]float64(nil), l.windowsPerS...), l.untracedPerS...))
	r.set("live_latency_ms_p50", median(l.latP50), l.latN)
	r.set("live_latency_ms_p99", median(l.latP99), l.latN)
	r.setTiming("live_failover_gap_ms", l.gapMs)
	if !r.tr.on || l.stats == nil {
		return
	}
	r.set("live.start_ms", l.startMs, 1)
	r.set("live.stop_ms", l.stopMs, 1)
	r.setTiming("live.push_ns", l.pushNs)
	var processed, replicas float64
	for _, pe := range l.stats.Processed {
		for _, n := range pe {
			processed += float64(n)
			replicas++
		}
	}
	r.set("live.processed_per_replica", processed/replicas, int(replicas))
	r.set("live.dropped", float64(l.stats.Dropped), 1)
	r.set("live.net_dropped", float64(l.stats.NetDropped), 1)
	r.set("live.delivered_frac", float64(l.deliveredAB)/float64(l.pushedAB), int(l.pushedAB))
	r.set("live.latency_ms_p99_raw", median(l.latRawP99), l.latN)
	r.set("live.gen_lateness_ms_p99", median(l.lateP99), l.latN)
	r.set("live.failover_lost_tuples", float64(l.pushedC-l.deliveredC)/float64(len(l.recoverMs)), len(l.recoverMs))
	r.set("live.failover_dup_tuples", float64(l.dupC), len(l.recoverMs))
	r.setTiming("live.recover_sync_ms", l.recoverMs)
	r.set("live.config_switches", float64(l.stats.ConfigSwitches), 1)
	if len(l.untracedPerS) > 0 && len(l.windowsPerS) > 0 {
		// Throughput: the traced run is worse when it is lower.
		r.set("bench.trace_overhead_frac", median(l.untracedPerS)/median(l.windowsPerS)-1, len(l.windowsPerS))
	}
}
