package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"laar/internal/cluster"
	"laar/internal/controlplane"
	"laar/internal/core"
	"laar/internal/experiments"
	"laar/internal/netx"
	"laar/internal/sim"
)

// The probes measure the inner layers the benchmark cannot see from the
// outside of a workload — core, sim, the controlplane machines, the netx
// codec and connections, the cluster wire format — by replaying the
// workloads' own inputs through the layers' public functions. They run in
// the traced run only and feed per-layer metrics only.

var probeSink float64 // keeps the compiler from discarding a probed call

// perOpNs times iters calls of fn (a ProbeDiv-th of them in a smoke run),
// reps times, and returns ns per call.
func (r *run) perOpNs(reps, iters int, fn func(i int)) []float64 {
	if iters = iters / r.sz.ProbeDiv; iters < 1 {
		iters = 1
	}
	out := make([]float64, reps)
	for rep := range out {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		out[rep] = float64(time.Since(t0)) / float64(iters)
	}
	return out
}

// probeCore evaluates the corpus strategies with core's reference
// functions: what FT-Search's results are verified with and what set-up
// calls while it assembles the variants.
func probeCore(r *run, corpus []*experiments.AppRun) {
	type pair struct {
		app   *experiments.AppRun
		strat *core.Strategy
	}
	var pairs []pair
	for _, app := range corpus {
		for _, v := range experiments.Variants {
			pairs = append(pairs, pair{app, app.Strategies[v]})
		}
	}
	n := len(pairs)
	r.setTiming("core.new_rates_ns", r.perOpNs(5, 4*n, func(i int) {
		probeSink += core.NewRates(pairs[i%n].app.Gen.Desc).Rate(0, 0)
	}))
	r.setTiming("core.ic_eval_ns", r.perOpNs(5, 20*n, func(i int) {
		p := pairs[i%n]
		probeSink += core.IC(p.app.Gen.Rates, p.strat, core.Pessimistic{})
	}))
	r.setTiming("core.cost_ns", r.perOpNs(5, 20*n, func(i int) {
		p := pairs[i%n]
		probeSink += core.Cost(p.app.Gen.Rates, p.strat)
	}))
	r.setTiming("core.host_loads_ns", r.perOpNs(5, 20*n, func(i int) {
		p := pairs[i%n]
		probeSink += core.HostLoads(p.app.Gen.Rates, p.strat, p.app.Gen.Assignment, p.app.Gen.HighCfg)[0]
	}))
	tc := corpus[0].Trace
	r.setTiming("trace.config_at_ns", r.perOpNs(5, 100_000, func(i int) {
		probeSink += float64(tc.ConfigAt(float64(i%1000) * tc.Duration() / 1000))
	}))
}

// probeSim times the event queue the engine runs on: one At plus one Step
// with n events pending, and one occurrence of a Recurring.
func probeSim(r *run) {
	offsets := make([]float64, 4096)
	rng := scenarioRNG(1, 5)
	for i := range offsets {
		offsets[i] = 1 + rng.Float64()*100
	}
	noop := func() {}
	pushPop := func(pending int) []float64 {
		var e sim.Engine
		for i := 0; i < pending; i++ {
			e.At(offsets[i%len(offsets)]+float64(i%97), noop)
		}
		return r.perOpNs(5, 100_000, func(i int) {
			e.At(e.Now()+offsets[i%len(offsets)], noop)
			e.Step()
		})
	}
	r.setTiming("sim.push_pop_ns_1e3", pushPop(1_000))
	r.setTiming("sim.push_pop_ns_1e5", pushPop(100_000))
	const fires = 100_000
	r.setTiming("sim.recur_ns", r.perOpNs(5, 1, func(int) {
		var e sim.Engine
		e.Recur(1, 0, noop).Times(fires).Start()
		e.RunAll()
	}))
	r.metrics["sim.recur_ns"] /= fires
}

// probeControlplane steps the pure machines the engine, the live runtime
// and the cluster controller all drive.
func probeControlplane(r *run, corpus []*experiments.AppRun) {
	app := corpus[0]
	cfgRates := make([][]float64, len(app.Gen.Desc.Configs))
	for c := range cfgRates {
		cfgRates[c] = app.Gen.Desc.Configs[c].Rates
	}
	mon := controlplane.NewRateMonitor(cfgRates, app.Gen.Rates.MaxConfig())
	r.setTiming("controlplane.ratemonitor_scan_ns", r.perOpNs(5, 100_000, func(i int) {
		mon.Accumulate(0, float64(1+i%40))
		probeSink += float64(mon.Scan(1))
	}))

	const pes, k = 3, 2
	seqr := controlplane.NewCommandSequencer(pes, k, controlplane.RetryPolicy{Min: 2, Max: 16})
	seqr.BeginEpoch(controlplane.PackBallot(1, 0))
	proxies := make([]controlplane.ProxyState, pes*k)
	r.setTiming("controlplane.sequencer_step_ack_ns", r.perOpNs(5, 100_000, func(i int) {
		slot := i % (pes * k)
		want := (i/(pes*k))%2 == 0
		cmd, send, _ := seqr.Step(slot/k, slot%k, want, int64(i))
		if send && proxies[slot].Admit(cmd.Epoch, cmd.Seq) == controlplane.CmdApplied {
			seqr.AckedMatch(slot/k, slot%k, cmd.Epoch, cmd.Seq)
		}
	}))

	elect := controlplane.NewLeaseElector(1, 3, 80, 0)
	r.setTiming("controlplane.lease_evaluate_ns", r.perOpNs(5, 100_000, func(i int) {
		elect.HearPeer(0, int64(i))
		probeSink += float64(elect.Evaluate(int64(i)))
	}))

	l5 := app.Strategies[experiments.L5]
	low, high := l5.Active[app.Gen.LowCfg], l5.Active[app.Gen.HighCfg]
	var planner controlplane.ReconfigPlanner
	r.setTiming("controlplane.reconfig_plan_ns", r.perOpNs(5, 100_000, func(i int) {
		if i%2 == 0 {
			probeSink += float64(len(planner.Plan(low, high)))
		} else {
			probeSink += float64(len(planner.Plan(high, low)))
		}
	}))
	msq := controlplane.NewMigrationSequencer(len(low), l5.K)
	r.setTiming("controlplane.migration_cycle_ns", r.perOpNs(5, 20_000, func(i int) {
		old, new := low, high
		if i%2 == 1 {
			old, new = high, low
		}
		msq.Begin(old, new)
		for msq.InFlight() {
			for pe := range new {
				for kk := range new[pe] {
					msq.Applied(pe, kk, msq.Want(pe, kk))
				}
			}
		}
	}))
}

// echoServer answers every frame with the same frame and counts them.
func echoServer(count *atomic.Int64) (*netx.Server, error) {
	return netx.Serve("127.0.0.1:0", netx.ServerOptions{
		Handler: func(p *netx.Peer, typ byte, payload []byte) {
			count.Add(1)
			if typ == 2 {
				p.Send(typ, payload) // a failed echo shows as a ping-pong timeout
			}
		},
	})
}

// waitFor polls cond for up to two seconds.
func waitFor(cond func() bool) bool {
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// pingPong measures n Conn.Send ↔ Peer.Send round trips, in µs.
func pingPong(c *netx.Conn, pong <-chan struct{}, n int) ([]float64, error) {
	payload := make([]byte, 64)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := c.Send(2, payload); err != nil {
			return out, err
		}
		select {
		case <-pong:
		case <-time.After(2 * time.Second):
			return out, fmt.Errorf("no pong within 2 s")
		}
		out = append(out, float64(time.Since(t0))/1e3)
	}
	return out, nil
}

// probeNetx times the frame codec in memory and a managed connection over
// loopback, directly and through the fault proxy.
func probeNetx(r *run) {
	payload := make([]byte, 64)
	buf := make([]byte, 0, 128)
	r.setTiming("netx.append_frame_ns", r.perOpNs(5, 200_000, func(int) {
		buf = netx.AppendFrame(buf[:0], 1, payload)
	}))
	const frames = 1000
	var stream []byte
	for i := 0; i < frames; i++ {
		stream = netx.AppendFrame(stream, 1, payload)
	}
	r.setTiming("netx.frame_read_ns", r.perOpNs(5, 20, func(int) {
		fr := netx.NewFrameReader(bytes.NewReader(stream), 0)
		for i := 0; i < frames; i++ {
			if _, _, err := fr.Next(); err != nil {
				r.fail("netx probe: FrameReader.Next: %v", err)
				return
			}
		}
	}))
	r.metrics["netx.frame_read_ns"] /= frames

	r.ops(1)
	if err := probeConn(r); err != nil {
		r.fail("netx probe: %v", err)
	}
}

func probeConn(r *run) error {
	var received atomic.Int64
	srv, err := echoServer(&received)
	if err != nil {
		return err
	}
	defer srv.Close()
	pong := make(chan struct{}, 1) // one ping in flight at a time
	var ups atomic.Int64
	opts := netx.ConnOptions{
		Backoff:   netx.BackoffPolicy{Min: 10 * time.Millisecond, Max: 80 * time.Millisecond},
		OnMessage: func(byte, []byte) { pong <- struct{}{} },
		OnConnect: func(*netx.Conn) { ups.Add(1) },
	}
	direct := netx.Dial(srv.Addr(), opts)
	defer direct.Close()
	if !waitFor(direct.Connected) {
		return fmt.Errorf("direct connection not established")
	}
	burst, pings := 20_000/r.sz.ProbeDiv, 500/r.sz.ProbeDiv+10
	payload := make([]byte, 64)
	var rates []float64
	for rep := 0; rep < 3; rep++ {
		base := received.Load()
		t0 := time.Now()
		for i := 0; i < burst; i++ {
			if err := direct.Send(1, payload); err != nil {
				return fmt.Errorf("Conn.Send: %w", err)
			}
		}
		if !waitFor(func() bool { return received.Load()-base >= int64(burst) }) {
			return fmt.Errorf("server received %d of %d frames", received.Load()-base, burst)
		}
		rates = append(rates, float64(burst)/time.Since(t0).Seconds())
	}
	r.setTiming("netx.conn_send_frames_per_s", rates)
	rtt, err := pingPong(direct, pong, pings)
	if err != nil {
		return err
	}
	r.set("netx.conn_rtt_us_p50", percentile(rtt, 50), len(rtt))

	fp := netx.NewFaultProxy(1)
	defer fp.Close()
	addr, err := fp.AddRoute(0, 1, func() (string, error) { return srv.Addr(), nil })
	if err != nil {
		return err
	}
	ups.Store(0)
	via := netx.Dial(addr, opts)
	defer via.Close()
	if !waitFor(via.Connected) {
		return fmt.Errorf("proxied connection not established")
	}
	if rtt, err = pingPong(via, pong, pings); err != nil {
		return err
	}
	r.set("netx.proxy_rtt_us_p50", percentile(rtt, 50), len(rtt))

	// netx.redial_ms: cut and at once heal the link; the Conn notices the
	// drop, waits out its backoff (10 ms) and dials again.
	var redial []float64
	for i := 0; i < 5; i++ {
		before := ups.Load()
		t0 := time.Now()
		if err := fp.Cut(0, 1); err != nil {
			return err
		}
		if err := fp.Heal(0, 1); err != nil {
			return err
		}
		if !waitFor(func() bool { return ups.Load() > before && via.Connected() }) {
			return fmt.Errorf("no redial within 2 s of a cut")
		}
		redial = append(redial, float64(time.Since(t0))/1e6)
		time.Sleep(50 * time.Millisecond) // outlive StableAfter so the backoff resets
	}
	r.setTiming("netx.redial_ms", redial)
	return nil
}

// probeClusterWire round-trips the cluster's exported wire messages through
// encoding/json, which is what its unexported encode/decode do per message
// and per tuple.
func probeClusterWire(r *run) {
	beat := cluster.Beat{Host: 1, Incarnation: 2}
	clusterTop.Slots(1, func(pe, k int) {
		beat.Slots = append(beat.Slots, cluster.SlotState{PE: pe, K: k, Active: true, ProxyEpoch: 256, ProxySeq: 7, Processed: 12345})
	})
	msgs := []any{cluster.Tuple{PE: 2, ID: 123456}, beat, cluster.CommandMsg{Epoch: 256, Seq: 9, PE: 1, K: 1, Active: true}}
	dsts := []any{&cluster.Tuple{}, &cluster.Beat{}, &cluster.CommandMsg{}}
	r.setTiming("cluster.wire_json_ns", r.perOpNs(5, 30_000, func(i int) {
		b, err := json.Marshal(msgs[i%3])
		if err == nil {
			err = json.Unmarshal(b, dsts[i%3])
		}
		if err != nil {
			r.fail("cluster wire probe: %v", err)
		}
	}))
}

// runProbes runs every inner-layer probe.
func runProbes(r *run, in *inputs) {
	r.tr.workload = "probes"
	for _, p := range []struct {
		name string
		fn   func()
	}{
		{"bench.probe_core", func() { probeCore(r, in.corpus) }},
		{"bench.probe_sim", func() { probeSim(r) }},
		{"bench.probe_controlplane", func() { probeControlplane(r, in.corpus) }},
		{"bench.probe_netx", func() { probeNetx(r) }},
		{"bench.probe_cluster_wire", func() { probeClusterWire(r) }},
	} {
		id := r.tr.begin(0, p.name)
		p.fn()
		r.tr.end(id)
	}
}
