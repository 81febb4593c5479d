package main

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"laar/internal/cluster"
	"laar/internal/controlplane"
	"laar/internal/netx"
)

const (
	clusterOpTimeout = 2 * time.Second // a flip or a failover slower than this is a failed operation
	clusterPollEvery = time.Millisecond
	clusterTickMs    = 10
	clusterTTLMs     = 80
)

var clusterTop = cluster.Topology{Hosts: 3, Controllers: 2, PEs: 3, Replicas: 2}

// clusterScenario runs the TCP cluster's nodes in this process — the same
// cluster.StartNode that `laarcluster -node` children run — with every
// inter-node link a real loopback connection through the fault fabric.
type clusterScenario struct {
	r      *run
	fabric *cluster.Fabric

	mu    sync.Mutex
	nodes map[string]*cluster.Node
	incs  map[string]uint64
	floor uint64 // highest ballot polled: the floor a respawned controller starts from

	polls      []cluster.Poll
	began      time.Time
	cfg        int
	pendingMax int

	startNodeMs       []float64
	rttMs, rttTraced  []float64
	reconvMs          []float64
	statsQueryUs      []float64
	flips, kills      int
	flipSeqs, epochsN float64
}

func clusterNodeName(kind string, index int) string {
	if kind == "gateway" {
		return "gw"
	}
	return fmt.Sprintf("%s%d", kind, index)
}

// resolve is the fabric's view of where a node listens right now.
func (c *clusterScenario) resolve(kind string, index int) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[clusterNodeName(kind, index)]
	if n == nil {
		return "", fmt.Errorf("%s is down", clusterNodeName(kind, index))
	}
	return n.Addr(), nil
}

// spawn starts one node under a fresh incarnation.
func (c *clusterScenario) spawn(parent int, kind string, index int) error {
	name := clusterNodeName(kind, index)
	c.mu.Lock()
	c.incs[name]++
	spec := c.fabric.SpecFor(kind, index, clusterTop, clusterTickMs, clusterTTLMs)
	spec.Incarnation = c.incs[name]
	spec.BallotFloor = c.floor
	c.mu.Unlock()
	id := c.r.tr.begin(parent, "cluster.StartNode")
	t0 := time.Now()
	n, err := cluster.StartNode(spec)
	c.startNodeMs = append(c.startNodeMs, float64(time.Since(t0))/1e6)
	c.r.tr.end(id)
	if err != nil {
		return fmt.Errorf("start %s: %w", name, err)
	}
	c.mu.Lock()
	c.nodes[name] = n
	c.mu.Unlock()
	return nil
}

// stopNode stops one node and forgets it.
func (c *clusterScenario) stopNode(name string) {
	c.mu.Lock()
	n := c.nodes[name]
	delete(c.nodes, name)
	c.mu.Unlock()
	if n != nil {
		n.Stop()
	}
}

// poll snapshots every node in-process and keeps the poll for CheckAll.
func (c *clusterScenario) poll() cluster.Poll {
	p := cluster.Poll{
		At:    time.Since(c.began),
		Ctrls: make([]*cluster.CtrlStats, clusterTop.Controllers),
		Hosts: make([]*cluster.HostStats, clusterTop.Hosts),
	}
	c.mu.Lock()
	nodes := make(map[string]*cluster.Node, len(c.nodes))
	for k, v := range c.nodes {
		nodes[k] = v
	}
	c.mu.Unlock()
	for j := range p.Ctrls {
		if n := nodes[clusterNodeName("controller", j)]; n != nil {
			p.Ctrls[j] = n.Stats().Ctrl
		}
	}
	for h := range p.Hosts {
		if n := nodes[clusterNodeName("host", h)]; n != nil {
			p.Hosts[h] = n.Stats().Host
		}
	}
	if n := nodes["gw"]; n != nil {
		p.Gateway = n.Stats().Gateway
	}
	c.mu.Lock()
	for _, cs := range p.Ctrls {
		if cs == nil {
			continue
		}
		if cs.MaxSeen > c.floor {
			c.floor = cs.MaxSeen
		}
		if cs.Leading && cs.Pending > c.pendingMax {
			c.pendingMax = cs.Pending
		}
	}
	c.mu.Unlock()
	c.polls = append(c.polls, p)
	return p
}

// converged accepts a poll in which controller leader leads with nothing
// pending, drives target cfg, and every slot carries its epoch and the
// activation that target wants.
func converged(p cluster.Poll, leader, cfg int) bool {
	cs := p.Ctrls[leader]
	if cs == nil || !cs.Leading || cs.Pending != 0 || cs.Cfg != cfg {
		return false
	}
	for _, h := range p.Hosts {
		if h == nil {
			return false
		}
		for _, sl := range h.Slots {
			if sl.ProxyEpoch != cs.Epoch || sl.Active != cluster.WantActive(cs.Cfg, sl.K) {
				return false
			}
		}
	}
	return true
}

// waitConverged polls every millisecond until converged or the timeout.
func (c *clusterScenario) waitConverged(leader, cfg int, timeout time.Duration) (cluster.Poll, bool) {
	deadline := time.Now().Add(timeout)
	for {
		p := c.poll()
		if converged(p, leader, cfg) {
			return p, true
		}
		if time.Now().After(deadline) {
			return p, false
		}
		time.Sleep(clusterPollEvery)
	}
}

// newClusterScenario boots the fabric and the six nodes and waits for the
// first convergence under ctrl0; all of it is set-up.
func newClusterScenario(r *run, parent int) (*clusterScenario, error) {
	c := &clusterScenario{r: r, nodes: map[string]*cluster.Node{}, incs: map[string]uint64{}, began: time.Now(), cfg: 1}
	var err error
	id := r.tr.begin(parent, "cluster.BuildFabric")
	c.fabric, err = cluster.BuildFabric(clusterTop, c.resolve, 1)
	r.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("cluster_ctrl: %w", err)
	}
	boot := func() error {
		for j := 0; j < clusterTop.Controllers; j++ {
			if err := c.spawn(parent, "controller", j); err != nil {
				return err
			}
		}
		for h := 0; h < clusterTop.Hosts; h++ {
			if err := c.spawn(parent, "host", h); err != nil {
				return err
			}
		}
		return c.spawn(parent, "gateway", 0)
	}
	if err := boot(); err != nil {
		c.close()
		return nil, fmt.Errorf("cluster_ctrl: %w", err)
	}
	// A controller boots with target configuration 1 (every replica active).
	if _, ok := c.waitConverged(0, c.cfg, 5*time.Second); !ok {
		c.close()
		return nil, fmt.Errorf("cluster_ctrl: no initial convergence under ctrl0 within 5 s")
	}
	return c, nil
}

// close stops every node and the fabric.
func (c *clusterScenario) close() {
	c.mu.Lock()
	nodes := c.nodes
	c.nodes = map[string]*cluster.Node{}
	c.mu.Unlock()
	for _, n := range nodes {
		n.Stop()
	}
	if c.fabric != nil {
		c.fabric.Close()
		c.fabric = nil
	}
}

// maxProxySeq is the highest command sequence number any slot has applied
// under the leader's epoch: the leader's command counter as the hosts see it.
func maxProxySeq(p cluster.Poll) uint64 {
	var max uint64
	for _, h := range p.Hosts {
		if h == nil {
			continue
		}
		for _, sl := range h.Slots {
			if sl.ProxySeq > max {
				max = sl.ProxySeq
			}
		}
	}
	return max
}

// phaseA flips the target configuration back and forth: one MTTarget frame
// written to the leader, then polling until the flip has converged. The
// next flip is sent as soon as the last one converged (closed loop, one
// operator), which is right after a controller tick — so the round trip
// reads one tick plus the command/ack exchange.
func (c *clusterScenario) phaseA(budget time.Duration) {
	addr, err := c.resolve("controller", 0)
	if err != nil {
		c.r.fail("cluster_ctrl: %v", err)
		return
	}
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		c.r.fail("cluster_ctrl: dial leader: %v", err)
		return
	}
	defer nc.Close()
	first := c.poll()
	seq0 := maxProxySeq(first)
	end := time.Now().Add(budget)
	for i := 0; i < 10*c.r.sz.MinPasses || time.Now().Before(end); i++ {
		c.cfg = 1 - c.cfg
		payload, _ := json.Marshal(cluster.Target{Cfg: c.cfg}) // a plain struct of ints: cannot fail
		traced := c.r.tr.on && (c.r.owner != "cluster_ctrl" || i%2 == 0)
		tr := c.r.tr
		if !traced {
			tr = nil
		}
		c.r.ops(1)
		id := tr.begin(0, "bench.cluster_flip")
		t0 := time.Now()
		w := tr.begin(id, "netx.WriteFrame")
		err := netx.WriteFrame(nc, cluster.MTTarget, payload)
		tr.end(w)
		if err != nil {
			tr.end(id)
			c.r.fail("cluster_ctrl: write target frame: %v", err)
			return
		}
		w = tr.begin(id, "bench.wait_converged")
		_, ok := c.waitConverged(0, c.cfg, clusterOpTimeout)
		tr.end(w)
		ms := float64(time.Since(t0)) / 1e6
		tr.end(id)
		if !ok {
			c.r.fail("cluster_ctrl: flip %d to configuration %d not converged within %v", i, c.cfg, clusterOpTimeout)
			continue
		}
		if traced {
			c.rttTraced = append(c.rttTraced, ms)
		} else {
			c.rttMs = append(c.rttMs, ms)
		}
		c.flips++
	}
	c.flipSeqs = float64(maxProxySeq(c.poll()) - seq0)
}

// leaderRound is the ballot round of the current leader in a poll.
func leaderRound(p cluster.Poll) uint64 {
	for _, cs := range p.Ctrls {
		if cs != nil && cs.Leading {
			return controlplane.BallotRound(cs.Epoch)
		}
	}
	return 0
}

// phaseB stops the leader over and over: the time until the standby leads
// and has reconverged every slot, then ctrl0 comes back under a bumped
// incarnation and ballot floor and reclaims the lease.
func (c *clusterScenario) phaseB(budget time.Duration) {
	round0 := leaderRound(c.poll())
	end := time.Now().Add(budget)
	for k := 0; k < c.r.sz.MinPasses || time.Now().Before(end); k++ {
		c.r.ops(1)
		id := c.r.tr.begin(0, "bench.cluster_kill")
		t0 := time.Now()
		c.stopNode("controller0")
		_, ok := c.waitConverged(1, c.cfg, clusterOpTimeout)
		ms := float64(time.Since(t0)) / 1e6
		c.r.tr.end(id)
		if ok {
			c.reconvMs = append(c.reconvMs, ms)
		} else {
			c.r.fail("cluster_ctrl: kill %d: ctrl1 not leading and converged within %v", k, clusterOpTimeout)
		}
		if err := c.spawn(0, "controller", 0); err != nil {
			c.r.fail("cluster_ctrl: respawn ctrl0: %v", err)
			return
		}
		c.r.ops(1)
		if _, ok := c.waitConverged(0, c.cfg, clusterOpTimeout); !ok {
			c.r.fail("cluster_ctrl: kill %d: ctrl0 did not reclaim within %v", k, clusterOpTimeout)
		}
		c.kills++
	}
	if c.kills > 0 {
		c.epochsN = float64(leaderRound(c.poll())-round0) / float64(c.kills)
	}
}

// queryStats times cluster.QueryStats — the supervisor's poll — over TCP.
func (c *clusterScenario) queryStats() {
	addr, err := c.resolve("host", 0)
	if err != nil {
		return
	}
	for i := 0; i < 50; i++ {
		id := c.r.tr.begin(0, "cluster.QueryStats")
		t0 := time.Now()
		_, err := cluster.QueryStats(addr, time.Second)
		c.statsQueryUs = append(c.statsQueryUs, float64(time.Since(t0))/1e3)
		c.r.tr.end(id)
		c.r.ops(1)
		if err != nil {
			c.r.fail("cluster_ctrl: QueryStats: %v", err)
			return
		}
	}
}

// checkInvariants runs the cluster's run-level invariant registry over the
// poll history; the last two polls are taken a real interval apart, as the
// delivery-resumed invariant needs.
func checkInvariants(r *run, report *cluster.RunReport) {
	r.ops(1)
	for _, v := range cluster.CheckAll(report) {
		r.fail("cluster_ctrl: invariant %s", v)
	}
}

func (c *clusterScenario) measure(budget time.Duration) {
	c.r.tr.workload = "cluster_ctrl"
	c.phaseA(budget * 35 / 100)
	c.phaseB(budget * 65 / 100)
	if c.r.tr.on {
		c.queryStats()
	}
	time.Sleep(3 * clusterTickMs * time.Millisecond)
	c.poll()
	time.Sleep(3 * clusterTickMs * time.Millisecond)
	c.poll()
	checkInvariants(c.r, &cluster.RunReport{Top: clusterTop, Polls: c.polls})
	c.close()
}

func (c *clusterScenario) report() {
	r := c.r
	rtt := append(append([]float64(nil), c.rttMs...), c.rttTraced...)
	r.set("cmd_rtt_ms_p50", percentile(rtt, 50), len(rtt))
	r.set("cmd_rtt_ms_p90", percentile(rtt, 90), len(rtt))
	r.setTiming("reconverge_ms_p50", c.reconvMs)
	if !r.tr.on || len(c.polls) == 0 {
		return
	}
	r.setTiming("cluster.start_node_ms", c.startNodeMs)
	r.setTiming("cluster.stats_query_us", c.statsQueryUs)
	// One command frame out and one ack frame back per sequence number.
	r.set("cluster.frames_per_flip", 2*c.flipSeqs/float64(c.flips), c.flips)
	last := c.polls[len(c.polls)-1]
	var dials, drops int64
	var sinkProcessed uint64
	for _, h := range last.Hosts {
		if h == nil {
			continue
		}
		dials += h.Dials
		drops += h.Drops
		for _, sl := range h.Slots {
			if sl.PE == clusterTop.PEs-1 && sl.Processed > sinkProcessed {
				sinkProcessed = sl.Processed
			}
		}
	}
	r.set("cluster.dials", float64(dials), 1)
	r.set("cluster.drops", float64(drops), 1)
	r.set("cluster.epochs_per_kill", c.epochsN, c.kills)
	if last.Gateway != nil && last.Gateway.Sent > 0 {
		r.set("cluster.delivered_frac", float64(sinkProcessed)/float64(last.Gateway.Sent), 1)
	}
	r.set("cluster.pending_max", float64(c.pendingMax), len(c.polls))
	if r.owner == "cluster_ctrl" && len(c.rttMs) > 0 && len(c.rttTraced) > 0 {
		r.set("bench.trace_overhead_frac", percentile(c.rttTraced, 50)/percentile(c.rttMs, 50)-1, len(c.rttTraced))
	}
}
