package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"teccl/internal/collective"
	"teccl/internal/core"
	"teccl/internal/sim"
	"teccl/internal/topo"
)

// bandwidthBound is a lower bound on any schedule's finish time for
// demand d on topology t, computed independently of the planner: every
// GPU must receive each chunk it wants through its live in-links and
// send each chunk it originates at least once through its live
// out-links, so the finish time is at least the larger of those byte
// counts divided by the GPU's ingress or egress capacity.
func bandwidthBound(t *topo.Topology, d *collective.Demand) float64 {
	bound := 0.0
	for _, g := range t.GPUs() {
		n := int(g)
		recv, send := 0, 0
		for src := 0; src < d.NumNodes(); src++ {
			for c := 0; c < d.NumChunks(); c++ {
				if src != n && d.Wants(src, c, n) {
					recv++
				}
			}
		}
		for c := 0; c < d.NumChunks(); c++ {
			for dst := 0; dst < d.NumNodes(); dst++ {
				if dst != n && d.Wants(n, c, dst) {
					send++
					break
				}
			}
		}
		in, out := 0.0, 0.0
		for _, l := range t.In(g) {
			in += t.Link(l).Capacity
		}
		for _, l := range t.Out(g) {
			out += t.Link(l).Capacity
		}
		if recv > 0 && in > 0 {
			bound = math.Max(bound, float64(recv)*d.ChunkBytes/in)
		}
		if send > 0 && out > 0 {
			bound = math.Max(bound, float64(send)*d.ChunkBytes/out)
		}
	}
	return bound
}

// sameTopology reports whether two topologies have identical nodes and
// links, including per-link capacity, latency and liveness.
func sameTopology(a, b *topo.Topology) bool {
	if a.NumNodes() != b.NumNodes() || a.NumLinks() != b.NumLinks() {
		return false
	}
	for l := 0; l < a.NumLinks(); l++ {
		id := topo.LinkID(l)
		if a.Link(id) != b.Link(id) || a.LinkDown(id) != b.LinkDown(id) {
			return false
		}
	}
	return true
}

// verdict is the outcome of checking one returned plan.
type verdict struct {
	finishEpoch int
	bytesSent   float64
	lbRatio     float64 // simulated finish ÷ bandwidthBound
	bytesRatio  float64 // bytes sent ÷ demanded bytes
	sends       int
	validate    time.Duration
	simulate    time.Duration
}

// checkPlan verifies that a plan schedules demand d on topology t: the
// schedule is bound to exactly that topology and demand, passes
// schedule.Validate and sim.Run, and finishes no sooner than the
// bandwidth bound allows.
func checkPlan(p *core.Plan, t *topo.Topology, d *collective.Demand) (verdict, error) {
	var v verdict
	if p == nil || p.Result == nil || p.Schedule == nil {
		return v, errors.New("plan carries no schedule")
	}
	s := p.Schedule
	if s.Demand == nil || s.Demand.Fingerprint() != d.Fingerprint() {
		return v, errors.New("schedule is for a different demand")
	}
	if s.Topo == nil || !sameTopology(s.Topo, t) {
		return v, errors.New("schedule is for a different topology")
	}
	start := time.Now()
	err := s.Validate()
	v.validate = time.Since(start)
	if err != nil {
		return v, fmt.Errorf("schedule.Validate: %w", err)
	}
	start = time.Now()
	res, err := sim.Run(s)
	v.simulate = time.Since(start)
	if err != nil {
		return v, fmt.Errorf("sim.Run: %w", err)
	}
	v.finishEpoch = s.FinishEpoch()
	v.bytesSent = s.TotalBytesSent()
	v.sends = len(s.Sends)
	lb := bandwidthBound(t, d)
	if lb <= 0 || d.TotalBytes() <= 0 {
		return v, errors.New("demand has no bytes to move")
	}
	v.lbRatio = res.FinishTime / lb
	v.bytesRatio = v.bytesSent / d.TotalBytes()
	if v.lbRatio < 1-1e-9 {
		return v, fmt.Errorf("finishes at %.4g s, below the bandwidth bound %.4g s", res.FinishTime, lb)
	}
	return v, nil
}

// sameOutcome reports whether two checked plans agree on finish epoch
// and on bytes sent up to floating-point summation order.
func sameOutcome(a, b verdict) bool {
	return a.finishEpoch == b.finishEpoch && math.Abs(a.bytesSent-b.bytesSent) <= 1e-9*b.bytesSent
}
