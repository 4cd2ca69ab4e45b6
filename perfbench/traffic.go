package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/mcastsim"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/tuner"
)

// The traffic scenario: open-loop Poisson arrivals in simulated time on
// a 64x64 mesh with sparse dead channels, bounded admission near the
// saturation knee, and a tuner picking each request's algorithm.
const (
	trafficSide     = 64
	trafficRequests = 24    // requests per call (one traffic.Run)
	trafficRate     = 800   // offered requests per million cycles
	trafficInFlight = 4     // requests in service at once
	trafficQueueCap = 4     // bounded wait queue; overflow is shed
	trafficDeadFrac = 0.002 // dead fabric-internal channels
	trainPlacements = 4     // surface-training placements per grid point
)

var (
	trafficKs    = []int{8, 32}
	trafficSizes = []int{256, 4096}
)

// trafficLoad runs one traffic.Run per call on a fresh faulted fabric.
type trafficLoad struct {
	seed  uint64
	fab   *fabric
	surf  *tuner.Surface
	algos []tuner.Algo
}

func setupTraffic(seed uint64, m *meter) (workload, error) {
	w := &trafficLoad{seed: seed, fab: meshFabric(trafficSide, m)}
	if err := w.fab.calibrate(trafficSizes, derive(seed, "calibrate", 0), m); err != nil {
		return nil, err
	}
	id := m.begin("tuner.train")
	err := w.train(m)
	m.end(id)
	return w, err
}

// train measures every candidate algorithm's mean multicast latency on
// the healthy fabric at each (k, size) grid point and compiles the
// crossover surface the per-call policies select from.
func (w *trafficLoad) train(m *meter) error {
	pa := exp.MeshAlgorithms()
	names := make([]string, len(pa))
	for i, a := range pa {
		names[i] = a.Name
		w.algos = append(w.algos, tuner.Algo{Name: a.Name, Ordered: a.Ordered, Table: a.Table})
	}
	w.surf = tuner.New(w.fab.Name, names, trafficKs, trafficSizes, []int{0})
	for ki, k := range trafficKs {
		for bi, bytes := range trafficSizes {
			for ai, a := range pa {
				var sum int64
				for t := 0; t < trainPlacements; t++ {
					addrs := sim.NewRNG(derive(w.seed, "train.place", (ki*len(trafficSizes)+bi)*trainPlacements+t)).Sample(w.fab.Nodes, k)
					ch, root, tab := w.fab.plan(a, addrs, bytes, m)
					res, err := mcastsim.Run(w.fab.net(m), tab, ch, root, bytes, simConfig())
					if err != nil {
						return fmt.Errorf("train %s k=%d %dB: %w", a.Name, k, bytes, err)
					}
					sum += res.Latency
				}
				w.surf.Set(ki, bi, 0, ai, float64(sum)/trainPlacements)
			}
		}
	}
	return w.surf.Compile()
}

func (w *trafficLoad) round() int { return 1 }

func (w *trafficLoad) call(i int, r *record, m *meter) {
	// A call that fails as a whole fails each of its requests, each
	// owing the largest group of the mix.
	failAll := func(err error) {
		for j := 0; j < trafficRequests; j++ {
			r.op(-1, 0, trafficKs[len(trafficKs)-1]-1, err)
		}
	}
	id := m.begin("fault.plan")
	plan, err := fault.NewPlan(w.fab.topo, fault.Spec{DeadFrac: trafficDeadFrac, Seed: derive(w.seed, "traffic.faults", i)})
	m.end(id)
	if err != nil {
		failAll(err)
		return
	}
	policy, err := tuner.NewPolicy(w.surf, w.algos, tuner.PolicyConfig{})
	if err != nil {
		failAll(err)
		return
	}
	net := w.fab.net(m)
	net.SetFaults(plan)
	cfg := traffic.Config{
		Software: software,
		Arrival:  traffic.ArrivalSpec{Kind: traffic.ArrivalPoisson, RatePerMcycle: trafficRate},
		Load:     traffic.Workload{Ks: trafficKs, Sizes: trafficSizes},
		Admit: traffic.Admission{Policy: traffic.AdmissionBounded,
			MaxInFlight: trafficInFlight, QueueCap: trafficQueueCap},
		Requests: trafficRequests,
		Less:     w.fab.Less,
		Tuner:    &timedSelector{inner: policy, m: m},
		TEnd:     func(b int) model.Time { return w.fab.tend[b] },
		Reliable: true,
		Seed:     derive(w.seed, "traffic.run", i),
	}
	id = m.begin("traffic.run")
	res, err := traffic.Run(net, cfg)
	m.end(id)

	addStats(r, net)
	r.simCycles += net.Now()
	r.add("traffic.calls", 1)
	if err != nil {
		failAll(err)
		return
	}
	mt := res.Metrics
	r.add("traffic.completed", int64(mt.Completed))
	r.add("traffic.shed", int64(mt.Shed))
	r.add("traffic.retransmits", mt.Retransmits)
	r.add("traffic.repair_sends", mt.RepairSends)
	r.add("traffic.abandoned_dests", int64(mt.AbandonedDests))
	r.add("traffic.occupancy_milli", int64(mt.MeanOccupancy*1000))
	sw, over := policy.Switches()
	r.add("tuner.switches", int64(len(sw)+over))
	for _, rq := range res.Requests {
		if rq.Shed {
			// A refused request owes its whole group and delivers none.
			r.op(-1, 0, rq.K-1, nil)
			continue
		}
		delivered, err := checkRequest(rq)
		r.add("traffic.queue_delay_cycles", rq.Start-rq.Arrive)
		r.op(rq.Done-rq.Arrive, delivered, rq.K-1, err)
		r.mix(int64(rq.Algo), rq.Start, int64(rq.Abandoned))
	}
	if mt.Completed+mt.Shed != mt.Requests {
		r.fail(checkf("call %d: %d completed + %d shed of %d requests", i, mt.Completed, mt.Shed, mt.Requests))
	}
}

// checkRequest asserts an admitted request completed and that its
// delivered and abandoned positions cover the whole group. It returns
// the delivered destinations, source excluded.
func checkRequest(rq traffic.RequestResult) (int, error) {
	if rq.Done < rq.Start || rq.Start < rq.Arrive {
		return 0, checkf("request arriving at %d: start %d, done %d", rq.Arrive, rq.Start, rq.Done)
	}
	n := 0
	for _, ok := range rq.Delivered {
		if ok {
			n++
		}
	}
	if len(rq.Delivered) != rq.K || n+rq.Abandoned != rq.K || !rq.Delivered[rq.Root] {
		return n - 1, checkf("request arriving at %d: k=%d, %d delivered + %d abandoned", rq.Arrive, rq.K, n, rq.Abandoned)
	}
	return n - 1, nil
}

// timedSelector wraps the tuner policy so its calls from inside
// traffic.Run appear as child spans of the traffic.run span, and so
// does building each chosen split table.
type timedSelector struct {
	inner *tuner.Policy
	m     *meter
}

func (s *timedSelector) Choose(at int64, k, bytes int) traffic.Choice {
	id := s.m.begin("tuner.choose")
	c := s.inner.Choose(at, k, bytes)
	s.m.end(id)
	if s.m.on {
		plan := c.Plan
		c.Plan = func(k int, thold, tend model.Time) core.SplitTable {
			id := s.m.begin("core.table")
			defer s.m.end(id)
			return plan(k, thold, tend)
		}
	}
	return c
}

func (s *timedSelector) Observe(at int64, algo, k, bytes int, latency int64) {
	id := s.m.begin("tuner.observe")
	s.inner.Observe(at, algo, k, bytes, latency)
	s.m.end(id)
}
