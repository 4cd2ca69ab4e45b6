package main

import (
	"repro/internal/exp"
	"repro/internal/mcastsim"
	"repro/internal/sim"
)

// sweepKs are the group sizes of the closed-system figures.
var sweepKs = []int{32, 128}

type sweepCase struct {
	fab      *fabric
	algo     exp.Algorithm
	k, bytes int
}

// sweep is the paper's closed-system workload: each op is one multicast
// on a fresh healthy fabric, cycling through every (fabric, algorithm,
// k, size) case once per round in a seeded order. Sizes are Figure 2's
// axis, 0–64 KB in 8 KB steps; with this many sizes the per-call times
// have no gap at their median.
type sweep struct {
	seed  uint64
	cases []sweepCase
}

func setupSweep(seed uint64, m *meter) (workload, error) {
	w := &sweep{seed: seed}
	sizes := exp.DefaultSizes()
	for _, f := range []struct {
		fab   *fabric
		algos []exp.Algorithm
	}{{meshFabric(16, m), exp.MeshAlgorithms()}, {bminFabric(128, m), exp.BMINAlgorithms()}} {
		if err := f.fab.calibrate(sizes, derive(seed, "calibrate."+f.fab.Name, 0), m); err != nil {
			return nil, err
		}
		for _, a := range f.algos {
			for _, k := range sweepKs {
				for _, b := range sizes {
					w.cases = append(w.cases, sweepCase{fab: f.fab, algo: a, k: k, bytes: b})
				}
			}
		}
	}
	return w, nil
}

func (w *sweep) round() int { return len(w.cases) }

func (w *sweep) call(i int, r *record, m *meter) {
	n := len(w.cases)
	perm := sim.NewRNG(derive(w.seed, "sweep.order", i/n)).Perm(n)
	c := w.cases[perm[i%n]]
	addrs := sim.NewRNG(derive(w.seed, "sweep.place", i)).Sample(c.fab.Nodes, c.k)

	net := c.fab.net(m)
	ch, root, tab := c.fab.plan(c.algo, addrs, c.bytes, m)
	id := m.begin("mcastsim.run")
	res, err := mcastsim.Run(net, tab, ch, root, c.bytes, simConfig())
	m.end(id)

	addStats(r, net)
	r.simCycles += net.Now()
	if err == nil {
		err = checkSweep(c, root, res)
	}
	delivered := 0
	for pos, at := range res.Deliveries {
		if pos != root && at >= 0 {
			delivered++
		}
	}
	r.op(res.Latency, delivered, c.k-1, err)
	r.mix(res.Deliveries...)
	r.mix(res.Worms, res.BlockedCycles, res.InjectWaitCycles, res.Cycles)
}

// checkSweep asserts the healthy-fabric contract: every destination is
// delivered, no later than the reported latency, and the algorithms
// ordered along their own architecture's chain meet no contention.
func checkSweep(c sweepCase, root int, res mcastsim.Result) error {
	if len(res.Deliveries) != c.k {
		return checkf("%s k=%d: %d delivery slots", c.algo.Name, c.k, len(res.Deliveries))
	}
	for pos, at := range res.Deliveries {
		if (pos != root && at <= 0) || at > res.Latency {
			return checkf("%s k=%d %dB: position %d delivered at %d (latency %d)",
				c.algo.Name, c.k, c.bytes, pos, at, res.Latency)
		}
	}
	if c.algo.Ordered && res.BlockedCycles != 0 {
		return checkf("%s on %s k=%d %dB: %d blocked cycles in a contention-free algorithm",
			c.algo.Name, c.fab.Name, c.k, c.bytes, res.BlockedCycles)
	}
	return nil
}
