package main

import (
	"fmt"

	"repro/internal/bmin"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/mcastsim"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

// fabric is one paper platform with its topology and the t_end values
// calibrated on it during set-up.
type fabric struct {
	exp.Platform
	topo wormhole.Topology
	tend map[int]model.Time
}

func newFabric(p exp.Platform, m *meter) *fabric {
	f := &fabric{Platform: p}
	f.topo = f.net(m).Topology()
	return f
}

func meshFabric(side int, m *meter) *fabric {
	return newFabric(exp.MeshPlatform(side, side, wormhole.DefaultConfig()), m)
}

func bminFabric(nodes int, m *meter) *fabric {
	return newFabric(exp.BMINPlatform(nodes, bmin.AscentStraight, wormhole.DefaultConfig()), m)
}

// net builds a fresh idle network on the fabric, recorded as a
// wormhole.new span.
func (f *fabric) net(m *meter) *wormhole.Network {
	id := m.begin("wormhole.new")
	n := f.NewNet()
	m.end(id)
	return n
}

// calibrate measures t_end for each message size the way the paper's
// experiments do (exp.Suite.MeasureTEnd), on spanned fabrics.
func (f *fabric) calibrate(sizes []int, seed uint64, m *meter) error {
	p := f.Platform
	p.NewNet = func() *wormhole.Network { return f.net(m) }
	s := &exp.Suite{Platform: p, Software: software, Seed: seed}
	f.tend = make(map[int]model.Time, len(sizes))
	for _, bytes := range sizes {
		tend, err := s.MeasureTEnd(bytes)
		if err != nil {
			return fmt.Errorf("calibrate %s at %d B: %w", f.Name, bytes, err)
		}
		f.tend[bytes] = tend
	}
	return nil
}

// plan orders a group (source first in addrs) into algorithm a's chain
// and builds its split table for bytes-byte messages. It returns the
// chain, the source's position in it, and the table.
func (f *fabric) plan(a exp.Algorithm, addrs []int, bytes int, m *meter) (chain.Chain, int, core.SplitTable) {
	id := m.begin("chain.order")
	ch := chain.Unordered(addrs)
	if a.Ordered {
		ch = chain.New(addrs, f.Less)
	}
	m.end(id)
	root, _ := ch.Index(addrs[0])
	id = m.begin("core.table")
	tab := a.Table(len(addrs), software.Hold.At(bytes), f.tend[bytes])
	m.end(id)
	return ch, root, tab
}

// software is the paper's default host cost model, used everywhere.
var software = model.DefaultSoftware()

func simConfig() mcastsim.Config { return mcastsim.Config{Software: software} }

// derive mixes a stream label and an index into the workload seed, so
// every input of every call has its own reproducible stream.
func derive(seed uint64, stream string, i int) uint64 {
	h := uint64(fnvOffset)
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return sim.NewRNG(seed ^ h ^ uint64(i)*0x9e3779b97f4a7c15).Uint64()
}

// addStats folds a fresh network's fabric counters, after one call ran
// on it, into the record's exact wormhole counts.
func addStats(r *record, net *wormhole.Network) {
	st := net.Stats()
	r.add("wormhole.flit_hops", st.FlitHops)
	r.add("wormhole.worms", st.Worms)
	r.add("wormhole.sim_cycles", st.Cycles)
	r.add("wormhole.blocked_cycles", st.BlockedCycles)
	r.add("wormhole.inject_wait_cycles", st.InjectWaitCycles)
	r.add("wormhole.cancelled", st.Cancelled)
}
