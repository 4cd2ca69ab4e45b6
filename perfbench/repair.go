package main

import (
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/mcastsim"
	"repro/internal/member"
	recov "repro/internal/recover"
	"repro/internal/sim"
)

// The repair scenario: reliable 4 KB multicasts to k members under
// static channel faults (recover) and under membership churn (member),
// on both paper fabrics.
const (
	repairK         = 64
	repairBytes     = 4096
	repairDeadFrac  = 0.10 // dead channels in faulted ops
	repairFlakyFrac = 0.02 // channels with periodic transient outages, ditto
	// A flaky channel is down for flakyDownTEnds t_end out of every
	// flakyPeriodTEnds: longer than recover's 3×t_end per-send deadline,
	// so a worm caught in an outage expires and is retransmitted.
	flakyPeriodTEnds = 16
	flakyDownTEnds   = 4
	churnPool        = repairK / 4
	churnRate        = 64 // churn events per million cycles
	churnHorizon     = 65536
	churnDown        = 4096
	churnRejoin      = 0.5
)

// repairAlgo plans every repair tree: OPT over the architecture chain.
var repairAlgo = exp.Opt("OPT")

// repairKind is what one repair op runs.
type repairKind int

const (
	// recoverOp is recover.Run on a static plan of dead and flaky
	// channels.
	recoverOp repairKind = iota
	// churnOp is member.Run under a churn schedule whose crash outages
	// are its only faults: delivery must equal the membership oracle.
	churnOp
	// churnFaultOp is member.Run under a churn schedule with the dead
	// and flaky channels of recoverOp added: delivery must be a subset
	// of the oracle. Members delivered outside it are a known defect of
	// member.Run (see README.md); they are counted in
	// member.oracle_escapes rather than failing the op.
	churnFaultOp
)

type repairCase struct {
	fab  *fabric
	kind repairKind
}

// repairLoad cycles through the three op kinds on both fabrics.
type repairLoad struct {
	seed  uint64
	cases []repairCase
}

func setupRepair(seed uint64, m *meter) (workload, error) {
	w := &repairLoad{seed: seed}
	for _, f := range []*fabric{meshFabric(16, m), bminFabric(128, m)} {
		if err := f.calibrate([]int{repairBytes}, derive(seed, "calibrate."+f.Name, 0), m); err != nil {
			return nil, err
		}
		for _, k := range []repairKind{recoverOp, churnOp, churnFaultOp} {
			w.cases = append(w.cases, repairCase{fab: f, kind: k})
		}
	}
	return w, nil
}

func (w *repairLoad) round() int { return len(w.cases) }

func (w *repairLoad) call(i int, r *record, m *meter) {
	c := w.cases[i%len(w.cases)]
	if c.kind == recoverOp {
		w.recoverOp(i, c, r, m)
	} else {
		w.churnOp(i, c, r, m)
	}
}

// channelFaults is the dead-and-flaky channel part of call i's fault
// plan on a fabric.
func (w *repairLoad) channelFaults(i int, f *fabric) fault.Spec {
	tend := f.tend[repairBytes]
	return fault.Spec{DeadFrac: repairDeadFrac, FlakyFrac: repairFlakyFrac,
		FlakyPeriod: flakyPeriodTEnds * tend, FlakyDown: flakyDownTEnds * tend,
		Seed: derive(w.seed, "repair.faults", i)}
}

// recoverOp delivers one multicast on a fabric with dead and flaky
// channels and checks delivery against the reachability oracle.
func (w *repairLoad) recoverOp(i int, c repairCase, r *record, m *meter) {
	addrs := sim.NewRNG(derive(w.seed, "repair.place", i)).Sample(c.fab.Nodes, repairK)
	id := m.begin("fault.plan")
	plan, err := fault.NewPlan(c.fab.topo, w.channelFaults(i, c.fab))
	m.end(id)
	if err != nil {
		r.op(-1, 0, repairK-1, err)
		return
	}
	net := c.fab.net(m)
	net.SetFaults(plan)
	ch, root, tab := c.fab.plan(repairAlgo, addrs, repairBytes, m)
	id = m.begin("recover.run")
	res, err := recov.Run(net, tab, ch, root, repairBytes, recov.Config{
		Sim: simConfig(), TEnd: c.fab.tend[repairBytes], Seed: derive(w.seed, "repair.backoff", i),
	})
	m.end(id)
	addStats(r, net)
	r.simCycles += net.Now()
	if err != nil {
		r.op(-1, 0, repairK-1, err)
		return
	}
	addOverhead(r, "recover", res.Overhead, res.Delivered)
	reach := recov.Reachable(c.fab.topo, plan, ch, root)
	if escaped, _ := compare(res.Deliveries, reach, nil); len(escaped) > 0 {
		err = checkf("call %d recover on %s: positions %v delivered but unreachable", i, c.fab.Name, escaped)
	}
	if err == nil && res.Delivered+res.Abandoned != repairK-1 {
		err = checkf("recover: %d delivered + %d abandoned of %d", res.Delivered, res.Abandoned, repairK-1)
	}
	r.op(res.Latency, res.Delivered, repairK-1, err)
	r.mix(res.Deliveries...)
	r.mix(res.FallbackAt, res.Worms, res.BlockedCycles, res.Cycles)
}

// churnOp delivers one multicast while members join, leave, crash and
// rejoin, and checks the delivered members against the membership
// oracle: exactly its reachable set under pure node churn, a subset of
// it with channel faults.
func (w *repairLoad) churnOp(i int, c repairCase, r *record, m *meter) {
	addrs := sim.NewRNG(derive(w.seed, "repair.place", i)).Sample(c.fab.Nodes, repairK+churnPool)
	id := m.begin("member.schedule")
	sched, err := member.GenSchedule(member.ChurnSpec{
		RatePerMcycle: churnRate, Horizon: churnHorizon, RejoinFrac: churnRejoin,
		DownCycles: churnDown, Seed: derive(w.seed, "repair.churn", i),
	}, addrs[:repairK], addrs[repairK:])
	m.end(id)
	if err != nil {
		r.op(-1, 0, repairK-1, err)
		return
	}
	spec := fault.Spec{NodeOutages: sched.Outages}
	if c.kind == churnFaultOp {
		spec = w.channelFaults(i, c.fab)
		spec.NodeOutages = sched.Outages
	}
	id = m.begin("fault.plan")
	plan, err := fault.NewPlan(c.fab.topo, spec)
	m.end(id)
	if err != nil {
		r.op(-1, 0, repairK-1, err)
		return
	}
	net := c.fab.net(m)
	net.SetFaults(plan)
	ch, root, tab := c.fab.plan(repairAlgo, addrs, repairBytes, m)
	id = m.begin("member.run")
	res, err := member.Run(net, tab, ch, sched, repairBytes, member.Config{
		Sim: simConfig(), TEnd: c.fab.tend[repairBytes], Repair: recov.RepairIncremental,
		Seed: derive(w.seed, "repair.backoff", i),
	})
	m.end(id)
	addStats(r, net)
	r.simCycles += net.Now()
	owed := res.Delivered + res.Undelivered
	if err != nil {
		r.op(-1, 0, owed, err)
		return
	}
	addOverhead(r, "member", res.Overhead, res.Delivered)
	r.add("member.events", int64(res.Events))
	r.add("member.grafts", res.Grafts)
	if res.FallbackAt >= 0 {
		r.add("member.fallbacks", 1)
	}
	in := make([]bool, len(ch))
	for p := range in {
		in[p] = res.Member[p] && res.Alive[p]
	}
	oracle := member.ReachableAmong(c.fab.topo, plan, ch, root, in)
	escaped, missed := compare(res.Deliveries, oracle, in)
	switch {
	case c.kind == churnFaultOp:
		r.add("member.oracle_escapes", int64(len(escaped)))
	case len(escaped) > 0:
		err = checkf("call %d member on %s: positions %v delivered but unreachable", i, c.fab.Name, escaped)
	case len(missed) > 0:
		err = checkf("call %d member on %s: positions %v reachable but not delivered", i, c.fab.Name, missed)
	}
	r.op(res.Latency, res.Delivered, owed, err)
	r.mix(res.Deliveries...)
	r.mix(int64(res.Left), int64(res.Dead), res.FallbackAt, res.Worms)
}

// compare lists the positions among in (all when in is nil) that were
// delivered (delivery time >= 0) though the oracle marks them
// unreachable, and those the oracle marks reachable that were not
// delivered.
func compare(deliveries []int64, oracle, in []bool) (escaped, missed []int) {
	for p, at := range deliveries {
		if in != nil && !in[p] {
			continue
		}
		switch got := at >= 0; {
		case got && !oracle[p]:
			escaped = append(escaped, p)
		case !got && oracle[p]:
			missed = append(missed, p)
		}
	}
	return escaped, missed
}

// addOverhead folds a reliable engine's message costs into the counts
// of the given layer.
func addOverhead(r *record, layer string, oh mcastsim.Overhead, delivered int) {
	r.add(layer+".sends", oh.Sends)
	r.add(layer+".retransmits", oh.Retransmits)
	r.add(layer+".repair_sends", oh.RepairSends)
	r.add(layer+".orphan_sends", oh.OrphanSends)
	r.add(layer+".delivered", int64(delivered))
}
