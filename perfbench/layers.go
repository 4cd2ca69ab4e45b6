package main

import (
	"sort"
	"time"
)

// layerSpans are the span names the workloads record around layer
// calls; each gets a self-time share in the traced report.
var layerSpans = []string{
	"wormhole.new", "chain.order", "core.table", "mcastsim.run",
	"traffic.run", "tuner.choose", "tuner.observe", "fault.plan",
	"member.schedule", "member.run", "recover.run",
}

// simulating are the spans whose calls step the wormhole kernel.
var simulating = []string{"mcastsim.run", "traffic.run", "recover.run", "member.run"}

// exactCounts are the per-layer counts reported verbatim. Each is an
// exact function of (workload, seed, calls).
var exactCounts = []string{
	"wormhole.flit_hops", "wormhole.worms", "wormhole.sim_cycles", "wormhole.blocked_cycles",
	"wormhole.inject_wait_cycles", "wormhole.cancelled",
	"traffic.completed", "traffic.shed", "traffic.retransmits", "traffic.repair_sends",
	"traffic.abandoned_dests", "tuner.switches",
	"member.events", "member.grafts", "member.fallbacks", "member.oracle_escapes",
	"recover.sends", "recover.retransmits", "recover.repair_sends", "recover.orphan_sends",
	"member.sends", "member.retransmits", "member.repair_sends", "member.orphan_sends",
}

// layerMetrics assembles the --trace 1 metrics from the traced executions.
// Layers a workload never enters report 0.
func layerMetrics(name string, r *record, m *meter, trainMs []float64, plain, traced []time.Duration) map[string]metric {
	lt := m.layerTimes()
	out := make(map[string]metric)
	perCall := func(span string, scale time.Duration) float64 {
		t := lt[span]
		if t == nil || t.Calls == 0 {
			return 0
		}
		return float64(t.Total) / float64(t.Calls) / float64(scale)
	}
	selfPerCall := func(span string, scale time.Duration) float64 {
		t := lt[span]
		if t == nil || t.Calls == 0 {
			return 0
		}
		return float64(t.Self) / float64(t.Calls) / float64(scale)
	}
	out["wormhole.new_ms"] = metric{perCall("wormhole.new", time.Millisecond), "ms"}
	out["core.table_us"] = metric{perCall("core.table", time.Microsecond), "us"}
	out["chain.order_us"] = metric{perCall("chain.order", time.Microsecond), "us"}
	out["mcastsim.run_ms"] = metric{perCall("mcastsim.run", time.Millisecond), "ms"}
	out["traffic.run_ms"] = metric{perCall("traffic.run", time.Millisecond), "ms"}
	out["traffic.self_ms"] = metric{selfPerCall("traffic.run", time.Millisecond), "ms"}
	out["tuner.choose_ns"] = metric{perCall("tuner.choose", time.Nanosecond), "ns"}
	out["tuner.observe_ns"] = metric{perCall("tuner.observe", time.Nanosecond), "ns"}
	out["fault.plan_ms"] = metric{perCall("fault.plan", time.Millisecond), "ms"}
	out["member.schedule_us"] = metric{perCall("member.schedule", time.Microsecond), "us"}
	out["member.run_ms"] = metric{perCall("member.run", time.Millisecond), "ms"}
	out["recover.run_ms"] = metric{perCall("recover.run", time.Millisecond), "ms"}
	train := 0.0
	if len(trainMs) > 0 {
		train = quantile(sortedCopy(trainMs), 0.5)
	}
	out["tuner.train_ms"] = metric{train, "ms"}

	var simTime time.Duration
	for _, s := range simulating {
		if t := lt[s]; t != nil {
			simTime += t.Total
		}
	}
	nsPerHop := 0.0
	if hops := r.counts["wormhole.flit_hops"]; hops > 0 {
		nsPerHop = float64(simTime.Nanoseconds()) / float64(hops)
	}
	out["wormhole.ns_per_flit_hop"] = metric{nsPerHop, "ns"}

	for _, c := range exactCounts {
		out[c] = metric{float64(r.counts[c]), "count"}
	}
	for _, eng := range []string{"recover", "member"} {
		v := 0.0
		if sends := r.counts[eng+".sends"]; sends > 0 {
			v = float64(r.counts[eng+".delivered"]) / float64(sends)
		}
		out[eng+".delivered_per_send"] = metric{v, "1"}
	}
	admitted := r.counts["traffic.completed"]
	qd, occ := 0.0, 0.0
	if admitted > 0 {
		qd = float64(r.counts["traffic.queue_delay_cycles"]) / float64(admitted)
	}
	if c := r.counts["traffic.calls"]; c > 0 {
		occ = float64(r.counts["traffic.occupancy_milli"]) / 1000 / float64(c)
	}
	out["traffic.queue_delay_mean_cycles"] = metric{qd, "cycles"}
	out["traffic.occupancy_mean"] = metric{occ, "requests"}

	// Self-time split: each layer's share of the time spent inside ops;
	// "bench" is the benchmark's own work between layer calls (input
	// generation and output checks).
	root := lt[name+".op"]
	var opTime time.Duration
	if root != nil {
		opTime = root.Total
	}
	share := func(d time.Duration) float64 {
		if opTime == 0 {
			return 0
		}
		return 100 * float64(d) / float64(opTime)
	}
	for _, s := range layerSpans {
		v := 0.0
		if t := lt[s]; t != nil {
			v = share(t.Self)
		}
		out["self_pct."+s] = metric{v, "%"}
	}
	benchSelf := time.Duration(0)
	if root != nil {
		benchSelf = root.Self
	}
	out["self_pct.bench"] = metric{share(benchSelf), "%"}
	// Overhead is the median over calls of the traced execution's time
	// over its untraced twin's: host drift between the two executions
	// of one call is far smaller than between calls.
	ratios := make([]float64, len(plain))
	for i := range plain {
		ratios[i] = float64(traced[i]) / float64(plain[i])
	}
	sort.Float64s(ratios)
	out["trace.overhead_pct"] = metric{100 * (quantile(ratios, 0.5) - 1), "%"}
	out["trace.spans"] = metric{float64(len(m.spans)), "count"}
	return out
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}
