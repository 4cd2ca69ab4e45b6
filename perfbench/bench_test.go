package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestSmoke makes one round of every workload three times in process,
// the last traced: every output check passes, and the exact counts and
// the outcome digest are identical across the runs and with tracing on
// and off.
func TestSmoke(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			w, err := spec.setup(7, newMeter(false))
			if err != nil {
				t.Fatal(err)
			}
			n := w.round()
			first := mustPass(t, spec.name, w, n, newMeter(false))
			second := mustPass(t, spec.name, w, n, newMeter(false))
			m := newMeter(true)
			traced := mustPass(t, spec.name, w, n, m)
			for _, r := range []*record{second, traced} {
				if err := sameOutcome("rerun", first, r); err != nil {
					t.Error(err)
				}
				if !reflect.DeepEqual(first.counts, r.counts) || first.digest != r.digest {
					t.Errorf("exact counts differ:\n %v\n %v", first.counts, r.counts)
				}
			}
			if first.attempted == 0 || first.counts["wormhole.flit_hops"] == 0 {
				t.Fatalf("no work done: %d ops, counts %v", first.attempted, first.counts)
			}
			// Every recovery path the workload is for is taken.
			for _, c := range map[string][]string{
				"traffic": {"traffic.repair_sends", "tuner.switches"},
				"repair": {"recover.retransmits", "recover.repair_sends", "member.retransmits",
					"member.grafts", "member.orphan_sends"},
			}[spec.name] {
				if first.counts[c] == 0 {
					t.Errorf("%s is 0", c)
				}
			}
			lt := m.layerTimes()
			if root := lt[spec.name+".op"]; root == nil || root.Calls != n {
				t.Fatalf("want %d root spans, got %+v", n, root)
			}
			for _, s := range map[string][]string{
				"sweep":   {"wormhole.new", "chain.order", "core.table", "mcastsim.run"},
				"traffic": {"wormhole.new", "fault.plan", "traffic.run", "tuner.choose", "tuner.observe", "core.table"},
				"repair":  {"wormhole.new", "fault.plan", "recover.run", "member.schedule", "member.run"},
			}[spec.name] {
				if lt[s] == nil {
					t.Errorf("no %s span", s)
				}
			}
			if spec.name == "traffic" {
				for _, s := range m.spans {
					if s.Name == "tuner.choose" && m.spans[s.Parent].Name != "traffic.run" {
						t.Fatalf("tuner.choose nested in %s, want traffic.run", m.spans[s.Parent].Name)
					}
				}
			}
		})
	}
}

// TestSeedsDiffer: a second seed gives different inputs, and its ops
// pass every output check too.
func TestSeedsDiffer(t *testing.T) {
	for _, spec := range workloads {
		var digests []uint64
		for _, seed := range []uint64{7, 8} {
			w, err := spec.setup(seed, newMeter(false))
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, mustPass(t, spec.name, w, w.round(), newMeter(false)).digest)
		}
		if digests[0] == digests[1] {
			t.Errorf("%s: seeds 7 and 8 gave the same outcome digest", spec.name)
		}
	}
}

// TestMemberOracleDefect pins a known defect of member.Run that the
// repair workload counts in member.oracle_escapes instead of failing
// the op: with channel faults and crashes, member.Run can deliver a
// member that its own oracle (member.ReachableAmong over the members
// subscribed and alive at quiesce) marks unreachable, against the
// package's contract. Call 962 of seed 1 is such a case. The test fails
// once the defect is fixed: then make an escape a failed check in
// churnOp and delete this test.
func TestMemberOracleDefect(t *testing.T) {
	w, err := setupRepair(1, newMeter(false))
	if err != nil {
		t.Fatal(err)
	}
	const call = 962
	if c := w.(*repairLoad).cases[call%w.round()]; c.kind != churnFaultOp {
		t.Fatalf("call %d is kind %d, want churnFaultOp", call, c.kind)
	}
	r := newRecord()
	r.startCall()
	w.call(call, r, newMeter(false))
	if r.failed != 0 {
		t.Fatalf("call %d failed: %v", call, r.failures)
	}
	if r.counts["member.oracle_escapes"] == 0 {
		t.Fatalf("call %d of seed 1 no longer delivers outside the membership oracle: "+
			"if member.Run is fixed, make an oracle escape a failed check in churnOp", call)
	}
}

func mustPass(t *testing.T, name string, w workload, n int, m *meter) *record {
	t.Helper()
	r, err := pass(name, w, n, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d of %d ops failed: %v", r.failed, r.attempted, r.failures)
	}
	return r
}

// TestCommandLine runs the command end to end on every workload, traced
// and untraced: the last line of output is the result object with
// exactly the contract's keys, its metrics are exactly those
// BENCHMARK.json lists for the mode, with the same units, and a traced
// run writes its Chrome trace.
func TestCommandLine(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range spec.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", trace,
				"--trace-dir", dir}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			last := []byte(lines[len(lines)-1])
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(last, &keys); err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(sortedNames(keys), ","); got != "attempted,correct,failed,metrics" {
				t.Fatalf("result keys %s", got)
			}
			var f final
			if err := json.Unmarshal(last, &f); err != nil {
				t.Fatal(err)
			}
			if !f.Correct || f.Failed != 0 || f.Attempted == 0 {
				t.Fatalf("%s trace %s: %+v", w.name, trace, f)
			}
			got := make(map[string]string, len(f.Metrics))
			for name, m := range f.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want[trace]) {
				t.Errorf("%s trace %s: metrics and units differ from BENCHMARK.json:\n got  %v\n want %v",
					w.name, trace, got, want[trace])
			}
		}
		buf, err := os.ReadFile(filepath.Join(dir, w.name+"-seed3.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf, &tr); err != nil || len(tr.TraceEvents) == 0 {
			t.Fatalf("%s trace file: %d events, %v", w.name, len(tr.TraceEvents), err)
		}
	}
	if code := run([]string{"--workload", "nope"}, new(bytes.Buffer), new(bytes.Buffer)); code == 0 {
		t.Fatal("unknown workload accepted")
	}
}

// sortedNames returns a map's keys in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
