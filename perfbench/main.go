// Command perfbench is the repository benchmark. Each run sets a
// workload up several times, then drives a fixed, seeded sequence of
// calls into the simulator's layers from one goroutine, checks every
// op's output, and prints one JSON result as its last line of output.
//
//	perfbench --workload sweep|traffic|repair --seed N --seconds S --trace 0|1
//
// The amount of work is fixed by (workload, seconds): never by a time
// budget, so two runs of one seed do identical simulated work. With
// --trace 0 it makes the call sequence several times and reports the
// end-to-end metrics; with --trace 1 it executes each call untraced and
// traced, reports the per-layer metrics and the tracing overhead, and
// writes the spans as Chrome trace JSON. See README.md for the metric
// definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// workload is a set-up workload, driven call by call.
type workload interface {
	// round is the number of calls in one balanced pass over the
	// workload's mix; a run makes a whole number of rounds.
	round() int
	// call runs call i, recording its ops into r and its layer calls
	// as spans into m. It is a pure function of (seed, i).
	call(i int, r *record, m *meter)
}

type workloadSpec struct {
	name  string
	setup func(seed uint64, m *meter) (workload, error)
	// roundsPerSecond is the nominal rate the run length is fixed by:
	// a run of S seconds makes passes of round(S*roundsPerSecond/passes)
	// rounds each.
	roundsPerSecond float64
	// setups is how many set-up samples a run takes, spread over the
	// run; setup_s is their median.
	setups int
	// setupBatch is how many times one sample sets the workload up; the
	// sample is the mean, so a fast set-up is timed over a stable span.
	setupBatch int
}

// The rates are the wall-clock rates of whole passes on the reference
// machine (README.md) in its slow state, so a run of S seconds spends at
// most about S seconds in calls there. A sweep round is 108 calls; its
// rate makes one round a pass at 30 s.
var workloads = []workloadSpec{
	{name: "sweep", setup: setupSweep, roundsPerSecond: 0.27, setups: 15, setupBatch: 1},
	{name: "traffic", setup: setupTraffic, roundsPerSecond: 14.4, setups: 7, setupBatch: 1},
	{name: "repair", setup: setupRepair, roundsPerSecond: 31.6, setups: 15, setupBatch: 32},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep, traffic or repair")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "nominal run length in seconds; fixes the number of calls")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from traced executions")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory for Chrome trace JSON (--trace 1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}
	res, err := bench(spec, opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", spec.name, err)
		return 1
	}
	// The report holds only counts and finite timings, so it encodes.
	report, _ := json.MarshalIndent(res.report, "", "  ")
	fmt.Fprintf(stdout, "%s\n", report)
	line, err := json.Marshal(res.final)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type options struct {
	seed     uint64
	seconds  int
	trace    bool
	traceDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// final is the result line the benchmark contract specifies.
type final struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the context printed before the result line: the machine,
// the work done, the samples behind every percentile, the exact counts
// and the determinism digest.
type report struct {
	Workload     string           `json:"workload"`
	Seed         uint64           `json:"seed"`
	Seconds      int              `json:"seconds"`
	Trace        bool             `json:"trace"`
	Machine      machine          `json:"machine"`
	Calls        int              `json:"calls"`
	Passes       int              `json:"passes"`
	Ops          int              `json:"ops"`
	Completed    int              `json:"completed"`
	CallSamples  int              `json:"call_samples"`
	CallTailQ    float64          `json:"call_tail_quantile"`
	LatSamples   int              `json:"sim_latency_samples"`
	LatTailQ     float64          `json:"sim_latency_tail_quantile"`
	SetupSamples []float64        `json:"setup_s_samples"`
	PassS        []float64        `json:"pass_s,omitempty"`
	CallsS       float64          `json:"calls_s,omitempty"`
	Digest       string           `json:"digest"`
	Counts       map[string]int64 `json:"counts"`
	Failures     []string         `json:"failures,omitempty"`
	TraceFile    string           `json:"trace_file,omitempty"`
}

type result struct {
	report report
	final  final
}

// passes is how many times an untraced run makes its whole call
// sequence. Host speed on a shared VM switches between a fast state
// and one up to twice as slow, for seconds to minutes at a time. A
// call's host time is the fastest of its executions, which lie a pass
// apart, so it reads the fast state whenever the run meets it; from
// run to run that is far steadier than the median or the mean of the
// executions (see README.md). Repeating identical work also checks
// determinism.
const passes = 8

// setupLog sets a workload up, as often as the spec asks over a run,
// and keeps the timings.
type setupLog struct {
	spec    workloadSpec
	seed    uint64
	times   []time.Duration
	trainMs []float64
}

func (s *setupLog) run() (workload, error) {
	sm := newMeter(true)
	n := s.spec.setupBatch
	var w workload
	t0 := time.Now()
	for b := 0; b < n; b++ {
		var err error
		if w, err = s.spec.setup(s.seed, sm); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	s.times = append(s.times, time.Since(t0)/time.Duration(n))
	if lt := sm.layerTimes()["tuner.train"]; lt != nil {
		s.trainMs = append(s.trainMs, ms(lt.Total)/float64(n))
	}
	return w, nil
}

// between returns a hook for pass that sets the workload up again at
// even intervals over span call positions, the first at offset, so
// the set-up samples spread over the run.
func (s *setupLog) between(offset, span int) func(i int) error {
	return func(i int) error {
		g := offset + i
		if g > 0 && g*s.spec.setups/span > (g-1)*s.spec.setups/span {
			_, err := s.run()
			return err
		}
		return nil
	}
}

// bench sets the workload up and measures a fixed sequence of calls:
// untraced, in `passes` passes that must each reproduce the first
// pass's outcome call for call; traced, in one pass that executes every
// call untraced and traced back to back. It then assembles the metrics.
func bench(spec workloadSpec, opts options) (*result, error) {
	sl := &setupLog{spec: spec, seed: opts.seed}
	w, err := sl.run()
	if err != nil {
		return nil, err
	}
	rounds := int(math.Max(1, math.Round(float64(opts.seconds)*spec.roundsPerSecond/passes)))
	calls := rounds * w.round()
	if opts.trace {
		return benchTraced(spec, opts, w, calls, sl)
	}

	var r *record
	var totals []time.Duration // host time of each pass
	execs := make([][]time.Duration, calls)
	for p := 0; p < passes; p++ {
		rp, err := pass(spec.name, w, calls, newMeter(false), sl.between(p*calls, passes*calls))
		if err != nil {
			return nil, err
		}
		totals = append(totals, rp.total)
		for i, d := range rp.callTimes {
			execs[i] = append(execs[i], d)
		}
		if r == nil {
			r = rp
			continue
		}
		if err := sameOutcome(fmt.Sprintf("pass %d", p+1), r, rp); err != nil {
			r.fail(err)
		}
	}
	var busy time.Duration // sum of per-call fastest times
	for i, ds := range execs {
		r.callTimes[i] = slices.Min(ds)
		busy += r.callTimes[i]
	}
	callMs := sortedMs(r.callTimes)
	lat := sortedInts(r.simLat)
	res := newResult(spec, opts, r, calls, passes, sl)
	res.report.PassS = seconds(totals)
	res.report.CallsS = busy.Seconds()
	res.final.Metrics = map[string]metric{
		"setup_s":          {medianDur(sl.times).Seconds(), "s"},
		"ops_per_s":        {float64(r.completed) / busy.Seconds(), "1/s"},
		"sim_cycles_per_s": {float64(r.simCycles) / busy.Seconds(), "1/s"},
		"call_ms_p50":      {quantile(callMs, 0.5), "ms"},
		"call_ms_tail":     {quantile(callMs, tailQuantile(len(callMs))), "ms"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"sim_latency_mean": {mean(lat), "cycles"},
		"sim_latency_p99":  {quantile(lat, 0.99), "cycles"},
		"delivered_frac":   {float64(r.delivered) / float64(r.owed), "1"},
	}
	return res, nil
}

// benchTraced executes every call twice back to back, untraced and
// traced, alternating which goes first, so the tracing overhead is
// measured under the same host conditions. The traced executions give
// the per-layer metrics and the Chrome trace; both must agree call for
// call on the simulated outcome.
func benchTraced(spec workloadSpec, opts options, w workload, calls int, sl *setupLog) (*result, error) {
	plain, traced := newRecord(), newRecord()
	off, tm := newMeter(false), newMeter(true)
	before := sl.between(0, calls)
	for i := 0; i < calls; i++ {
		if err := before(i); err != nil {
			return nil, err
		}
		if i%2 == 0 {
			execCall(spec.name, w, i, plain, off)
			execCall(spec.name, w, i, traced, tm)
		} else {
			execCall(spec.name, w, i, traced, tm)
			execCall(spec.name, w, i, plain, off)
		}
	}
	if err := sameOutcome("traced execution", plain, traced); err != nil {
		traced.fail(err)
	}
	res := newResult(spec, opts, traced, calls, 1, sl)
	res.final.Metrics = layerMetrics(spec.name, traced, tm, sl.trainMs, plain.callTimes, traced.callTimes)
	if err := os.MkdirAll(opts.traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(opts.traceDir, fmt.Sprintf("%s-seed%d.json", spec.name, opts.seed))
	if err := tm.writeChrome(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	res.report.TraceFile = path
	return res, nil
}

// newResult fills the report and the result line's outcome fields from
// the record of a run's ops.
func newResult(spec workloadSpec, opts options, r *record, calls, passes int, sl *setupLog) *result {
	return &result{
		report: report{
			Workload: spec.name, Seed: opts.seed, Seconds: opts.seconds, Trace: opts.trace,
			Machine: machineContext(), Calls: calls, Passes: passes, Ops: r.attempted, Completed: r.completed,
			CallSamples: len(r.callTimes), CallTailQ: tailQuantile(len(r.callTimes)),
			LatSamples: len(r.simLat), LatTailQ: 0.99, SetupSamples: seconds(sl.times),
			Digest: fmt.Sprintf("%016x", r.digest), Counts: r.counts, Failures: r.failures,
		},
		final: final{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed},
	}
}

// pass makes calls [0, n) of w into a fresh record. before, when set,
// runs ahead of each call, outside all timings.
func pass(name string, w workload, n int, m *meter, before func(i int) error) (*record, error) {
	r := newRecord()
	for i := 0; i < n; i++ {
		if before != nil {
			if err := before(i); err != nil {
				return nil, err
			}
		}
		execCall(name, w, i, r, m)
	}
	return r, nil
}

// execCall makes call i of w into r, timing it and recording it as the
// root span of op i.
func execCall(name string, w workload, i int, r *record, m *meter) {
	m.op = i
	t0 := time.Now()
	id := m.begin(name + ".op")
	r.startCall()
	w.call(i, r, m)
	r.endCall()
	m.end(id)
	d := time.Since(t0)
	r.callTimes = append(r.callTimes, d)
	r.total += d
}

// sameOutcome compares the call digests of two passes.
func sameOutcome(what string, want, got *record) error {
	for i := range want.callDigest {
		if want.callDigest[i] != got.callDigest[i] {
			return fmt.Errorf("determinism: %s diverged at call %d (digest %016x, want %016x)",
				what, i, got.callDigest[i], want.callDigest[i])
		}
	}
	return nil
}
