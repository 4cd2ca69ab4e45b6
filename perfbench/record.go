package main

import (
	"fmt"
	"time"
)

// maxFailures bounds how many failure reasons a record keeps verbatim;
// the rest are only counted.
const maxFailures = 8

// record accumulates one pass over a workload's calls: op outcomes,
// the simulated-outcome metrics, the exact per-layer counts, and a
// digest of everything simulated. Everything but callTimes is a pure
// function of (workload, seed, calls).
type record struct {
	attempted, completed, failed int
	failures                     []string

	simCycles       int64 // Now() advanced, skipped gaps included
	simLat          []int64
	delivered, owed int64

	// counts holds the exact per-layer counts by metric name.
	counts map[string]int64

	// callDigest[i] hashes call i's simulated outcome; digest folds
	// them in call order.
	callDigest []uint64
	cur        uint64
	digest     uint64

	callTimes []time.Duration
	total     time.Duration // sum of call times
}

func newRecord() *record {
	return &record{counts: make(map[string]int64)}
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// mix folds values into the current call's digest (FNV-1a over their
// little-endian bytes).
func (r *record) mix(vs ...int64) {
	h := r.cur
	for _, v := range vs {
		for b := 0; b < 8; b++ {
			h ^= uint64(byte(v >> (8 * b)))
			h *= fnvPrime
		}
	}
	r.cur = h
}

// startCall resets the per-call digest.
func (r *record) startCall() { r.cur = fnvOffset }

// endCall closes the call's digest into the run digest.
func (r *record) endCall() {
	r.callDigest = append(r.callDigest, r.cur)
	r.digest = (r.digest ^ r.cur) * fnvPrime
}

// op records one attempted op. A non-nil err or a false check makes it
// a failed op; latency is its simulated completion latency, or negative
// when the op completes nothing (a shed request).
func (r *record) op(latency int64, delivered, owed int, err error) {
	r.attempted++
	r.delivered += int64(delivered)
	r.owed += int64(owed)
	if err != nil {
		r.fail(err)
		return
	}
	if latency >= 0 {
		r.completed++
		r.simLat = append(r.simLat, latency)
	}
	r.mix(latency, int64(delivered), int64(owed))
}

func (r *record) fail(err error) {
	r.failed++
	msg := err.Error()
	for i := 0; i < len(msg); i++ {
		r.cur = (r.cur ^ uint64(msg[i])) * fnvPrime
	}
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, err.Error())
	}
}

// add bumps an exact per-layer count and folds it into the digest.
func (r *record) add(name string, v int64) {
	r.counts[name] += v
	r.mix(v)
}

// checkf builds an output-check failure.
func checkf(format string, args ...any) error {
	return fmt.Errorf("check: "+format, args...)
}
