package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Parent is the index of the enclosing span, -1 for
// an op's root span.
type span struct {
	Name       string
	Start, End time.Duration // since the meter's epoch
	Parent     int
	Op         int
}

// meter records spans around layer calls when tracing is on, and does
// nothing but return when it is off, so the untraced run measures the
// program rather than the meter.
type meter struct {
	on    bool
	epoch time.Time
	op    int
	spans []span
	open  []int // stack of open span indices
}

func newMeter(on bool) *meter {
	return &meter{on: on, epoch: time.Now()}
}

// begin opens a span named after the layer call it wraps and returns
// its handle for end; with tracing off it returns -1 at no cost.
func (m *meter) begin(name string) int {
	if !m.on {
		return -1
	}
	parent := -1
	if n := len(m.open); n > 0 {
		parent = m.open[n-1]
	}
	m.spans = append(m.spans, span{Name: name, Start: time.Since(m.epoch), Parent: parent, Op: m.op})
	id := len(m.spans) - 1
	m.open = append(m.open, id)
	return id
}

// end closes the span begin returned. Spans close in LIFO order.
func (m *meter) end(id int) {
	if id < 0 {
		return
	}
	m.spans[id].End = time.Since(m.epoch)
	m.open = m.open[:len(m.open)-1]
}

// layerTimes sums, per span name, the total and self time (duration
// minus the part covered by direct children) and the call count.
type layerTime struct {
	Total, Self time.Duration
	Calls       int
}

func (m *meter) layerTimes() map[string]*layerTime {
	out := make(map[string]*layerTime)
	child := make([]time.Duration, len(m.spans))
	for _, s := range m.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range m.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Total += d
		lt.Self += d - child[i]
		lt.Calls++
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), loadable in chrome://tracing or
// Perfetto.
func (m *meter) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if _, err := w.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, s := range m.spans {
		if i > 0 {
			if _, err := w.WriteString(","); err != nil {
				return err
			}
		}
		us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
		ev := event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: 1,
			Args: map[string]int{"op": s.Op, "parent": s.Parent}}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
