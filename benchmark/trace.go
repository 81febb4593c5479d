package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one traced call the benchmark made into a layer. Spans of one
// operation share Workload, Pass and Op; Parent is the span that caused
// this one (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
	Op       int    `json:"op"`
	Call     string `json:"call"` // "layer.call", e.g. "engine.Run"
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer records spans in memory around calls the benchmark itself makes.
// It is used from one goroutine at a time. A nil or disabled tracer costs
// one branch per call, which is how the untraced run stays untraced.
type tracer struct {
	on       bool
	t0       time.Time
	spans    []span
	workload string // scenario the following spans belong to
	pass, op int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(parent int, call string) int {
	if t == nil || !t.on {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Workload: t.workload,
		Pass: t.pass, Op: t.op, Call: call, StartNs: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.spans[id-1].EndNs = int64(time.Since(t.t0))
}

// durationsMs returns the duration of every closed span of the call in the
// scenario, in milliseconds.
func (t *tracer) durationsMs(workload, call string) []float64 {
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Workload == workload && s.Call == call && s.EndNs > 0 {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// callTotal is one row of the traced run's per-call table.
type callTotal struct {
	Workload, Call string
	Count          int
	TotalMs        float64 // summed span time
	SelfMs         float64 // summed span time minus the time of direct child spans
}

// summary totals span time and self time per (scenario, call), in first-seen
// order. A span's self time is its duration minus its direct children's.
func (t *tracer) summary() []callTotal {
	self := make([]int64, len(t.spans))
	for i := range t.spans {
		if s := &t.spans[i]; s.EndNs > 0 {
			self[i] += s.EndNs - s.StartNs
			if s.Parent > 0 {
				self[s.Parent-1] -= s.EndNs - s.StartNs
			}
		}
	}
	index := map[[2]string]int{}
	var out []callTotal
	for i := range t.spans {
		s := &t.spans[i]
		if s.EndNs == 0 {
			continue
		}
		key := [2]string{s.Workload, s.Call}
		j, ok := index[key]
		if !ok {
			j = len(out)
			index[key] = j
			out = append(out, callTotal{Workload: s.Workload, Call: s.Call})
		}
		out[j].Count++
		out[j].TotalMs += float64(s.EndNs-s.StartNs) / 1e6
		out[j].SelfMs += float64(self[i]) / 1e6
	}
	return out
}

// totalMs sums the time of every closed span of the given calls.
func (t *tracer) totalMs(workload string, calls ...string) float64 {
	var sum float64
	for _, c := range calls {
		for _, d := range t.durationsMs(workload, c) {
			sum += d
		}
	}
	return sum
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
