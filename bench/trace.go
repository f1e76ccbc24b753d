package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one interval at a layer boundary, recorded around a call from
// this package into a module of the repo. Parent indexes the span that
// caused it (-1 for a root); the spans of one cell share a trace id.
type span struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Cell     string `json:"cell,omitempty"`
	Trace    int    `json:"trace"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing, which is how the same walk runs untraced for
// the overhead measurement.
type tracer struct {
	on       bool
	workload string
	epoch    time.Time
	spans    []span
}

func newTracer(workload string, on bool) *tracer {
	return &tracer{on: on, workload: workload, epoch: time.Now()}
}

// begin opens a span and returns its index, or -1 when tracing is off.
func (t *tracer) begin(name, layer, cell string, trace, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Workload: t.workload, Cell: cell,
		Trace: trace, Parent: parent, StartNS: int64(time.Since(t.epoch)),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].EndNS = int64(time.Since(t.epoch))
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children are merged
// first, and children are clipped to the parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, reach), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, ns := range selfTimes(spans) {
		out[spans[i].Name] += float64(ns) / 1e6
	}
	return out
}

func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}
