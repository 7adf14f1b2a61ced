package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark
// around the layer's public functions. Spans of one repetition share a
// trace id; Parent is the id of the enclosing span, 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is used from
// one goroutine at a time.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span ids
	trace int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// nextTrace starts a new repetition.
func (r *recorder) nextTrace() { r.trace++ }

// begin opens a span under the innermost open span and returns its id.
func (r *recorder) begin(name string) int {
	id := len(r.spans) + 1
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: r.trace, Name: name})
	r.open = append(r.open, id)
	r.spans[id-1].StartNs = time.Since(r.epoch).Nanoseconds()
	return id
}

// end closes the innermost open span, which must be id, and returns its
// duration.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.epoch).Nanoseconds()
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic("jsperf: spans closed out of order")
	}
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[id-1]
	s.EndNs = now
	return time.Duration(s.EndNs - s.StartNs)
}

// add records a span whose interval was measured elsewhere (a request
// timed by the HTTP client), under the innermost open span.
func (r *recorder) add(name string, start time.Time, d time.Duration) {
	id := r.begin(name)
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[id-1]
	s.StartNs = start.Sub(r.epoch).Nanoseconds()
	s.EndNs = s.StartNs + d.Nanoseconds()
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (children are clipped to the
// parent and overlapping children are counted once).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = time.Duration(s.EndNs - s.StartNs - covered)
	}
	return self
}

// write stores the spans as one JSON document.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
