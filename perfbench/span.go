package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the boundary. Spans of one traced run share the workload identifier.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Name     string `json:"name"`   // <module>.<operation>
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the recorder was created
	EndNs    int64  `json:"end_ns"`
}

func (s span) ns() int64 { return s.EndNs - s.StartNs }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced replay runs the very same code. It is
// used from one goroutine; the open-span stack supplies each span's parent.
type recorder struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int // indexes into spans
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, origin: time.Now()}
}

// begin opens a span under the innermost open one and returns its handle.
func (r *recorder) begin(name string) int {
	if r == nil {
		return 0
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Workload: r.workload,
		StartNs: int64(time.Since(r.origin)),
	})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans)
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	i := r.open[len(r.open)-1]
	if r.spans[i].ID != id {
		panic("perfbench: spans closed out of order")
	}
	r.spans[i].EndNs = int64(time.Since(r.origin))
	r.open = r.open[:len(r.open)-1]
}

// in runs fn inside a span and returns the span's duration in seconds (the
// duration is measured even when nothing is recorded).
func (r *recorder) in(name string, fn func()) float64 {
	id := r.begin(name)
	t0 := time.Now()
	fn()
	dt := time.Since(t0)
	r.end(id)
	return dt.Seconds()
}

// selfTimes returns, per span name, the total self time in nanoseconds: each
// span's duration minus the part of its interval that its children cover.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.ns() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total int64
	edge := parent.StartNs
	for _, k := range kids {
		lo, hi := max(k.StartNs, edge), min(k.EndNs, parent.EndNs)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// write stores the spans and their self times as out/trace_<workload>.json.
func (r *recorder) write(path string) error {
	raw, err := json.MarshalIndent(struct {
		Workload string           `json:"workload"`
		SelfNs   map[string]int64 `json:"self_ns"`
		Spans    []span           `json:"spans"`
	}{r.workload, selfTimes(r.spans), r.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
