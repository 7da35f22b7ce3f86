package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// A nil collector must absorb every call without panicking — that is the
// whole zero-cost-when-disabled contract.
func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	c.EnableTrace(10)
	if rs := c.BindRelation(0, "r", "btree", 2, false, 0, []string{"[0 1]"}); rs != nil {
		t.Fatal("nil collector returned relation stats")
	}
	f := c.StartFixpoint("loop")
	if f != nil {
		t.Fatal("nil collector returned fixpoint stats")
	}
	c.EndFixpoint(f)
	c.RecordParallelScan([]uint64{1}, []uint64{1}, time.Millisecond)
	if !c.Begin().IsZero() {
		t.Fatal("nil collector returned a live span start")
	}
	c.End(time.Time{}, "cat", "name")
	c.Instant("cat", "name", nil)
	c.Finish()
	if c.Report() != nil {
		t.Fatal("nil collector produced a report")
	}
}

func TestRelationStatsCounting(t *testing.T) {
	c := New()
	rs := c.BindRelation(3, "path", "btree", 2, false, 3, []string{"[0 1]", "[1 0]"})
	if len(rs.Ops) != 2 {
		t.Fatalf("got %d index counter blocks, want 2", len(rs.Ops))
	}
	rs.CountInsert(true)
	rs.CountInsert(true)
	rs.CountInsert(false)
	rs.CountBulk(10, 7)
	if rs.Inserts != 9 || rs.DedupHits != 4 {
		t.Fatalf("inserts=%d dedup=%d, want 9 and 4", rs.Inserts, rs.DedupHits)
	}
}

func TestFixpointCurve(t *testing.T) {
	c := New()
	f := c.StartFixpoint("stratum 1 (path)")
	f.RecordIteration([]string{"path"}, []uint64{5})
	f.RecordIteration([]string{"path"}, []uint64{3})
	f.RecordIteration([]string{"path"}, []uint64{0})
	c.EndFixpoint(f)
	if f.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3", f.Iterations)
	}
	want := []uint64{5, 3, 0}
	for i, v := range want {
		if f.DeltaCurve[i] != v {
			t.Fatalf("delta curve = %v, want %v", f.DeltaCurve, want)
		}
	}
	if got := f.RelationCurves["path"]; len(got) != 3 || got[0] != 5 {
		t.Fatalf("relation curve = %v", got)
	}
}

func TestParallelSkew(t *testing.T) {
	c := New()
	// Worker 0 scans 30 of 40 tuples: skew = 30 / (40/4) = 3.
	c.RecordParallelScan([]uint64{30, 5, 5, 0}, []uint64{3, 1, 1, 0}, time.Millisecond)
	r := c.Report()
	if r.Parallel == nil {
		t.Fatal("no parallel stats recorded")
	}
	if r.Parallel.Scans != 1 || r.Parallel.Partitions != 4 {
		t.Fatalf("scans=%d partitions=%d", r.Parallel.Scans, r.Parallel.Partitions)
	}
	if r.Parallel.MaxSkew != 3.0 {
		t.Fatalf("max skew = %v, want 3.0", r.Parallel.MaxSkew)
	}
	if len(r.Parallel.Workers) != 4 || r.Parallel.Workers[0].Scanned != 30 {
		t.Fatalf("worker stats = %+v", r.Parallel.Workers)
	}
}

func TestReportRepAggregation(t *testing.T) {
	c := New()
	bt := c.BindRelation(0, "a", "btree", 2, false, 0, []string{"[0 1]"})
	bt.CountBulk(5, 5)
	bt.FinalSize = 5
	bt2 := c.BindRelation(1, "b", "btree", 1, false, 1, []string{"[0]"})
	bt2.CountBulk(4, 2)
	bt2.FinalSize = 2
	eq := c.BindRelation(2, "c", "eqrel", 2, false, 2, []string{"[0 1]"})
	eq.CountInsert(true)
	eq.FinalSize = 1
	c.Finish()

	r := c.Report()
	if len(r.Reps) != 2 {
		t.Fatalf("got %d rep groups, want 2 (btree, eqrel)", len(r.Reps))
	}
	// Sorted by rep name.
	if r.Reps[0].Rep != "btree" || r.Reps[1].Rep != "eqrel" {
		t.Fatalf("rep order = %s, %s", r.Reps[0].Rep, r.Reps[1].Rep)
	}
	if r.Reps[0].Relations != 2 || r.Reps[0].Tuples != 7 || r.Reps[0].Inserts != 7 || r.Reps[0].DedupHits != 2 {
		t.Fatalf("btree aggregate = %+v", r.Reps[0])
	}
	// The report must round-trip through JSON without the atomic Ops blocks.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
	if strings.Contains(buf.String(), "Ops") {
		t.Fatal("atomic counter blocks leaked into the JSON report")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	c := New()
	c.EnableTrace(0)
	start := c.Begin()
	if start.IsZero() {
		t.Fatal("Begin returned zero time with tracing on")
	}
	c.End(start, "fixpoint", "stratum 1")
	c.EndArgs(c.Begin(), "query", "path(x,z)", map[string]any{"iterations": 3})
	c.Instant("io", "load edge", nil)

	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Cat != "fixpoint" {
		t.Fatalf("first event = %+v", doc.TraceEvents[0])
	}
	if doc.TraceEvents[2].Ph != "i" {
		t.Fatalf("instant event ph = %q, want i", doc.TraceEvents[2].Ph)
	}
}

func TestTraceCap(t *testing.T) {
	c := New()
	c.EnableTrace(4)
	for i := 0; i < 10; i++ {
		c.End(c.Begin(), "query", "q")
	}
	kept, dropped := c.TraceEventCount()
	if kept != 4 || dropped != 6 {
		t.Fatalf("kept=%d dropped=%d, want 4 and 6", kept, dropped)
	}
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"droppedEvents": 6`) && !strings.Contains(buf.String(), `"droppedEvents":6`) {
		t.Fatalf("dropped count missing from trace: %s", buf.String())
	}
}

// An empty trace must still serialize traceEvents as [], not null —
// Perfetto rejects null.
func TestTraceEmpty(t *testing.T) {
	c := New()
	c.EnableTrace(0)
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents": []`) && !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Fatalf("empty trace serialized badly: %s", buf.String())
	}
}

func TestReportString(t *testing.T) {
	c := New()
	rs := c.BindRelation(0, "path", "btree", 2, false, 0, []string{"[0 1]"})
	rs.CountBulk(12, 10)
	rs.FinalSize = 10
	rs.PeakDelta = 4
	f := c.StartFixpoint("stratum 0 (path)")
	f.RecordIteration([]string{"path"}, []uint64{4})
	f.RecordIteration([]string{"path"}, []uint64{0})
	c.EndFixpoint(f)
	c.Finish()
	s := c.Report().String()
	for _, want := range []string{"stratum 0 (path)", "2 iterations", "delta curve: 4 0", "path", "dup 2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report summary missing %q:\n%s", want, s)
		}
	}
}

func TestCurveStringElision(t *testing.T) {
	long := make([]uint64, 40)
	for i := range long {
		long[i] = uint64(i)
	}
	s := curveString(long)
	if !strings.Contains(s, "(24 more)") {
		t.Fatalf("long curve not elided: %s", s)
	}
	if short := curveString([]uint64{1, 2, 3}); short != "1 2 3" {
		t.Fatalf("short curve = %q", short)
	}
}
