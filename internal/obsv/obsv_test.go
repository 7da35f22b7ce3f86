package obsv

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// All Observer methods must be inert on a nil receiver: the disabled path is
// a nil check and nothing else.
func TestNilObserverInert(t *testing.T) {
	var o *Observer
	r := o.Start(OpQuery, "edge")
	if d := r.Finish(OutOK, nil); d != 0 {
		t.Fatalf("inert finish measured %v", d)
	}
	if id := r.ID(); id != "" {
		t.Fatalf("inert request has ID %q", id)
	}
	if o.NextID() != "" {
		t.Fatal("nil observer minted an ID")
	}
	o.CountHTTP("/query", 200)
	if o.Stats() != nil {
		t.Fatal("nil observer produced stats")
	}
	var buf bytes.Buffer
	if err := o.WriteMetrics(&buf, Family{Name: "x", Type: "gauge", Help: "h", Value: 1}); err != nil || buf.Len() != 0 {
		t.Fatalf("nil observer wrote %q (%v)", buf.String(), err)
	}
	if o.Logger() != nil {
		t.Fatal("nil observer has configuration")
	}
}

// The disabled and enabled fast paths must not allocate: Start/Finish are
// value plumbing over atomics.
func TestStartFinishZeroAlloc(t *testing.T) {
	var nilObs *Observer
	if n := testing.AllocsPerRun(200, func() {
		r := nilObs.Start(OpQuery, "edge")
		r.Finish(OutOK, nil)
	}); n != 0 {
		t.Fatalf("disabled Start/Finish allocates %.1f per op", n)
	}
	o := New(Config{}) // enabled, no logger, no slow threshold
	if n := testing.AllocsPerRun(200, func() {
		r := o.Start(OpApply, "")
		r.Finish(OutIncremental, nil)
	}); n != 0 {
		t.Fatalf("enabled Start/Finish allocates %.1f per op", n)
	}
	// Even with a slow threshold configured, requests under it stay
	// allocation-free — attribute building happens after the check.
	o2 := New(Config{SlowRequest: time.Hour, Logger: slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil))})
	if n := testing.AllocsPerRun(200, func() {
		r := o2.Start(OpQuery, "edge")
		r.Finish(OutMiss, nil)
	}); n != 0 {
		t.Fatalf("fast requests under a slow threshold allocate %.1f per op", n)
	}
}

func TestRequestIDsUnique(t *testing.T) {
	o := New(Config{})
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		r := o.Start(OpQuery, "")
		id := r.ID()
		if seen[id] {
			t.Fatalf("duplicate request ID %s", id)
		}
		seen[id] = true
		r.Finish(OutOK, nil)
	}
	if id := o.NextID(); seen[id] {
		t.Fatalf("NextID reused %s", id)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{0, time.Nanosecond, 100 * time.Nanosecond,
		time.Microsecond, time.Millisecond, time.Second, 2 * time.Minute} {
		h.Observe(d)
	}
	v := h.View()
	if v.Count != 7 {
		t.Fatalf("count = %d", v.Count)
	}
	var total uint64
	last := int64(-2)
	for _, b := range v.Buckets {
		total += b.Count
		if b.LeNs >= 0 && b.LeNs <= last {
			t.Fatalf("bucket bounds not increasing: %v", v.Buckets)
		}
		last = b.LeNs
	}
	if total != v.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, v.Count)
	}
	// 2 minutes lands past every finite bound: the last bucket is unbounded.
	if v.Buckets[len(v.Buckets)-1].LeNs != -1 {
		t.Fatalf("missing unbounded bucket: %v", v.Buckets)
	}
	if v.P50Ns <= 0 || v.P99Ns < v.P50Ns {
		t.Fatalf("quantiles p50=%d p99=%d", v.P50Ns, v.P99Ns)
	}
}

// A slow request emits exactly one structured record carrying the request
// ID, operation, duration, and the profiler's engine attributes.
func TestSlowRequestLog(t *testing.T) {
	var buf bytes.Buffer
	o := New(Config{
		Logger:      slog.New(slog.NewJSONHandler(&buf, nil)),
		SlowRequest: time.Nanosecond,
	})
	r := o.Start(OpApply, "")
	time.Sleep(50 * time.Microsecond)
	r.Finish(OutFallback, profiler{})

	dec := json.NewDecoder(&buf)
	var rec map[string]any
	if err := dec.Decode(&rec); err != nil {
		t.Fatalf("slow log is not one JSON record: %v (buf %q)", err, buf.String())
	}
	if rec["msg"] != "slow request" || rec["level"] != "WARN" {
		t.Fatalf("record = %v", rec)
	}
	if rec["request"] != r.ID() {
		t.Fatalf("record carries request %v, want %s", rec["request"], r.ID())
	}
	if rec["op"] != "apply" || rec["outcome"] != "fallback" {
		t.Fatalf("record = %v", rec)
	}
	eng, ok := rec["engine"].(map[string]any)
	if !ok || eng["epoch"] != float64(7) {
		t.Fatalf("engine profile missing from record: %v", rec)
	}
	if dec.More() {
		t.Fatal("slow request emitted more than one record")
	}
	if o.Stats().Slow != 1 {
		t.Fatalf("slow counter = %d", o.Stats().Slow)
	}
}

type profiler struct{}

func (profiler) SlowAttrs() []slog.Attr {
	return []slog.Attr{slog.Uint64("epoch", 7), slog.Int("relations", 3)}
}

// Concurrent recording from many goroutines must be race-free (run under
// -race) and lose no observations.
func TestConcurrentObserve(t *testing.T) {
	o := New(Config{})
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r := o.Start(OpQuery, "edge")
				r.Finish(OutOK, nil)
				o.CountHTTP("/query", 200)
			}
		}()
	}
	wg.Wait()
	s := o.Stats()
	if len(s.Series) != 1 || s.Series[0].Count != workers*perWorker {
		t.Fatalf("stats = %+v", s)
	}
	if s.InFlight != 0 {
		t.Fatalf("in-flight = %d after all requests finished", s.InFlight)
	}
	if got := o.httpCounts(); len(got) != 1 || got[0].n != workers*perWorker {
		t.Fatalf("http counts = %+v", got)
	}
}

func TestStatsSnapshotJSON(t *testing.T) {
	o := New(Config{})
	o.Start(OpQuery, "e").Finish(OutOK, nil)
	o.Start(OpApply, "").Finish(OutIncremental, nil)
	enc, err := json.Marshal(o.Stats())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"op":"query"`, `"outcome":"incremental"`, `"count":1`, `"buckets"`} {
		if !strings.Contains(string(enc), want) {
			t.Fatalf("snapshot JSON missing %s: %s", want, enc)
		}
	}
}
