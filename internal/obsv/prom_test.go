package obsv

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"sti/internal/obsv/promtest"
)

// validateExposition runs the shared strict checker (promtest.Validate) and
// fails the test on any malformation, returning the parsed sample names.
func validateExposition(t *testing.T, text string) map[string]bool {
	t.Helper()
	series, err := promtest.Validate(text)
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, text)
	}
	return series
}

func TestWriteMetricsValidExposition(t *testing.T) {
	o := New(Config{})
	for i := 0; i < 50; i++ {
		r := o.Start(OpQuery, "edge")
		r.Finish(OutOK, nil)
	}
	o.Start(OpApply, "").Finish(OutIncremental, nil)
	o.Start(OpApply, "").Finish(OutFallback, nil)
	o.Start(OpScan, "path").Finish(OutError, nil)
	o.CountHTTP("/query", 200)
	o.CountHTTP("/apply", 400)
	fams := []Family{
		{Name: "sti_db_epoch", Type: "gauge", Help: "Epoch.", Value: 3},
		{Name: "sti_relation_tuples", Type: "gauge", Help: "Sizes.", Label: "rel",
			Values: map[string]float64{"path": 3, "edge": 2}},
		{Name: "sti_apply_fallbacks_total", Type: "counter", Help: "Fallbacks.", Label: "reason",
			Values: map[string]float64{`needs "quoting"` + "\nand newlines\\": 1}},
	}

	var buf bytes.Buffer
	if err := o.WriteMetrics(&buf, fams...); err != nil {
		t.Fatal(err)
	}
	series := validateExposition(t, buf.String())
	for _, want := range []string{
		"sti_requests_total", "sti_request_duration_seconds_bucket",
		"sti_request_duration_seconds_sum", "sti_request_duration_seconds_count",
		"sti_slow_requests_total", "sti_requests_in_flight", "sti_http_requests_total",
		"sti_db_epoch", "sti_relation_tuples", "sti_apply_fallbacks_total",
		"sti_goroutines", "sti_heap_alloc_bytes", "sti_gc_cycles_total",
		"sti_gc_pause_seconds_total", "sti_uptime_seconds",
	} {
		if !series[want] {
			t.Fatalf("exposition missing series %s:\n%s", want, buf.String())
		}
	}
	// Outcome labels must be present on the request counters.
	text := buf.String()
	for _, want := range []string{
		`sti_requests_total{op="query",outcome="ok"} 50`,
		`sti_requests_total{op="apply",outcome="incremental"} 1`,
		`sti_requests_total{op="apply",outcome="fallback"} 1`,
		`sti_requests_total{op="scan",outcome="error"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %s:\n%s", want, text)
		}
	}
	// Escaped label values survive round-tripping.
	if !strings.Contains(text, `reason="needs \"quoting\"\nand newlines\\"`) {
		t.Fatalf("label escaping broken:\n%s", text)
	}
	// The caller's families print in the order given, between the HTTP and
	// runtime sections, with labeled samples in sorted label order.
	last := -1
	for _, want := range []string{
		"sti_http_requests_total{", "sti_db_epoch 3",
		`sti_relation_tuples{rel="edge"} 2`, `sti_relation_tuples{rel="path"} 3`,
		"sti_apply_fallbacks_total{", "sti_goroutines ",
	} {
		i := strings.Index(text, want)
		if i <= last {
			t.Fatalf("%s is missing or out of order:\n%s", want, text)
		}
		last = i
	}
}

func TestHistogramExpositionCumulative(t *testing.T) {
	o := New(Config{})
	durations := []time.Duration{time.Microsecond, 10 * time.Microsecond,
		100 * time.Microsecond, time.Millisecond, time.Millisecond, 10 * time.Millisecond}
	for _, d := range durations {
		h := &o.hist[OpQuery][OutOK]
		h.sumNs.Add(d.Nanoseconds())
		h.buckets[bucketOf(d)].Add(1)
	}
	var buf bytes.Buffer
	if err := o.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	validateExposition(t, buf.String())
	want := fmt.Sprintf(`sti_request_duration_seconds_count{op="query",outcome="ok"} %d`, len(durations))
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("missing %s:\n%s", want, buf.String())
	}
}
