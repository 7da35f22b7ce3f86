package obsv

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Family is one caller-supplied metric family, rendered by WriteMetrics
// between the HTTP and runtime sections. Type is "counter" or "gauge". A
// family without a Label is a scalar with the one sample Value; a labeled
// family has one sample per Values key, printed in sorted key order.
type Family struct {
	Name, Type, Help string
	Label            string
	Value            float64
	Values           map[string]float64
}

// WriteMetrics renders the observer's counters in the Prometheus text
// exposition format (version 0.0.4): request counters and latency
// histograms labeled by operation and outcome, slow/in-flight/HTTP
// counters, the caller's families in the order given, and runtime-sampler
// gauges (goroutines, heap, GC). A nil observer writes nothing.
//
// The format is hand-rolled on purpose: the repo is dependency-free, and
// the subset we need — HELP/TYPE comments, label escaping, histogram
// _bucket/_sum/_count series with cumulative le bounds — is small. The
// exposition-format validity test in prom_test.go keeps it honest.
func (o *Observer) WriteMetrics(w io.Writer, fams ...Family) error {
	if o == nil {
		return nil
	}
	b := &strings.Builder{}

	// Request counters and latency histograms per (op, outcome).
	writeHeader(b, "sti_requests_total", "counter", "Database requests by operation and outcome.")
	for op := Op(0); op < numOps; op++ {
		for out := Outcome(0); out < numOutcomes; out++ {
			h := &o.hist[op][out]
			count := h.Count()
			if count == 0 {
				continue
			}
			fmt.Fprintf(b, "sti_requests_total{op=%q,outcome=%q} %d\n", op, out, count)
		}
	}
	writeHeader(b, "sti_request_duration_seconds", "histogram", "Database request latency by operation and outcome.")
	for op := Op(0); op < numOps; op++ {
		for out := Outcome(0); out < numOutcomes; out++ {
			writeHistogram(b, "sti_request_duration_seconds",
				fmt.Sprintf("op=%q,outcome=%q", op, out), &o.hist[op][out])
		}
	}

	writeHeader(b, "sti_slow_requests_total", "counter", "Requests that crossed the slow-request threshold.")
	fmt.Fprintf(b, "sti_slow_requests_total %d\n", o.slow.Load())
	writeHeader(b, "sti_requests_in_flight", "gauge", "Instrumented requests currently executing.")
	fmt.Fprintf(b, "sti_requests_in_flight %d\n", o.inflight.Load())

	if http := o.httpCounts(); len(http) > 0 {
		writeHeader(b, "sti_http_requests_total", "counter", "HTTP requests served, by handler and status code.")
		for _, c := range http {
			fmt.Fprintf(b, "sti_http_requests_total{handler=%s,code=\"%d\"} %d\n",
				quoteLabel(c.handler), c.code, c.n)
		}
	}

	for _, f := range fams {
		writeHeader(b, f.Name, f.Type, f.Help)
		if f.Label == "" {
			fmt.Fprintf(b, "%s %s\n", f.Name, formatFloat(f.Value))
			continue
		}
		keys := make([]string, 0, len(f.Values))
		for k := range f.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, "%s{%s=%s} %s\n", f.Name, f.Label, quoteLabel(k), formatFloat(f.Values[k]))
		}
	}

	// Runtime sampler: process-level gauges read at scrape time.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writeHeader(b, "sti_goroutines", "gauge", "Number of live goroutines.")
	fmt.Fprintf(b, "sti_goroutines %d\n", runtime.NumGoroutine())
	writeHeader(b, "sti_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.")
	fmt.Fprintf(b, "sti_heap_alloc_bytes %d\n", ms.HeapAlloc)
	writeHeader(b, "sti_heap_objects", "gauge", "Number of allocated heap objects.")
	fmt.Fprintf(b, "sti_heap_objects %d\n", ms.HeapObjects)
	writeHeader(b, "sti_gc_cycles_total", "counter", "Completed GC cycles.")
	fmt.Fprintf(b, "sti_gc_cycles_total %d\n", ms.NumGC)
	writeHeader(b, "sti_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.")
	fmt.Fprintf(b, "sti_gc_pause_seconds_total %s\n", formatFloat(float64(ms.PauseTotalNs)/1e9))
	writeHeader(b, "sti_uptime_seconds", "gauge", "Seconds since the observer was created.")
	fmt.Fprintf(b, "sti_uptime_seconds %s\n", formatFloat(time.Since(o.start).Seconds()))

	_, err := io.WriteString(w, b.String())
	return err
}

func writeHeader(b *strings.Builder, name, typ, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeHistogram renders one histogram as cumulative _bucket series plus
// _sum and _count, with le bounds in seconds. Empty histograms are skipped
// entirely so idle (op, outcome) pairs do not pollute the exposition.
func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	count, sumNs, buckets := h.snapshot()
	if count == 0 {
		return
	}
	var cum uint64
	for i, n := range buckets {
		cum += n
		if n == 0 && i < NumBuckets-1 {
			// Only emit buckets that change the cumulative count, plus the
			// mandatory +Inf bound; scrapes stay compact.
			continue
		}
		le := "+Inf"
		if bound := BucketBoundNs(i); bound >= 0 {
			le = formatFloat(float64(bound+1) / 1e9)
		}
		fmt.Fprintf(b, "%s_bucket{%s,le=%q} %d\n", name, labels, le, cum)
	}
	fmt.Fprintf(b, "%s_sum{%s} %s\n", name, labels, formatFloat(float64(sumNs)/1e9))
	fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, count)
}

// quoteLabel escapes a label value per the exposition format: backslash,
// double-quote, and newline are escaped inside double quotes.
func quoteLabel(v string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// formatFloat renders a sample value the way Prometheus expects: shortest
// round-trip representation, integers without an exponent.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
