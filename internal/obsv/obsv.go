// Package obsv is the request-scoped observability layer of the resident
// engine: every public database operation (Apply, Query, Scan) is wrapped in
// a request carrying a unique ID, its latency lands in a log-bucketed
// histogram partitioned by operation and outcome, and requests crossing a
// configurable threshold emit one structured slog record with the request's
// identity and the engine profile at that moment.
//
// The layer follows the same discipline as internal/metrics: everything is
// opt-in, all methods are safe on a nil *Observer and do nothing, and the
// disabled path adds zero allocations to the hot operations (a nil check and
// nothing else — guaranteed by AllocsPerRun tests). The enabled fast path is
// allocation-free too: requests are value types, histograms are fixed atomic
// arrays, and slow-log attributes are built only after the threshold check
// fails.
//
// Exposure happens three ways, all fed from the same counters:
//
//   - WriteMetrics renders the Prometheus text exposition format (prom.go):
//     request counters and latency histogram series, slow/in-flight/HTTP
//     counters, the caller's metric families (the database-level series
//     sti.Database builds from one DBStats), and runtime-sampler gauges.
//   - Stats snapshots the histograms into a JSON-friendly form that
//     sti.DBStats embeds, keeping the expvar sti.db blob truthful.
//   - The slow-request log and per-request debug records go to the
//     configured *slog.Logger.
package obsv

import (
	"context"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Op is the instrumented database operation.
type Op uint8

// Instrumented operations.
const (
	OpQuery Op = iota
	OpApply
	OpScan
	numOps
)

func (o Op) String() string {
	switch o {
	case OpQuery:
		return "query"
	case OpApply:
		return "apply"
	case OpScan:
		return "scan"
	}
	return "unknown"
}

// Outcome classifies how an instrumented operation ended.
type Outcome uint8

// Request outcomes. Queries distinguish hits from misses; applies
// distinguish the incremental paths from the recompute fallback.
const (
	OutOK                Outcome = iota // operation succeeded (query: ≥1 row)
	OutMiss                             // query succeeded with zero rows
	OutError                            // operation failed
	OutIncremental                      // apply absorbed through the update program
	OutIncrementalDelete                // apply absorbed through update + delete programs
	OutFallback                         // apply recomputed from scratch
	numOutcomes
)

func (o Outcome) String() string {
	switch o {
	case OutOK:
		return "ok"
	case OutMiss:
		return "miss"
	case OutError:
		return "error"
	case OutIncremental:
		return "incremental"
	case OutIncrementalDelete:
		return "incremental_delete"
	case OutFallback:
		return "fallback"
	}
	return "unknown"
}

// SlowProfiler supplies the engine profile attached to a slow-request log
// record. It is only invoked after the threshold check fails, so building
// the attributes costs nothing on the fast path. sti.Database implements it.
type SlowProfiler interface {
	SlowAttrs() []slog.Attr
}

// Config parameterizes an Observer.
type Config struct {
	// Logger receives the slow-request records (and is handed to callers for
	// their own structured logging). nil disables logging but keeps all
	// counters live.
	Logger *slog.Logger
	// SlowRequest is the latency threshold beyond which a request emits one
	// structured log record with the engine profile. <= 0 disables the slow
	// log.
	SlowRequest time.Duration
}

// Observer is the per-database observability hub. A nil *Observer disables
// everything: all methods are nil-safe no-ops.
type Observer struct {
	logger *slog.Logger
	slowNs int64
	start  time.Time

	seq      atomic.Uint64
	inflight atomic.Int64
	slow     atomic.Uint64

	hist [numOps][numOutcomes]Histogram

	// mu guards the open-ended label maps (HTTP traffic by handler/code).
	// These are off the engine's hot path — one short critical section per
	// HTTP request.
	mu   sync.Mutex
	http map[httpKey]uint64
}

type httpKey struct {
	handler string
	code    int
}

// New creates an observer.
func New(cfg Config) *Observer {
	return &Observer{
		logger: cfg.Logger,
		slowNs: cfg.SlowRequest.Nanoseconds(),
		start:  time.Now(),
	}
}

// Logger returns the configured structured logger (nil when none).
func (o *Observer) Logger() *slog.Logger {
	if o == nil {
		return nil
	}
	return o.logger
}

// Req is one in-flight instrumented request. It is a value type: starting
// and finishing a request allocates nothing. The zero Req (from a nil
// Observer) is inert.
type Req struct {
	o      *Observer
	id     uint64
	op     Op
	detail string
	t0     time.Time
}

// Start opens a request of the given operation. detail names the specific
// target (the relation for queries/scans, empty for applies); it rides into
// the slow log without allocating.
func (o *Observer) Start(op Op, detail string) Req {
	if o == nil {
		return Req{}
	}
	o.inflight.Add(1)
	return Req{o: o, id: o.seq.Add(1), op: op, detail: detail, t0: time.Now()}
}

// NextID mints a request ID without opening a tracked request — the HTTP
// layer uses it to tag requests that fan out into several database calls.
func (o *Observer) NextID() string {
	if o == nil {
		return ""
	}
	return "r" + strconv.FormatUint(o.seq.Add(1), 10)
}

// ID renders the request's identity ("" for an inert request). It allocates,
// so it is only called when a slow-request record needs the string.
func (r Req) ID() string {
	if r.o == nil {
		return ""
	}
	return "r" + strconv.FormatUint(r.id, 10)
}

// Finish closes the request: the latency lands in the (op, outcome)
// histogram, and if it crossed the slow threshold one structured record is
// emitted with the request identity plus the profiler's engine attributes.
// It returns the measured duration (0 for inert requests).
func (r Req) Finish(out Outcome, prof SlowProfiler) time.Duration {
	o := r.o
	if o == nil {
		return 0
	}
	d := time.Since(r.t0)
	o.inflight.Add(-1)
	if out >= numOutcomes {
		out = OutError
	}
	o.hist[r.op][out].Observe(d)
	if o.slowNs > 0 && d.Nanoseconds() >= o.slowNs {
		o.slow.Add(1)
		if o.logger != nil {
			attrs := []slog.Attr{
				slog.String("request", r.ID()),
				slog.String("op", r.op.String()),
				slog.String("outcome", out.String()),
				slog.Duration("duration", d),
			}
			if r.detail != "" {
				attrs = append(attrs, slog.String("detail", r.detail))
			}
			if prof != nil {
				attrs = append(attrs, slog.Group("engine", attrsToAny(prof.SlowAttrs())...))
			}
			o.logger.LogAttrs(context.Background(), slog.LevelWarn, "slow request", attrs...)
		}
	}
	return d
}

func attrsToAny(attrs []slog.Attr) []any {
	out := make([]any, len(attrs))
	for i, a := range attrs {
		out[i] = a
	}
	return out
}

// CountHTTP records one served HTTP request by handler pattern and status
// code, for the sti_http_requests_total exposition series.
func (o *Observer) CountHTTP(handler string, code int) {
	if o == nil {
		return
	}
	o.mu.Lock()
	if o.http == nil {
		o.http = map[httpKey]uint64{}
	}
	o.http[httpKey{handler, code}]++
	o.mu.Unlock()
}

// --- snapshots ---

// SeriesSnap is one (operation, outcome) latency series in a snapshot.
type SeriesSnap struct {
	Op      string `json:"op"`
	Outcome string `json:"outcome"`
	HistView
}

// Snapshot is the JSON-friendly view of the request-level counters,
// embedded into sti.DBStats so the expvar blob carries the same truth as
// the Prometheus endpoint.
type Snapshot struct {
	Series   []SeriesSnap `json:"series,omitempty"`
	Slow     uint64       `json:"slow_requests,omitempty"`
	InFlight int64        `json:"in_flight,omitempty"`
}

// Stats snapshots every non-empty latency series (nil on a nil observer, so
// the field marshals away).
func (o *Observer) Stats() *Snapshot {
	if o == nil {
		return nil
	}
	s := &Snapshot{Slow: o.slow.Load(), InFlight: o.inflight.Load()}
	for op := Op(0); op < numOps; op++ {
		for out := Outcome(0); out < numOutcomes; out++ {
			v := o.hist[op][out].View()
			if v.Count == 0 {
				continue
			}
			s.Series = append(s.Series, SeriesSnap{Op: op.String(), Outcome: out.String(), HistView: v})
		}
	}
	return s
}

// httpCounts returns the HTTP traffic counters in deterministic order.
func (o *Observer) httpCounts() []httpCount {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]httpCount, 0, len(o.http))
	for k, n := range o.http {
		out = append(out, httpCount{k.handler, k.code, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].handler != out[j].handler {
			return out[i].handler < out[j].handler
		}
		return out[i].code < out[j].code
	})
	return out
}

type httpCount struct {
	handler string
	code    int
	n       uint64
}
