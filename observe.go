package sti

import (
	"errors"
	"io"
	"log/slog"
	"time"

	"sti/internal/interp"
	"sti/internal/obsv"
)

// ObservabilityConfig enables the request-scoped observability layer of a
// resident database: every Apply/Query/Scan is assigned a request ID, its
// latency lands in log-bucketed histograms partitioned by operation and
// outcome, and requests crossing SlowRequest emit one structured log record
// carrying the request ID and the engine profile. The collected counters
// surface through Database.Stats() (and thus the expvar sti.db blob) and
// through Database.WriteMetrics (the /metrics endpoint of sti serve).
//
// Observability is opt-in. Without WithObservability a database pays the
// disabled path: one nil check per operation and zero additional
// allocations (guaranteed by AllocsPerRun tests, mirroring the telemetry
// layer's contract).
type ObservabilityConfig struct {
	// Logger receives the slow-request records; nil keeps all counters live
	// but logs nothing.
	Logger *slog.Logger
	// SlowRequest is the latency threshold beyond which a request is logged
	// with its engine profile. <= 0 disables the slow-request log.
	SlowRequest time.Duration
}

// WithObservability attaches a request-scoped observer to a resident
// database (Open only; one-shot Run ignores it).
func WithObservability(cfg ObservabilityConfig) Option {
	return func(o *runOptions) {
		o.obs = obsv.New(obsv.Config{Logger: cfg.Logger, SlowRequest: cfg.SlowRequest})
	}
}

// Observer returns the database's observability hub (nil unless the
// database was opened WithObservability). The serve layer uses it for HTTP
// request IDs, accounting and access logs.
func (db *Database) Observer() *obsv.Observer { return db.obs }

// Phase reports the engine's lifecycle phase ("ready" on a healthy
// database). It reads an atomically published snapshot, so health probes
// never block behind an in-flight Apply.
func (db *Database) Phase() string {
	return interp.Phase(db.phaseV.Load()).String()
}

// Ready reports whether the database can serve requests: it is open, the
// engine has not failed mid-apply, and the materialized fixpoint is
// available. Like Phase it never blocks, making it suitable for readiness
// probes. A database stays ready for reads while an Apply is in flight —
// snapshots keep serving the previous epoch.
func (db *Database) Ready() error {
	if db.closed.Load() {
		return ErrClosed
	}
	if db.broken.Load() != nil {
		return errors.New("sti: database is broken: the engine failed mid-apply and may hold a partial fixpoint")
	}
	if p := interp.Phase(db.phaseV.Load()); p != interp.PhaseReady {
		return errors.New("sti: database is not ready: engine phase " + p.String())
	}
	return nil
}

// SlowAttrs supplies the engine profile attached to slow-request log
// records: the apply counters, the per-path split, and the most recent
// fallback reason. It implements obsv.SlowProfiler and is invoked on the
// Apply path while the writer lock is held, so plain field reads are safe.
func (db *Database) SlowAttrs() []slog.Attr {
	attrs := []slog.Attr{
		slog.Uint64("epoch", db.epochV.Load()),
		slog.Uint64("applies", db.applies),
		slog.Uint64("incremental_applies", db.incremental),
		slog.Uint64("recomputes", db.recomputes),
		slog.String("phase", interp.Phase(db.phaseV.Load()).String()),
	}
	if db.fallbackReason != "" {
		attrs = append(attrs, slog.String("fallback_reason", db.fallbackReason))
	}
	return attrs
}

// readProfile is the engine profile attached to slow *read* (Query/Scan)
// records. Reads hold no lock, so only atomically mirrored state is safe
// here; slow applies attach the full profile (Database.SlowAttrs) instead.
// One instance lives on the Database so the read hot path stays
// allocation-free.
type readProfile struct{ db *Database }

func (p *readProfile) SlowAttrs() []slog.Attr {
	return []slog.Attr{
		slog.Uint64("epoch", p.db.epochV.Load()),
		slog.String("phase", interp.Phase(p.db.phaseV.Load()).String()),
	}
}

// WriteMetrics renders the database's Prometheus text exposition (the
// /metrics endpoint of sti serve): the observer's request, HTTP and runtime
// series around the database families below. Those all come from one Stats
// call, so every database series of a scrape reads one epoch; a counter
// added to DBStats reaches /metrics by one more family here. A database
// opened without WithObservability writes nothing.
func (db *Database) WriteMetrics(w io.Writer) error {
	if db.obs == nil {
		return nil
	}
	st := db.Stats()
	fallbacks := make(map[string]float64, len(st.FallbackReasons))
	for reason, n := range st.FallbackReasons {
		fallbacks[reason] = float64(n)
	}
	tuples := make(map[string]float64, len(st.Relations))
	for name, n := range st.Relations {
		tuples[name] = float64(n)
	}
	fams := []obsv.Family{
		{Name: "sti_db_epoch", Type: "gauge", Value: float64(st.Epoch),
			Help: "Completed Apply epochs (including Close)."},
		{Name: "sti_db_applies_total", Type: "counter", Value: float64(st.Applies),
			Help: "Total Apply calls."},
		{Name: "sti_db_incremental_applies_total", Type: "counter", Value: float64(st.AppliesIncremental),
			Help: "Batches absorbed through the incremental update/delete entry points."},
		{Name: "sti_db_recomputes_total", Type: "counter", Value: float64(st.AppliesFallback),
			Help: "Batches that lost the incremental path and recomputed from scratch."},
		{Name: "sti_apply_fallbacks_total", Type: "counter", Label: "reason", Values: fallbacks,
			Help: "Recompute fallbacks by reason."},
	}
	if p := st.Persist; p != nil {
		fams = append(fams,
			obsv.Family{Name: "sti_persist_generation", Type: "gauge", Value: float64(p.Generation),
				Help: "Current snapshot/WAL generation of the data directory."},
			obsv.Family{Name: "sti_persist_wal_records_total", Type: "counter", Value: float64(p.WALRecords),
				Help: "Batches appended to the current WAL generation."},
			obsv.Family{Name: "sti_persist_wal_bytes_total", Type: "counter", Value: float64(p.WALBytes),
				Help: "Payload bytes appended to the current WAL generation."},
			obsv.Family{Name: "sti_persist_snapshots_total", Type: "counter", Value: float64(p.Snapshots),
				Help: "Checkpoints taken this session (open, periodic, and close)."},
			obsv.Family{Name: "sti_persist_applies_since_snapshot", Type: "gauge", Value: float64(p.SinceSnapshot),
				Help: "Applies since the last checkpoint (the WAL replay a crash would pay)."})
	}
	fams = append(fams, obsv.Family{Name: "sti_relation_tuples", Type: "gauge", Label: "rel", Values: tuples,
		Help: "Tuples per relation (aux relations excluded)."})
	return db.obs.WriteMetrics(w, fams...)
}
