package sti

import (
	"errors"
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
// through the observer's Prometheus text exposition (the /metrics endpoint
// of sti serve).
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
// database was opened WithObservability). The serve layer uses it for the
// Prometheus exposition and HTTP request accounting.
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
	if db.stClosed.Load() {
		return ErrClosed
	}
	if db.stBroken.Load() {
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

// registerObsvMetrics wires the database-level gauges and counters into the
// observer's scrape path. Each source takes its own short-lived snapshot,
// so scrapes are consistent with the epoch they observe and never tear an
// in-flight Apply.
func (db *Database) registerObsvMetrics() {
	obs := db.obs
	obs.Register(obsv.KindGauge, "sti_db_epoch",
		"Completed Apply epochs (including Close).",
		func() float64 { return float64(db.guard.Epoch()) })
	obs.Register(obsv.KindCounter, "sti_db_applies_total",
		"Total Apply calls.",
		db.snapshotCounter(func() uint64 { return db.applies }))
	obs.Register(obsv.KindCounter, "sti_db_incremental_applies_total",
		"Batches absorbed through the incremental update/delete entry points.",
		db.snapshotCounter(func() uint64 { return db.incremental }))
	obs.Register(obsv.KindCounter, "sti_db_recomputes_total",
		"Batches that lost the incremental path and recomputed from scratch.",
		db.snapshotCounter(func() uint64 { return db.recomputes }))
	obs.RegisterVec(obsv.KindCounter, "sti_apply_fallbacks_total",
		"Recompute fallbacks by reason.", "reason",
		func() map[string]float64 {
			s := db.Snapshot()
			defer s.Release()
			out := make(map[string]float64, len(db.fallbackCounts))
			for reason, n := range db.fallbackCounts {
				out[reason] = float64(n)
			}
			return out
		})
	if db.pst != nil {
		db.registerPersistMetrics()
	}
	obs.RegisterVec(obsv.KindGauge, "sti_relation_tuples",
		"Tuples per relation (aux relations excluded).", "rel",
		func() map[string]float64 {
			s := db.Snapshot()
			defer s.Release()
			out := map[string]float64{}
			for _, rd := range db.prog.ram.Relations {
				if !rd.Aux {
					out[rd.Name] = float64(db.eng.Relation(rd.Name).Size())
				}
			}
			return out
		})
}

// registerPersistMetrics wires the durability counters into the scrape
// path: WAL traffic and checkpoint cadence.
func (db *Database) registerPersistMetrics() {
	obs := db.obs
	persist := func(read func(*PersistStats) float64) func() float64 {
		return func() float64 {
			s := db.Snapshot()
			defer s.Release()
			return read(db.pst.stats())
		}
	}
	obs.Register(obsv.KindGauge, "sti_persist_generation",
		"Current snapshot/WAL generation of the data directory.",
		persist(func(p *PersistStats) float64 { return float64(p.Generation) }))
	obs.Register(obsv.KindCounter, "sti_persist_wal_records_total",
		"Batches appended to the current WAL generation.",
		persist(func(p *PersistStats) float64 { return float64(p.WALRecords) }))
	obs.Register(obsv.KindCounter, "sti_persist_wal_bytes_total",
		"Payload bytes appended to the current WAL generation.",
		persist(func(p *PersistStats) float64 { return float64(p.WALBytes) }))
	obs.Register(obsv.KindCounter, "sti_persist_snapshots_total",
		"Checkpoints taken this session (open, periodic, and close).",
		persist(func(p *PersistStats) float64 { return float64(p.Snapshots) }))
	obs.Register(obsv.KindGauge, "sti_persist_applies_since_snapshot",
		"Applies since the last checkpoint (the WAL replay a crash would pay).",
		persist(func(p *PersistStats) float64 { return float64(p.SinceSnapshot) }))
}

// snapshotCounter adapts a plain counter read into a scrape source that
// pins a snapshot for the read (writers mutate these counters only under
// the writer lock, which a pinned snapshot excludes).
func (db *Database) snapshotCounter(read func() uint64) func() float64 {
	return func() float64 {
		s := db.Snapshot()
		defer s.Release()
		return float64(read())
	}
}
