// Package metrics is the engine-wide telemetry layer: counters and spans
// that attribute interpreter time and tuple traffic to fixpoints, relations,
// indexes, and parallel workers.
//
// The design follows the same discipline as the interpreter's profiler: all
// telemetry is opt-in (a nil *Collector disables everything), hot-path hooks
// are a single nil check, and counters that can be reached from worker
// goroutines (the per-index operation counters) are atomic while everything
// touched only at barriers stays plain. A Collector observes exactly one
// engine run; Report() snapshots it into a JSON-friendly form.
//
// Metric catalog:
//
//   - FixpointStats: one per RAM LOOP (stratum) — iteration count plus the
//     per-iteration delta sizes (recursion convergence curves).
//   - RelationStats: one per RAM relation — final size, peak delta, fresh
//     inserts vs. de-duplication hits, and per-index operation counters.
//   - IndexOps: one per index — inserts, lookups, scans, range scans,
//     existence probes, partition requests crossing the dynamic adapter.
//   - ParallelStats: staging-buffer traffic of partitioned scans — tuples
//     scanned and staged per worker, merge wall time, partition skew, and
//     for sharded evaluation the per-shard routed volume, routing skew,
//     and cross-shard delta-exchange count.
//   - Trace: span-style events (stratum → iteration → query → I/O) in
//     Chrome trace-event form, loadable in Perfetto (see trace.go).
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// IndexOps counts operations crossing one index's dynamic adapter. Fields
// are atomic because parallel workers probe shared indexes concurrently and
// secondary-index merges run on their own goroutines.
type IndexOps struct {
	Inserts    atomic.Uint64 // tuples offered for insertion
	Fresh      atomic.Uint64 // tuples newly added (Inserts - Fresh = dedup hits)
	Deletes    atomic.Uint64 // tuples removed (delete-propagation path)
	Lookups    atomic.Uint64 // membership tests (Contains / ContainsEncoded)
	Scans      atomic.Uint64 // full scans opened
	RangeScans atomic.Uint64 // prefix scans opened
	Probes     atomic.Uint64 // existence probes (AnyMatch)
	Partitions atomic.Uint64 // partitioned-scan requests
}

// IndexOpsView is the plain snapshot of IndexOps for reports.
type IndexOpsView struct {
	Order      string `json:"order,omitempty"`
	Inserts    uint64 `json:"inserts"`
	Fresh      uint64 `json:"fresh"`
	Deletes    uint64 `json:"deletes,omitempty"`
	Lookups    uint64 `json:"lookups"`
	Scans      uint64 `json:"scans"`
	RangeScans uint64 `json:"range_scans"`
	Probes     uint64 `json:"probes"`
	Partitions uint64 `json:"partitions"`
}

// View snapshots the counters.
func (o *IndexOps) View() IndexOpsView {
	return IndexOpsView{
		Inserts:    o.Inserts.Load(),
		Fresh:      o.Fresh.Load(),
		Deletes:    o.Deletes.Load(),
		Lookups:    o.Lookups.Load(),
		Scans:      o.Scans.Load(),
		RangeScans: o.RangeScans.Load(),
		Probes:     o.Probes.Load(),
		Partitions: o.Partitions.Load(),
	}
}

// RelationStats accumulates per-relation telemetry. The insert counters are
// only touched at barriers or on the coordinating goroutine (workers stage
// instead of inserting), so they are plain fields; see CountInsert.
type RelationStats struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Rep    string `json:"rep"`
	Arity  int    `json:"arity"`
	Aux    bool   `json:"aux,omitempty"`
	BaseID int    `json:"base_id"`

	// Inserts counts tuples that were genuinely new; DedupHits counts
	// insert attempts the primary index rejected as duplicates; Deletes
	// counts tuples physically retracted by delete propagation.
	Inserts   uint64 `json:"inserts"`
	DedupHits uint64 `json:"dedup_hits"`
	Deletes   uint64 `json:"deletes,omitempty"`
	// PeakDelta is the largest per-iteration fresh-tuple count observed for
	// this relation across all fixpoint iterations (0 outside recursion).
	PeakDelta uint64 `json:"peak_delta"`
	// FinalSize is the tuple count when the run finished.
	FinalSize int `json:"final_size"`

	// Ops holds one counter block per index (index 0 is the primary).
	Ops []*IndexOps `json:"-"`
	// IndexOrders are the source→encoded orders of the indexes, for reports.
	IndexOrders []string `json:"-"`
}

// CountInsert records one insert attempt. Must only be called from code that
// already holds the mutation right on the relation (the coordinator).
func (rs *RelationStats) CountInsert(added bool) {
	if added {
		rs.Inserts++
	} else {
		rs.DedupHits++
	}
}

// CountBulk records a bulk merge of attempted tuples of which added were new.
func (rs *RelationStats) CountBulk(attempted, added int) {
	rs.Inserts += uint64(added)
	rs.DedupHits += uint64(attempted - added)
}

// CountDelete records one physical tuple retraction. Like CountInsert it
// must only be called while holding the mutation right on the relation.
func (rs *RelationStats) CountDelete() {
	rs.Deletes++
}

// FixpointStats records one execution of a RAM LOOP: the convergence curve
// of a recursive stratum.
type FixpointStats struct {
	Label string `json:"label"`
	// Iterations is the number of loop iterations until the exit condition
	// fired (the final, empty-delta iteration included).
	Iterations int `json:"iterations"`
	// DeltaCurve[i] is the total number of fresh tuples derived in
	// iteration i across all relations of the stratum.
	DeltaCurve []uint64 `json:"delta_curve"`
	// RelationCurves maps a base relation name to its per-iteration fresh
	// tuple counts.
	RelationCurves map[string][]uint64 `json:"relation_curves,omitempty"`
	DurationNs     int64               `json:"duration_ns"`

	start time.Time
}

// RecordIteration appends one iteration's delta sizes. names[i] is the base
// relation that derived sizes[i] fresh tuples this iteration.
func (f *FixpointStats) RecordIteration(names []string, sizes []uint64) {
	f.Iterations++
	var total uint64
	for i, n := range sizes {
		total += n
		if f.RelationCurves == nil {
			f.RelationCurves = make(map[string][]uint64, len(sizes))
		}
		f.RelationCurves[names[i]] = append(f.RelationCurves[names[i]], n)
	}
	f.DeltaCurve = append(f.DeltaCurve, total)
}

// WorkerStats accumulates one worker's share of partitioned-scan traffic.
type WorkerStats struct {
	Worker  int    `json:"worker"`
	Scanned uint64 `json:"tuples_scanned"`
	Staged  uint64 `json:"tuples_staged"`
}

// ParallelStats aggregates the staging-buffer path across all partitioned
// scans of a run. Only the coordinating goroutine records here (at scan
// barriers), so plain fields suffice.
type ParallelStats struct {
	// Scans counts partitioned scans that actually fanned out (>1 partition).
	Scans uint64 `json:"scans"`
	// Partitions is the total number of partitions across those scans.
	Partitions uint64 `json:"partitions"`
	// MergeNs is the total wall time spent merging staging buffers at scan
	// barriers.
	MergeNs int64 `json:"merge_ns"`
	// MaxSkew is the worst observed partition skew: max over scans of
	// (most-loaded worker's scanned tuples / mean scanned tuples).
	MaxSkew float64 `json:"max_skew"`
	// Workers holds the per-worker totals.
	Workers []*WorkerStats `json:"workers,omitempty"`

	// ShardMerges counts scan-barrier merges that routed staged tuples into
	// a sharded relation (the delta-exchange step of shard-parallel
	// evaluation).
	ShardMerges uint64 `json:"shard_merges,omitempty"`
	// ShardRouted[s] is the total number of staged tuples whose partition
	// hash owned them to shard s — the shard skew signal.
	ShardRouted []uint64 `json:"shard_routed,omitempty"`
	// ShardExchanged counts staged tuples that crossed shards at a merge:
	// produced by worker w but owned by a shard other than w's. This is the
	// exchange volume a distributed implementation would put on the wire.
	ShardExchanged uint64 `json:"shard_exchanged,omitempty"`
	// ShardMaxSkew is the worst observed shard skew: max over merges of
	// (most-loaded shard's routed tuples / mean routed tuples).
	ShardMaxSkew float64 `json:"shard_max_skew,omitempty"`
}

// Collector gathers one run's telemetry. The zero value is not usable; call
// New. All methods are safe on a nil receiver and do nothing, so callers can
// hold a possibly-nil *Collector and call through unconditionally on cold
// paths (hot paths should still nil-check once per operation batch).
type Collector struct {
	mu        sync.Mutex
	start     time.Time
	duration  time.Duration
	relations []*RelationStats
	fixpoints []*FixpointStats
	parallel  ParallelStats
	trace     *Trace
}

// New creates an empty collector; the run's clock starts now.
func New() *Collector {
	return &Collector{start: time.Now()}
}

// EnableTrace turns on span recording with the given event capacity
// (0 means DefaultTraceCap). Must be called before the run starts.
func (c *Collector) EnableTrace(capacity int) {
	if c == nil {
		return
	}
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	c.trace = &Trace{cap: capacity}
}

// BindRelation registers a relation and allocates its per-index counter
// blocks. Called once per relation at engine construction.
func (c *Collector) BindRelation(id int, name, rep string, arity int, aux bool, baseID int, indexOrders []string) *RelationStats {
	if c == nil {
		return nil
	}
	rs := &RelationStats{
		ID: id, Name: name, Rep: rep, Arity: arity, Aux: aux, BaseID: baseID,
		IndexOrders: indexOrders,
	}
	for range indexOrders {
		rs.Ops = append(rs.Ops, &IndexOps{})
	}
	c.mu.Lock()
	c.relations = append(c.relations, rs)
	c.mu.Unlock()
	return rs
}

// StartFixpoint opens a fixpoint record for one LOOP execution.
func (c *Collector) StartFixpoint(label string) *FixpointStats {
	if c == nil {
		return nil
	}
	f := &FixpointStats{Label: label, start: time.Now()}
	c.mu.Lock()
	c.fixpoints = append(c.fixpoints, f)
	c.mu.Unlock()
	return f
}

// EndFixpoint closes a fixpoint record.
func (c *Collector) EndFixpoint(f *FixpointStats) {
	if c == nil || f == nil {
		return
	}
	f.DurationNs = time.Since(f.start).Nanoseconds()
}

// RecordParallelScan folds one partitioned scan's per-worker traffic into
// the aggregate: scanned[i]/staged[i] are worker i's tuple counts, merge is
// the barrier's staging-merge wall time.
func (c *Collector) RecordParallelScan(scanned, staged []uint64, merge time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := &c.parallel
	p.Scans++
	p.Partitions += uint64(len(scanned))
	p.MergeNs += merge.Nanoseconds()
	var total, max uint64
	for i := range scanned {
		if i >= len(p.Workers) {
			p.Workers = append(p.Workers, &WorkerStats{Worker: i})
		}
		p.Workers[i].Scanned += scanned[i]
		p.Workers[i].Staged += staged[i]
		total += scanned[i]
		if scanned[i] > max {
			max = scanned[i]
		}
	}
	if total > 0 && len(scanned) > 0 {
		mean := float64(total) / float64(len(scanned))
		if skew := float64(max) / mean; skew > p.MaxSkew {
			p.MaxSkew = skew
		}
	}
}

// RecordShardMerge folds one sharded scan-barrier merge into the aggregate:
// routed[s] is the number of staged tuples owned by shard s at this merge,
// exchanged the number that crossed shards (owner != producing worker's
// shard).
func (c *Collector) RecordShardMerge(routed []uint64, exchanged uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := &c.parallel
	p.ShardMerges++
	p.ShardExchanged += exchanged
	var total, max uint64
	for s, n := range routed {
		if s >= len(p.ShardRouted) {
			p.ShardRouted = append(p.ShardRouted, 0)
		}
		p.ShardRouted[s] += n
		total += n
		if n > max {
			max = n
		}
	}
	if total > 0 && len(routed) > 0 {
		mean := float64(total) / float64(len(routed))
		if skew := float64(max) / mean; skew > p.ShardMaxSkew {
			p.ShardMaxSkew = skew
		}
	}
}

// Finish stamps the run duration. Idempotent; later calls win.
func (c *Collector) Finish() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.duration = time.Since(c.start)
	c.mu.Unlock()
}
