package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"sti/internal/interp"
)

// ShardCounts is the shard axis of the shard-scaling benchmark:
// 1, 2, 4, and all CPUs, de-duplicated and ordered — the same axis as
// ScalingWorkerCounts so the two sweeps are directly comparable.
func ShardCounts() []int {
	return ScalingWorkerCounts()
}

// ShardRow is one shard-scaling measurement. Shards == 0 marks the unsharded
// baseline row (partitioned-scan parallelism only, Workers = NumCPU), the
// configuration PR 2 tops out at; the sharded rows must beat it for the
// exchange machinery to pay for itself.
type ShardRow struct {
	Workload     string
	Shards       int
	Workers      int
	Wall         time.Duration
	Tuples       int
	TuplesPerSec float64
}

// Shard sweeps the scaling workloads over the shard axis: each run
// hash-partitions every shardable relation into N shards and runs with
// Workers = N, so every shard has a worker to merge it. An unsharded
// Workers = NumCPU row per workload gives the partitioned-scan baseline.
// The minimum over repeats is reported, as in the paper's methodology.
func Shard(scale Scale, repeats int, w io.Writer) ([]ShardRow, error) {
	fmt.Fprintf(w, "shard scaling (scale=%s, cpus=%d; wall time and tuples/s per shard count; shards=0 is the unsharded baseline)\n", scale, runtime.NumCPU())
	fmt.Fprintf(w, "%-22s %8s %8s %12s %12s %14s\n", "benchmark", "shards", "workers", "wall", "tuples", "tuples/s")
	var rows []ShardRow
	for _, wl := range ScalingWorkloads(scale) {
		// Baseline: unsharded, all parallelism from partitioned scans.
		base := interp.DefaultConfig()
		base.Workers = runtime.NumCPU()
		configs := []struct {
			shards  int
			workers int
		}{{0, base.Workers}}
		for _, s := range ShardCounts() {
			configs = append(configs, struct {
				shards  int
				workers int
			}{s, s})
		}
		for _, c := range configs {
			cfg := interp.DefaultConfig()
			cfg.Workers = c.workers
			cfg.Shards = c.shards
			var best ShardRow
			for rep := 0; rep < repeats || rep == 0; rep++ {
				rp, st, err := wl.Compile()
				if err != nil {
					return nil, err
				}
				io := wl.NewIO()
				start := time.Now()
				eng := interp.New(rp, st, cfg)
				if err := eng.Run(io); err != nil {
					return nil, err
				}
				elapsed := time.Since(start)
				if best.Wall == 0 || elapsed < best.Wall {
					best = ShardRow{
						Workload: wl.FullName(),
						Shards:   c.shards,
						Workers:  c.workers,
						Wall:     elapsed,
						Tuples:   eng.TotalTuples(),
					}
				}
			}
			best.TuplesPerSec = float64(best.Tuples) / best.Wall.Seconds()
			rows = append(rows, best)
			fmt.Fprintf(w, "%-22s %8d %8d %12v %12d %14.0f%s\n",
				best.Workload, best.Shards, best.Workers, best.Wall.Round(time.Microsecond), best.Tuples, best.TuplesPerSec, oversubscribed(best.Workers))
		}
	}
	return rows, nil
}

// ShardRecords converts shard-scaling rows; the unsharded baseline carries
// the "unsharded" variant label.
func ShardRecords(rows []ShardRow) []BenchRecord {
	var out []BenchRecord
	for _, r := range rows {
		variant := fmt.Sprintf("%d-shards", r.Shards)
		if r.Shards == 0 {
			variant = "unsharded"
		}
		out = append(out, BenchRecord{
			Workload:     r.Workload,
			Variant:      variant,
			Workers:      r.Workers,
			WallNs:       r.Wall.Nanoseconds(),
			Tuples:       r.Tuples,
			TuplesPerSec: r.TuplesPerSec,
		})
	}
	return out
}
