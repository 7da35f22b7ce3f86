package relation

import (
	"sti/internal/metrics"
	"sti/internal/tuple"
	"sti/internal/value"
)

// countedIndex is the telemetry wrapper: the one place index operations are
// counted. Like shardedIndex it sits behind the Index seam, so adapters know
// nothing of telemetry, and Relation.AttachMetrics builds it only when a
// collector is attached — with telemetry off it does not exist. It counts
// traffic that crosses the dynamic adapter; impl() forwards to the wrapped
// store, so the interpreter's static instructions bypass the wrapper (and its
// counters) by design.
//
// It has the bulk, partition and range capabilities of the index it wraps or
// their fallbacks (either way counted the same), and — as countedDeleter — Delete
// exactly when the wrapped index has it.
type countedIndex struct {
	Index
	ops  *metrics.IndexOps
	bulk BulkInserter
	part Partitioner
}

type countedDeleter struct {
	*countedIndex
	del Deleter
}

// counted wraps idx so its operations count into ops. A sharded index gets
// one wrapper per shard instead, all on the same (atomic) counters, so that
// the merges that address a shard's store directly (InsertAllSharded) are
// counted and an operation that fans out to N shards counts N times.
func counted(idx Index, ops *metrics.IndexOps) Index {
	if s, ok := idx.(*shardedIndex); ok {
		for i, sub := range s.subs {
			s.subs[i] = counted(sub, ops).(shardStore)
		}
		return s
	}
	c := &countedIndex{Index: idx, ops: ops, bulk: bulkInserterOf(idx), part: PartitionerOf(idx)}
	if d, ok := idx.(Deleter); ok {
		return &countedDeleter{c, d}
	}
	return c
}

// inner is the wrapped index.
func (c *countedIndex) inner() Index { return c.Index }

func (c *countedIndex) Insert(t tuple.Tuple) bool {
	added := c.Index.Insert(t)
	c.ops.Inserts.Add(1)
	if added {
		c.ops.Fresh.Add(1)
	}
	return added
}

func (c *countedIndex) InsertAll(flat []value.Value, count int) int {
	added := c.bulk.InsertAll(flat, count)
	c.ops.Inserts.Add(uint64(count))
	c.ops.Fresh.Add(uint64(added))
	return added
}

func (c *countedDeleter) Delete(t tuple.Tuple) bool {
	removed := c.del.Delete(t)
	if removed {
		c.ops.Deletes.Add(1)
	}
	return removed
}

func (c *countedIndex) Contains(t tuple.Tuple) bool {
	c.ops.Lookups.Add(1)
	return c.Index.Contains(t)
}

func (c *countedIndex) ContainsEncoded(t tuple.Tuple) bool {
	c.ops.Lookups.Add(1)
	return c.Index.ContainsEncoded(t)
}

// SwapContents swaps the wrapped stores; the counters stay where they are.
func (c *countedIndex) SwapContents(other Index) {
	if o, ok := other.(interface{ inner() Index }); ok {
		other = o.inner()
	}
	c.Index.SwapContents(other)
}

func (c *countedIndex) Scan() Iterator {
	c.ops.Scans.Add(1)
	return c.Index.Scan()
}

func (c *countedIndex) PrefixScan(pattern tuple.Tuple, k int) Iterator {
	c.ops.RangeScans.Add(1)
	return c.Index.PrefixScan(pattern, k)
}

// RangeScan counts like PrefixScan, which is what it falls back to when the
// wrapped index has no range capability.
func (c *countedIndex) RangeScan(pattern tuple.Tuple, k int, lo, hi value.Value) Iterator {
	c.ops.RangeScans.Add(1)
	return RangeScan(c.Index, pattern, k, lo, hi)
}

func (c *countedIndex) AnyMatch(pattern tuple.Tuple, k int) bool {
	c.ops.Probes.Add(1)
	return c.Index.AnyMatch(pattern, k)
}

// PartitionScan counts the request, and a full scan too when the store
// answers with a single partition, which is one.
func (c *countedIndex) PartitionScan(n int) []Iterator {
	c.ops.Partitions.Add(1)
	its := c.part.PartitionScan(n)
	if len(its) == 1 {
		c.ops.Scans.Add(1)
	}
	return its
}
