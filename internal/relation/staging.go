package relation

import (
	"fmt"
	"sync"

	"sti/internal/tuple"
	"sti/internal/value"
)

// StagingBuffer collects source-order tuples destined for one relation on
// behalf of one parallel worker. Workers append locally without any
// synchronization; at the iteration barrier the coordinator merges every
// worker's buffer into the relation in bulk (Relation.InsertAll),
// de-duplicating against the primary index. Under semi-naive evaluation the
// deferral is invisible: inserts land in relations no concurrent scan of
// the same query reads, so merge-at-barrier is equivalent to locked
// in-place inserts.
//
// Tuples are packed back to back in a flat backing array, so a buffer costs
// one allocation amortized regardless of how many tuples it stages.
type StagingBuffer struct {
	arity int
	flat  []value.Value
	count int
}

// NewStagingBuffer returns an empty buffer for tuples of the given arity
// (0 is allowed: nullary tuples stage as bare counts).
func NewStagingBuffer(arity int) *StagingBuffer {
	return &StagingBuffer{arity: arity}
}

// Arity reports the tuple width.
func (b *StagingBuffer) Arity() int { return b.arity }

// Len reports the number of staged tuples (including duplicates: staging
// never de-duplicates, the merge does).
func (b *StagingBuffer) Len() int { return b.count }

// Add copies a source-order tuple into the buffer.
func (b *StagingBuffer) Add(t tuple.Tuple) {
	b.flat = append(b.flat, t[:b.arity]...)
	b.count++
}

// Tuple returns a view of the i-th staged tuple, valid until the next Add.
func (b *StagingBuffer) Tuple(i int) tuple.Tuple {
	return tuple.Tuple(b.flat[i*b.arity : (i+1)*b.arity])
}

// Reset empties the buffer, keeping its backing array for reuse.
func (b *StagingBuffer) Reset() {
	b.flat = b.flat[:0]
	b.count = 0
}

// parallelMergeMin is the fresh-tuple count above which secondary indexes
// merge on their own goroutines. Below it the goroutine setup outweighs the
// per-index work.
const parallelMergeMin = 512

// InsertAll merges staged tuples into the relation in bulk: the paper's
// parallel-insert discipline recovered without thread-safe stores. Every
// tuple is inserted into the primary index first, which de-duplicates both
// against the relation's existing contents and across buffers; only the
// fresh tuples propagate to the secondary indexes. When the fresh set is
// large, each secondary index merges on its own goroutine — an index is
// only ever touched by one goroutine, so no locking is needed. Returns the
// number of tuples newly added.
func (r *Relation) InsertAll(bufs ...*StagingBuffer) int {
	primary := r.indexes[0]
	collect := len(r.indexes) > 1
	added, attempted := 0, 0
	var fresh []value.Value
	for _, b := range bufs {
		if b == nil || b.count == 0 {
			continue
		}
		if b.arity != r.arity {
			panic(fmt.Sprintf("relation %s: staged arity %d does not match arity %d", r.Name, b.arity, r.arity))
		}
		attempted += b.count
		for i := 0; i < b.count; i++ {
			t := b.Tuple(i)
			if primary.Insert(t) {
				added++
				if collect {
					fresh = append(fresh, t...)
				}
			}
		}
	}
	if r.stats != nil {
		r.stats.CountBulk(attempted, added)
	}
	if !collect || added == 0 {
		return added
	}
	secondaries := r.bulk[1:]
	if added >= parallelMergeMin && len(secondaries) > 1 {
		var wg sync.WaitGroup
		for _, idx := range secondaries {
			wg.Add(1)
			go func(idx BulkInserter) {
				defer wg.Done()
				idx.InsertAll(fresh, added)
			}(idx)
		}
		wg.Wait()
		return added
	}
	for _, idx := range secondaries {
		idx.InsertAll(fresh, added)
	}
	return added
}
