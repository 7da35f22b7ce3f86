package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"sti"
	"sti/internal/bench"
)

// runPersist measures what durability costs and what it buys: the same
// apply+query stream as the obsv workload runs against a plain in-memory
// database and one opened WithPersistence (WAL on every apply, periodic
// checkpoints; relations built as in memory), and after each persistent run
// a cold restart times recovery — reopening the data directory until the
// database answers queries again. Three records come out:
//
//	memory      the in-memory baseline wall
//	persistent  the durable wall; Ratio = persistent/memory
//	recovery    cold-restart wall (snapshot restore + WAL replay + fixpoint)
//
// Minima over repeats are reported, and the persistent run must produce the
// same fixpoint sizes as the memory run (it shares obsvStream).
func runPersist(scale bench.Scale, repeats int, w io.Writer) ([]bench.BenchRecord, error) {
	shape := obsvShapeAt(scale)
	fmt.Fprintf(w, "durability overhead (scale=%s; %d base edges, %d batches of %d edges + %d queries each, checkpoint every %d applies)\n",
		scale, shape.components*(shape.chainLen-1), shape.batches, shape.batchSize, shape.queries, persistSnapshotEvery)
	fmt.Fprintf(w, "%-14s %12s %10s %8s\n", "variant", "wall", "tuples", "ratio")

	walls := map[string]time.Duration{}
	tuples := map[string]int{}
	for rep := 0; rep < repeats || rep == 0; rep++ {
		// Interleave the variants within each repeat so machine drift hits
		// both, alternating order to cancel warm-up bias (obsv precedent).
		order := []string{"memory", "persistent"}
		if rep%2 == 1 {
			order = []string{"persistent", "memory"}
		}
		for _, name := range order {
			var err error
			if name == "memory" {
				err = persistRepMemory(shape, walls, tuples)
			} else {
				err = persistRepDurable(shape, walls, tuples)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %v", name, err)
			}
		}
	}
	for _, v := range []string{"persistent", "recovery"} {
		if tuples[v] != tuples["memory"] {
			return nil, fmt.Errorf("persist: tuple mismatch: memory=%d %s=%d", tuples["memory"], v, tuples[v])
		}
	}
	ratio := float64(walls["persistent"]) / float64(walls["memory"])
	var records []bench.BenchRecord
	for _, v := range []string{"memory", "persistent", "recovery"} {
		r := bench.BenchRecord{
			Workload: fmt.Sprintf("tc-%dx%d", shape.components, shape.chainLen),
			Variant:  v,
			WallNs:   walls[v].Nanoseconds(),
			Tuples:   tuples[v],
		}
		if v == "persistent" {
			r.Ratio = ratio
		}
		records = append(records, r)
		fmt.Fprintf(w, "%-14s %12v %10d %8.3f\n",
			r.Variant, walls[v].Round(time.Microsecond), r.Tuples, r.Ratio)
	}
	return records, nil
}

// persistSnapshotEvery keeps checkpoints on the measured path: the stream
// applies dozens of batches, so several periodic snapshots land mid-run.
const persistSnapshotEvery = 16

func persistConfig(dir string) sti.Option {
	return sti.WithPersistenceConfig(sti.PersistenceConfig{
		Dir:           dir,
		SnapshotEvery: persistSnapshotEvery,
	})
}

func persistRepMemory(shape obsvShape, walls map[string]time.Duration, tuples map[string]int) error {
	prog, err := sti.Parse(obsvSrc)
	if err != nil {
		return err
	}
	wall, n, err := obsvStream(prog, shape, nil)
	if err != nil {
		return err
	}
	persistKeepMin(walls, tuples, "memory", wall, n)
	return nil
}

// persistRepDurable runs the stream through a fresh data directory, then
// cold-restarts it: a newly parsed Program reopens the directory (snapshot
// restore + WAL replay + recompute) and must answer with the same fixpoint.
func persistRepDurable(shape obsvShape, walls map[string]time.Duration, tuples map[string]int) error {
	dir, err := os.MkdirTemp("", "sti-bench-persist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	prog, err := sti.Parse(obsvSrc)
	if err != nil {
		return err
	}
	wall, n, err := obsvStream(prog, shape, []sti.Option{persistConfig(dir)})
	if err != nil {
		return err
	}
	persistKeepMin(walls, tuples, "persistent", wall, n)

	reopened, err := sti.Parse(obsvSrc) // a restart parses the program afresh
	if err != nil {
		return err
	}
	start := time.Now()
	db, err := reopened.Open(persistConfig(dir))
	if err != nil {
		return fmt.Errorf("cold restart: %v", err)
	}
	rwall := time.Since(start)
	defer db.Close()
	rn, err := db.Size("path")
	if err != nil {
		return err
	}
	if p := db.Stats().Persist; p == nil || !p.Recovered {
		return fmt.Errorf("cold restart did not report recovery (stats=%+v)", db.Stats().Persist)
	}
	persistKeepMin(walls, tuples, "recovery", rwall, rn)
	return nil
}

func persistKeepMin(walls map[string]time.Duration, tuples map[string]int, name string, wall time.Duration, n int) {
	if cur, ok := walls[name]; !ok || wall < cur {
		walls[name] = wall
		tuples[name] = n
	}
}
