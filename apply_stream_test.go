package sti

import (
	"runtime"
	"testing"
	"time"
)

// applyStreamSrc is the serving-path benchmark program: transitive closure
// over disjoint chains.
const applyStreamSrc = `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.input edge
.output path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`

// The apply stream: a base of applyStreamChains chains of applyStreamChainLen
// nodes, loaded untimed, then per step one batch of applyStreamBatch chain
// extensions (round-robin over chains) and applyStreamQueries point queries.
// Chain c owns node ids [c*applyStreamStride, (c+1)*applyStreamStride).
const (
	applyStreamChains   = 50
	applyStreamChainLen = 64
	applyStreamBatch    = 8
	applyStreamQueries  = 30
	applyStreamStride   = 1 << 16
)

// BenchmarkApplyStream times one step of the apply stream on a resident
// database: in memory, with the observability layer armed (slow-request
// threshold never crossed), and durable (WAL append per Apply, a checkpoint
// every 16). The observed and durable runs also step an in-memory twin,
// untimed by the benchmark clock, and report their time over the twin's as
// x-memory: interleaving step by step keeps machine drift out of the ratio.
// CI gates the minimum x-memory over runs: observed at most 1.05, durable at
// most 1.5.
//
//	go test -run '^$' -bench ApplyStream -benchtime 50x -count 5 .
func BenchmarkApplyStream(b *testing.B) {
	variants := []struct {
		name string
		opts func(b *testing.B) []Option
	}{
		{"memory", func(*testing.B) []Option { return nil }},
		{"observed", func(*testing.B) []Option {
			return []Option{WithObservability(ObservabilityConfig{SlowRequest: time.Minute})}
		}},
		{"durable", func(b *testing.B) []Option {
			return []Option{WithPersistenceConfig(PersistenceConfig{Dir: b.TempDir(), SnapshotEvery: 16})}
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			opts := v.opts(b)
			db := openApplyStream(b, opts)
			var twin *Database
			if opts != nil {
				twin = openApplyStream(b, nil)
				defer twin.Close()
			}
			runtime.GC() // the base loads' garbage is not the stream's cost
			b.ResetTimer()
			var twinTime time.Duration
			for i := 0; i < b.N; i++ {
				if twin != nil {
					b.StopTimer()
					start := time.Now()
					applyStreamStep(b, twin, i)
					twinTime += time.Since(start)
					b.StartTimer()
				}
				applyStreamStep(b, db, i)
			}
			b.StopTimer()
			if twin != nil {
				b.ReportMetric(float64(b.Elapsed())/float64(twinTime), "x-memory")
				checkApplyStreamPaths(b, twin, b.N)
			}
			checkApplyStreamPaths(b, db, b.N)
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
			if v.name != "durable" {
				return
			}
			reopened := openApplyStream(b, opts)
			defer reopened.Close()
			if p := reopened.Stats().Persist; p == nil || !p.Recovered {
				b.Fatalf("reopening the data directory did not recover (stats %+v)", p)
			}
			checkApplyStreamPaths(b, reopened, b.N)
		})
	}
}

// applyStreamStep applies batch i of the stream and queries path from the
// head of applyStreamQueries chains.
func applyStreamStep(b *testing.B, db *Database, i int) {
	batch := db.NewBatch()
	for j := 0; j < applyStreamBatch; j++ {
		k := i*applyStreamBatch + j
		tail := k%applyStreamChains*applyStreamStride + applyStreamChainLen - 1 + k/applyStreamChains
		batch.Add("edge", tail, tail+1)
	}
	if err := db.Apply(batch); err != nil {
		b.Fatal(err)
	}
	for q := 0; q < applyStreamQueries; q++ {
		c := (i*applyStreamQueries + q) % applyStreamChains
		if _, err := db.Query("path", c*applyStreamStride, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// openApplyStream opens a database on the apply-stream program and, unless
// opts names a data directory that already holds it, loads the chain base.
func openApplyStream(b *testing.B, opts []Option) *Database {
	b.Helper()
	prog, err := Parse(applyStreamSrc)
	if err != nil {
		b.Fatal(err)
	}
	db, err := prog.Open(opts...)
	if err != nil {
		b.Fatal(err)
	}
	if n, err := db.Size("edge"); err != nil || n > 0 {
		return db
	}
	base := db.NewBatch()
	for c := 0; c < applyStreamChains; c++ {
		for i := 0; i < applyStreamChainLen-1; i++ {
			base.Add("edge", c*applyStreamStride+i, c*applyStreamStride+i+1)
		}
	}
	if err := db.Apply(base); err != nil {
		b.Fatal(err)
	}
	return db
}

// checkApplyStreamPaths requires path to hold the closure after the given
// number of steps: a chain of k nodes holds k(k-1)/2 paths.
func checkApplyStreamPaths(b *testing.B, db *Database, steps int) {
	b.Helper()
	n, err := db.Size("path")
	if err != nil {
		b.Fatal(err)
	}
	want := 0
	for c := 0; c < applyStreamChains; c++ {
		k := applyStreamChainLen + steps*applyStreamBatch/applyStreamChains
		if c < steps*applyStreamBatch%applyStreamChains {
			k++
		}
		want += k * (k - 1) / 2
	}
	if n != want {
		b.Fatalf("path holds %d tuples after %d steps, want %d", n, steps, want)
	}
}
