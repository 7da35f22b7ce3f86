package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sti"
)

// dbLat is what one in-process replay of the script against a resident
// database measured, in microseconds.
type dbLat struct {
	openMs                float64
	insert, delete, query []float64
	stats                 sti.DBStats
}

func stage(db *sti.Database, a apply) *sti.Batch {
	b := db.NewBatch()
	for _, f := range a.facts {
		fields := strings.Split(f.row.tsv(), "\t")
		if a.del {
			b.DeleteText(f.rel, fields)
		} else {
			b.AddText(f.rel, fields)
		}
	}
	return b
}

// replayDB opens a resident database (durable when dir is set), preloads the
// base EDB, and replays the script followed by one query per apply through
// the same text entry points the HTTP handlers call.
func (t *tracer) replayDB(layer, dir string, script []apply) (*sti.Database, *dbLat, error) {
	prog, err := sti.Parse(t.w.source())
	if err != nil {
		return nil, nil, err
	}
	var opts []sti.Option
	if dir != "" {
		opts = append(opts, sti.WithPersistenceConfig(sti.PersistenceConfig{Dir: dir, SnapshotEvery: snapshotEvery}))
	}
	l := &dbLat{}
	var db *sti.Database
	l.openMs = t.rec.in(layer+".open", func() { db, err = prog.Open(opts...) }) * 1e3
	if err != nil {
		return nil, nil, err
	}
	for _, a := range preloadApplies(t.d, preloadChunk) {
		if err := db.Apply(stage(db, a)); err != nil {
			db.Close()
			return nil, nil, err
		}
	}
	for i, a := range script {
		name := layer + ".apply_insert"
		if a.del {
			name = layer + ".apply_delete"
		}
		us := t.rec.in(name, func() { err = db.Apply(stage(db, a)) }) * 1e6
		if err != nil {
			db.Close()
			return nil, nil, fmt.Errorf("%s: %v", name, err)
		}
		if a.del {
			l.delete = append(l.delete, us)
		} else {
			l.insert = append(l.insert, us)
		}
		q := t.d.queries[i%len(t.d.queries)]
		var rows [][]string
		us = t.rec.in(layer+".query", func() { rows, err = db.QueryText(q.rel, q.pattern) }) * 1e6
		if err != nil || len(rows) > q.maxRows {
			db.Close()
			return nil, nil, fmt.Errorf("%s.query %s%v: %d rows, error %v", layer, q.rel, q.pattern, len(rows), err)
		}
		l.query = append(l.query, us)
	}
	l.stats = db.Stats()
	return db, l, nil
}

// copyDataDir copies a live data directory's snapshot, WAL and manifest —
// what a crash would leave — without the table cache a reopen rebuilds.
func copyDataDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() || e.Name() == "LOCK" {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// database measures the resident engine in process, memory tier then durable
// tier, and then the same script over HTTP against a real `sti serve`.
func (t *tracer) database() error {
	script := t.script
	prog, err := sti.Parse(t.w.source())
	if err != nil {
		return err
	}
	mdb, mem, err := t.replayDB("db", "", script)
	if err != nil {
		return err
	}
	mdb.Close()
	t.serveMetric("db.open_ms", mem.openMs, "ms")
	t.serveMetric("db.apply_insert_us", median(mem.insert), "us")
	t.serveMetric("db.apply_delete_us", median(mem.delete), "us")
	t.serveMetric("db.query_us", median(mem.query), "us")
	// The preload applies count too: they are inserts into an incremental
	// program and must not fall back either.
	t.serveMetric("db.fallback_share", float64(mem.stats.AppliesFallback)/float64(mem.stats.Applies), "share")

	dir := filepath.Join(t.work, "data")
	ddb, dur, err := t.replayDB("db.durable", dir, script)
	if err != nil {
		return err
	}
	t.serveMetric("db.durable_apply_insert_us", median(dur.insert), "us")
	t.serveMetric("db.durable_query_us", median(dur.query), "us")
	// What a crash now would leave behind, for the recovery probe below.
	crash := filepath.Join(t.work, "data-crash")
	if err := copyDataDir(dir, crash); err != nil {
		ddb.Close()
		return err
	}
	// Close takes one checkpoint (snapshot + WAL rotation) and flushes.
	t.serveMetric("db.checkpoint_ms", t.rec.in("db.durable.checkpoint", func() { err = ddb.Close() })*1e3, "ms")
	if err != nil {
		return err
	}
	var rdb *sti.Database
	t.serveMetric("db.recover_ms", t.rec.in("db.durable.recover", func() {
		rdb, err = prog.Open(sti.WithPersistenceConfig(sti.PersistenceConfig{Dir: crash, SnapshotEvery: snapshotEvery}))
	})*1e3, "ms")
	if err != nil {
		return fmt.Errorf("recovery: %v", err)
	}
	rst := rdb.Stats()
	rdb.Close()
	t.res.attempted++
	for rel, n := range dur.stats.Relations {
		if rst.Relations[rel] != n {
			t.res.failed++
			t.res.problems = append(t.res.problems, fmt.Sprintf("recovered %s has %d tuples, want %d", rel, rst.Relations[rel], n))
			break
		}
	}
	for rel, n := range mem.stats.Relations {
		if dur.stats.Relations[rel] != n {
			t.res.failed++
			t.res.problems = append(t.res.problems, fmt.Sprintf("durable %s has %d tuples, memory %d", rel, dur.stats.Relations[rel], n))
			break
		}
	}
	return t.http(script, mem)
}

// http replays the script once more, one request at a time on one
// connection, against a real `sti serve -http` child, so that client latency
// minus the in-process latency of the same requests is what HTTP, JSON and
// the text protocol cost.
func (t *tracer) http(script []apply, mem *dbLat) error {
	prog := filepath.Join(t.work, t.w.program)
	if err := os.WriteFile(prog, []byte(t.w.source()), 0o644); err != nil {
		return err
	}
	srv, err := startServer(t.e, t.work, prog, "")
	if err != nil {
		return err
	}
	c := newClient(srv.base)
	defer c.close()
	fail := func(err error) error {
		srv.stop(true)
		return err
	}
	if err := c.waitReady(30 * time.Second); err != nil {
		return fail(err)
	}
	if err := c.preload(t.d, t.res); err != nil {
		return fail(err)
	}
	var applies, inserts, deletes, queries []float64
	for i, a := range script {
		id := t.rec.begin("http.apply")
		dt, err := c.apply(a)
		t.rec.end(id)
		t.res.attempted++
		if err != nil {
			return fail(err)
		}
		applies = append(applies, ms(dt))
		if a.del {
			deletes = append(deletes, ms(dt))
		} else {
			inserts = append(inserts, ms(dt))
		}
		id = t.rec.begin("http.query")
		dt, err = c.query(t.d.queries[i%len(t.d.queries)])
		t.rec.end(id)
		t.res.attempted++
		if err != nil {
			return fail(err)
		}
		queries = append(queries, ms(dt))
	}
	if _, err := srv.stop(false); err != nil {
		return err
	}
	// Insert batches only: a short script holds too few deletes for the
	// difference of two delete medians to mean anything.
	t.serveMetric("http.apply_overhead_us", median(inserts)*1e3-median(mem.insert), "us")
	t.serveMetric("http.query_overhead_us", median(queries)*1e3-median(mem.query), "us")
	t.serveMetric("http.insert_p50_ms", median(inserts), "ms")
	t.serveMetric("http.delete_p50_ms", median(deletes), "ms")
	t.serveMetric("http.query_p50_ms", median(queries), "ms")
	p99a, beyondA := percentile(applies, 0.99)
	p99q, beyondQ := percentile(queries, 0.99)
	t.serveMetric("http.apply_p99_ms", p99a, "ms")
	t.serveMetric("http.query_p99_ms", p99q, "ms")
	t.res.info("http.apply_samples", float64(len(applies)), "count")
	t.res.info("http.apply_beyond_p99", float64(beyondA), "count")
	t.res.info("http.query_beyond_p99", float64(beyondQ), "count")
	return nil
}
