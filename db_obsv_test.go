package sti

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"testing"
	"time"
)

const obsvTC = `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.input edge
.output path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`

func openObsvDB(t *testing.T, opts ...Option) *Database {
	t.Helper()
	db, err := MustParse(obsvTC).Open(opts...)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func seedChain(t *testing.T, db *Database, n int) {
	t.Helper()
	b := db.NewBatch()
	for i := 0; i < n; i++ {
		b.Add("edge", i, i+1)
	}
	if err := db.Apply(b); err != nil {
		t.Fatalf("apply: %v", err)
	}
}

// The disabled observability path must add zero allocations to Query and
// Apply: a database opened without WithObservability allocates exactly as
// much per operation as one opened with it (and the obsv package's own
// AllocsPerRun tests prove the enabled Start/Finish pair is free too).
func TestObservabilityZeroAllocParity(t *testing.T) {
	plain := openObsvDB(t)
	instr := openObsvDB(t, WithObservability(ObservabilityConfig{}))
	seedChain(t, plain, 4)
	seedChain(t, instr, 4)
	if plain.Observer() != nil {
		t.Fatal("plain database has an observer")
	}
	if instr.Observer() == nil {
		t.Fatal("instrumented database has no observer")
	}

	queryAllocs := func(db *Database) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := db.Query("path", 0, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	applyAllocs := func(db *Database) float64 {
		return testing.AllocsPerRun(100, func() {
			if err := db.Apply(db.NewBatch()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if p, i := queryAllocs(plain), queryAllocs(instr); p != i {
		t.Fatalf("Query allocations diverge: plain %.1f, instrumented %.1f", p, i)
	}
	if p, i := applyAllocs(plain), applyAllocs(instr); p != i {
		t.Fatalf("Apply allocations diverge: plain %.1f, instrumented %.1f", p, i)
	}
}

// An Apply crossing the slow threshold emits exactly one structured record
// carrying the request ID and the engine profile group.
func TestSlowApplyEmitsProfileRecord(t *testing.T) {
	var buf bytes.Buffer
	db := openObsvDB(t, WithObservability(ObservabilityConfig{
		Logger:      slog.New(slog.NewJSONHandler(&buf, nil)),
		SlowRequest: time.Nanosecond,
	}))
	seedChain(t, db, 3)

	dec := json.NewDecoder(&buf)
	var rec map[string]any
	if err := dec.Decode(&rec); err != nil {
		t.Fatalf("slow log is not one JSON record: %v (buf %q)", err, buf.String())
	}
	if rec["msg"] != "slow request" || rec["op"] != "apply" || rec["outcome"] != "incremental" {
		t.Fatalf("record = %v", rec)
	}
	rid, _ := rec["request"].(string)
	if !strings.HasPrefix(rid, "r") {
		t.Fatalf("record carries no request ID: %v", rec)
	}
	eng, ok := rec["engine"].(map[string]any)
	if !ok {
		t.Fatalf("record carries no engine profile: %v", rec)
	}
	for _, key := range []string{"epoch", "applies", "incremental_applies", "recomputes", "phase"} {
		if _, present := eng[key]; !present {
			t.Fatalf("engine profile missing %s: %v", eng, rec)
		}
	}
	// The record reports the epoch this apply published, not the one it
	// started from.
	if eng["epoch"] != float64(1) {
		t.Fatalf("engine epoch = %v, want 1: %v", eng["epoch"], rec)
	}
	if dec.More() {
		t.Fatal("one slow apply emitted more than one record")
	}
	if db.Observer().Stats().Slow != 1 {
		t.Fatalf("slow counter = %d", db.Observer().Stats().Slow)
	}
}

// Slow reads attach the lock-free profile: reads hold no writer lock, so
// their records carry only the atomically mirrored epoch and phase.
func TestSlowQueryEmitsReadProfile(t *testing.T) {
	var buf bytes.Buffer
	db := openObsvDB(t, WithObservability(ObservabilityConfig{
		Logger:      slog.New(slog.NewJSONHandler(&buf, nil)),
		SlowRequest: time.Nanosecond,
	}))
	seedChain(t, db, 3)
	buf.Reset() // drop the slow-apply record from seeding
	if _, err := db.Query("path", 0, nil); err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.NewDecoder(&buf).Decode(&rec); err != nil {
		t.Fatalf("slow log is not one JSON record: %v (buf %q)", err, buf.String())
	}
	if rec["msg"] != "slow request" || rec["op"] != "query" || rec["detail"] != "path" {
		t.Fatalf("record = %v", rec)
	}
	eng, ok := rec["engine"].(map[string]any)
	if !ok {
		t.Fatalf("record carries no engine profile: %v", rec)
	}
	if eng["epoch"] != float64(1) || eng["phase"] != "ready" {
		t.Fatalf("read profile = %v", eng)
	}
	if _, present := eng["applies"]; present {
		t.Fatalf("read profile must not expose lock-guarded counters: %v", eng)
	}
}

// Stats carries the request-level snapshot and the cumulative
// fallback-reason counts, and both survive JSON marshaling (the expvar
// sti.db blob publishes exactly this struct).
func TestStatsCarriesRequestsAndFallbackReasons(t *testing.T) {
	db := openObsvDB(t, WithObservability(ObservabilityConfig{}))
	seedChain(t, db, 3)
	// Deleting a derived tuple loses the incremental path: a recorded fallback.
	if err := db.Apply(db.NewBatch().Delete("path", 0, 1)); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if rows, err := db.Query("path", 0, nil); err != nil || len(rows) == 0 {
		t.Fatalf("query hit: %v rows, err %v", len(rows), err)
	}
	if rows, err := db.Query("path", 99, nil); err != nil || len(rows) != 0 {
		t.Fatalf("query miss: %v rows, err %v", len(rows), err)
	}

	st := db.Stats()
	const reason = `batch deletes tuples of "path", which is not an input relation`
	if st.FallbackReasons[reason] != 1 || len(st.FallbackReasons) != 1 {
		t.Fatalf("fallback reasons = %v", st.FallbackReasons)
	}
	if st.Requests == nil {
		t.Fatal("stats carry no request snapshot")
	}
	series := map[string]bool{}
	for _, s := range st.Requests.Series {
		series[s.Op+"/"+s.Outcome] = true
	}
	for _, want := range []string{"apply/fallback", "query/ok", "query/miss"} {
		if !series[want] {
			t.Fatalf("request snapshot missing %s series: %+v", want, st.Requests.Series)
		}
	}
	enc, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"fallback_reasons"`, `"requests"`, `"op":"query"`} {
		if !strings.Contains(string(enc), want) {
			t.Fatalf("stats JSON missing %s: %s", want, enc)
		}
	}
}

// Every database series of a scrape comes from one Stats snapshot, so the
// counters one Apply moves together never disagree within a scrape, even
// while incremental applies and recompute fallbacks stream past it.
func TestMetricsScrapeConsistent(t *testing.T) {
	for _, leg := range []struct {
		name    string
		persist bool
	}{{"mem", false}, {"data", true}} {
		t.Run(leg.name, func(t *testing.T) {
			opts := []Option{WithObservability(ObservabilityConfig{})}
			if leg.persist {
				opts = append(opts, WithPersistenceConfig(PersistenceConfig{Dir: t.TempDir(), SnapshotEvery: 16}))
			}
			db := openObsvDB(t, opts...)
			const applies, nodes = 300, 20
			done := make(chan error, 1)
			go func() {
				for i := 0; i < applies; i++ {
					b := db.NewBatch().Add("edge", i%nodes, (i+1)%nodes)
					switch i % 3 {
					case 1: // an incremental delete of an input fact
						b.Delete("edge", (i+5)%nodes, (i+6)%nodes)
					case 2: // path is derived: a recompute fallback
						b.Delete("path", (i+1)%nodes, (i+2)%nodes)
					}
					if err := db.Apply(b); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			scrapes, torn, first := 0, 0, ""
			for running := true; running; {
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("apply: %v", err)
					}
					running = false
				default:
				}
				var buf bytes.Buffer
				if err := db.WriteMetrics(&buf); err != nil {
					t.Fatal(err)
				}
				m := scalarSamples(buf.String())
				ok := m["sti_db_applies_total"] == m["sti_db_incremental_applies_total"]+m["sti_db_recomputes_total"] &&
					m["sti_db_epoch"] == m["sti_db_applies_total"]
				if leg.persist {
					ok = ok && m["sti_persist_wal_records_total"] == m["sti_persist_applies_since_snapshot"]
				}
				scrapes++
				if !ok {
					if torn++; first == "" {
						first = fmt.Sprint(m)
					}
				}
			}
			t.Logf("%d scrapes", scrapes)
			if torn > 0 {
				t.Fatalf("%d of %d scrapes torn; first: %s", torn, scrapes, first)
			}
			if st := db.Stats(); st.AppliesIncremental == 0 || st.AppliesFallback == 0 || st.Applies != applies {
				t.Fatalf("stream did not mix the paths: %+v", st)
			}
		})
	}
}

// scalarSamples parses the unlabeled samples of an exposition.
func scalarSamples(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}
