// Package store holds the two halves of the durable layer.
//
// The production half is small: LockDir (one process per data directory),
// the CRC-framed write-ahead log (wal.go) and atomic snapshot files
// (snapshot.go). A durable database is WAL + snapshot over the ordinary
// in-memory relations; nothing else here is on any sti command's path.
//
// The other half is a §3 exhibit: Store/Table, an embedded LSM-style stack
// of one memtable over immutable sorted segment runs keyed by the
// order-preserving encoding from internal/tuple, which relation.NewPersistent
// wraps as a sixth Index adapter. It shows that a disk-backed representation
// slots in behind the de-specialized seam, and it stays only because
// perfbench's store.table_*, store.compactions, store.write_amp and
// relation.persist_* probes measure it: it goes once those probes do.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// TablesDir is the subdirectory an exhibit Store keeps its segment files in.
// A database's data directory may carry one from an older layout; it only
// ever held a rebuildable cache, so LockDir removes it.
const TablesDir = "tables"

// LockName is the advisory lock file guarding a data directory.
const LockName = "LOCK"

// DirLock is the exclusive advisory lock on a data directory. It dies with
// the process, so a crash needs no stale-lock cleanup.
type DirLock struct{ f *os.File }

// LockDir creates dir if needed, takes its lock (failing when another process
// holds it), and sweeps what a crash or an older layout left behind: *.tmp
// files from an interrupted snapshot write and a stale tables/ cache.
func LockDir(dir string) (*DirLock, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, LockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: data dir %s is locked by another process: %w", dir, err)
	}
	l := &DirLock{f: f}
	ents, err := os.ReadDir(dir)
	if err != nil {
		l.Release()
		return nil, err
	}
	for _, e := range ents {
		if e.Name() == TablesDir || filepath.Ext(e.Name()) == ".tmp" {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				l.Release()
				return nil, err
			}
		}
	}
	return l, nil
}

// Release drops the lock.
func (l *DirLock) Release() error {
	unlockFile(l.f)
	return l.f.Close()
}

// Options tune an exhibit Store. Zero values select the defaults.
type Options struct {
	// FlushKeys is the memtable size (in keys) that triggers a segment
	// flush. Default 32768.
	FlushKeys int
	// MaxSegments is the run count above which a table schedules background
	// compaction. Default 4.
	MaxSegments int
}

func (o Options) withDefaults() Options {
	if o.FlushKeys <= 0 {
		o.FlushKeys = 32768
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = 4
	}
	return o
}

// Store owns one directory's tables and their background compactor.
type Store struct {
	dir  string
	opts Options
	lock *DirLock

	mu     sync.Mutex
	tables map[string]*Table
	closed bool

	compactCh chan *Table
	wg        sync.WaitGroup

	flushes     atomic.Int64
	compactions atomic.Int64
	fsyncs      atomic.Int64
}

// Open locks dir, starts from an empty tables/ and starts the compactor.
func Open(dir string, opts Options) (*Store, error) {
	lock, err := LockDir(dir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, TablesDir), 0o755); err != nil {
		lock.Release()
		return nil, err
	}
	s := &Store{
		dir:       dir,
		opts:      opts.withDefaults(),
		lock:      lock,
		tables:    map[string]*Table{},
		compactCh: make(chan *Table, 128),
	}
	s.wg.Add(1)
	go s.compactor()
	return s, nil
}

// Table returns the named table, creating its directory on first use. Names
// must be unique per (relation, order); the relation layer derives them.
func (s *Store) Table(name string, keyLen int) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("store: %s is closed", s.dir)
	}
	if t, ok := s.tables[name]; ok {
		if t.keyLen != keyLen {
			return nil, fmt.Errorf("store: table %s reopened with keyLen %d (have %d)", name, keyLen, t.keyLen)
		}
		return t, nil
	}
	td := filepath.Join(s.dir, TablesDir, name)
	if err := os.MkdirAll(td, 0o755); err != nil {
		return nil, err
	}
	t := newTable(s, name, td, keyLen)
	s.tables[name] = t
	return t, nil
}

// scheduleCompact queues t for background compaction. The caller has set
// t.compacting; when the queue is saturated the request is dropped and the
// flag reset — the next flush simply re-triggers it.
func (s *Store) scheduleCompact(t *Table) {
	select {
	case s.compactCh <- t:
	default:
		t.mu.Lock()
		t.compacting = false
		t.mu.Unlock()
	}
}

func (s *Store) compactor() {
	defer s.wg.Done()
	for t := range s.compactCh {
		// Best-effort: a failed compaction leaves the stack as it was and
		// the next flush retries.
		_ = t.compact()
	}
}

// Stats is a point-in-time summary of the store's structural state.
type Stats struct {
	Tables      int
	Segments    int
	LiveKeys    int
	Flushes     int64
	Compactions int64
	Fsyncs      int64
}

// Stats gathers counters across all tables.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	tabs := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tabs = append(tabs, t)
	}
	s.mu.Unlock()
	st := Stats{
		Tables:      len(tabs),
		Flushes:     s.flushes.Load(),
		Compactions: s.compactions.Load(),
		Fsyncs:      s.fsyncs.Load(),
	}
	for _, t := range tabs {
		st.Segments += t.Segments()
		st.LiveKeys += t.Len()
	}
	return st
}

// Close stops the compactor, unmaps every table, and releases the directory
// lock. Tables are not flushed: the next Open starts empty.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.compactCh)
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	for _, t := range s.tables {
		t.close()
	}
	s.tables = map[string]*Table{}
	s.mu.Unlock()
	return s.lock.Release()
}
