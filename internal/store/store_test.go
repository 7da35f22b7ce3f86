package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

func key4(v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return b[:]
}

func openTest(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestTableAgainstMap drives a table with a random op mix and checks every
// observable (membership, size, full-range and sub-range cursors) against a
// plain map, with a flush threshold small enough to exercise segments,
// tombstone shadowing, and compaction swaps.
func TestTableAgainstMap(t *testing.T) {
	s := openTest(t, Options{FlushKeys: 64, MaxSegments: 2})
	tab, err := s.Table("r", 4)
	if err != nil {
		t.Fatalf("Table: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	model := map[uint32]bool{}
	check := func(step int) {
		t.Helper()
		if got := tab.Len(); got != len(model) {
			t.Fatalf("step %d: Len=%d want %d", step, got, len(model))
		}
		want := make([]uint32, 0, len(model))
		for v := range model {
			want = append(want, v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		cur := tab.Range(nil, nil)
		for i, v := range want {
			k, ok := cur.Next()
			if !ok {
				t.Fatalf("step %d: cursor ended at %d, want %d keys", step, i, len(want))
			}
			if got := binary.BigEndian.Uint32(k); got != v {
				t.Fatalf("step %d: cursor[%d]=%d want %d", step, i, got, v)
			}
		}
		if _, ok := cur.Next(); ok {
			t.Fatalf("step %d: cursor yielded extra key", step)
		}
	}
	for step := 0; step < 4000; step++ {
		v := uint32(rng.Intn(512))
		if rng.Intn(3) == 0 {
			if got := tab.Delete(key4(v)); got != model[v] {
				t.Fatalf("step %d: Delete(%d)=%v want %v", step, v, got, model[v])
			}
			delete(model, v)
		} else {
			if got := tab.Insert(key4(v)); got == model[v] {
				t.Fatalf("step %d: Insert(%d)=%v want %v", step, v, got, !model[v])
			}
			model[v] = true
		}
		if c := tab.Contains(key4(v)); c != model[v] {
			t.Fatalf("step %d: Contains(%d)=%v want %v", step, v, c, model[v])
		}
		if step%251 == 0 {
			check(step)
		}
	}
	check(-1)

	// Sub-range cursor.
	lo, hi := key4(100), key4(300)
	var want []uint32
	for v := range model {
		if v >= 100 && v < 300 {
			want = append(want, v)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	cur := tab.Range(lo, hi)
	for _, v := range want {
		k, ok := cur.Next()
		if !ok || binary.BigEndian.Uint32(k) != v {
			t.Fatalf("range cursor: got %v/%v want %d", k, ok, v)
		}
	}
	if _, ok := cur.Next(); ok {
		t.Fatal("range cursor overran hi bound")
	}

	// Clear drops everything, including on-disk runs.
	tab.Clear()
	if tab.Len() != 0 || tab.Contains(key4(1)) {
		t.Fatal("Clear left live keys")
	}
	if _, ok := tab.Range(nil, nil).Next(); ok {
		t.Fatal("Clear left cursor-visible keys")
	}
}

// TestCompactionConverges forces many flushes and verifies the run count
// settles at one while contents stay intact.
func TestCompactionConverges(t *testing.T) {
	s := openTest(t, Options{FlushKeys: 32, MaxSegments: 2})
	tab, _ := s.Table("r", 4)
	const n = 2000
	for i := 0; i < n; i++ {
		tab.Insert(key4(uint32(i)))
	}
	// Deleting a slice creates tombstones that compaction must drop.
	for i := 0; i < n; i += 3 {
		tab.Delete(key4(uint32(i)))
	}
	if err := tab.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// Drain pending compactions deterministically.
	s.mu.Lock()
	close(s.compactCh)
	s.mu.Unlock()
	s.wg.Wait()
	for tab.Segments() > 1 {
		if err := tab.compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
	}
	tab.mu.Lock()
	tab.sweepLocked()
	tab.mu.Unlock()
	want := 0
	for i := 0; i < n; i++ {
		live := i%3 != 0
		if live {
			want++
		}
		if tab.Contains(key4(uint32(i))) != live {
			t.Fatalf("after compaction: Contains(%d) != %v", i, live)
		}
	}
	if tab.Len() != want {
		t.Fatalf("after compaction: Len=%d want %d", tab.Len(), want)
	}
	// The compacted run must have shed the dropped tombstones on disk.
	ents, err := os.ReadDir(filepath.Join(s.dir, TablesDir, "r"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("want 1 segment file after sweep, have %v", names)
	}
	// Make Close safe after we closed the channel ourselves.
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	for _, tb := range s.tables {
		tb.close()
	}
	s.lock.Release()
}

func TestDirLockExcludesSecondOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open of locked dir succeeded")
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s2.Close()
}

func TestTablesDirIsWipedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{FlushKeys: 4})
	tab, _ := s.Table("r", 4)
	for i := 0; i < 32; i++ {
		tab.Insert(key4(uint32(i)))
	}
	tab.Flush()
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	tab2, _ := s2.Table("r", 4)
	if tab2.Len() != 0 {
		t.Fatalf("tables dir not wiped: Len=%d", tab2.Len())
	}
}

func TestWALReplayAndTornTail(t *testing.T) {
	dir := t.TempDir()
	path := WALPath(dir, 3)
	w, err := CreateWAL(path, false)
	if err != nil {
		t.Fatalf("CreateWAL: %v", err)
	}
	var want [][]byte
	for i := 0; i < 50; i++ {
		rec := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, rec)
		if err := w.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	replay := func(p string) ([][]byte, int) {
		var got [][]byte
		n, err := ReplayWAL(p, func(b []byte) error {
			got = append(got, append([]byte(nil), b...))
			return nil
		})
		if err != nil {
			t.Fatalf("ReplayWAL: %v", err)
		}
		return got, n
	}
	got, n := replay(path)
	if n != len(want) {
		t.Fatalf("replay count %d want %d", n, len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: %q want %q", i, got[i], want[i])
		}
	}

	// Torn tails of every length lose only the final record.
	raw, _ := os.ReadFile(path)
	for cut := 1; cut <= 18; cut += 4 {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.log", cut))
		os.WriteFile(torn, raw[:len(raw)-cut], 0o644)
		_, n := replay(torn)
		if n != len(want)-1 {
			t.Fatalf("torn by %d: replayed %d want %d", cut, n, len(want)-1)
		}
	}

	// Corruption mid-log is an error, not silence. Byte 25 sits inside the
	// second record's payload (records are 4+10+4 bytes).
	bad := append([]byte(nil), raw...)
	bad[25] ^= 0xFF
	badPath := filepath.Join(dir, "bad.log")
	os.WriteFile(badPath, bad, 0o644)
	if _, err := ReplayWAL(badPath, func([]byte) error { return nil }); err == nil {
		t.Fatal("mid-log corruption replayed without error")
	}

	if gens, _ := ListWALs(dir); len(gens) != 1 || gens[0] != 3 {
		t.Fatalf("ListWALs = %v, want [3]", gens)
	}
}

func TestSnapshotRoundTripAndAtomicity(t *testing.T) {
	dir := t.TempDir()
	payload := make([]byte, 100_000)
	rand.New(rand.NewSource(1)).Read(payload)
	path := SnapshotPath(dir, 7)
	if err := WriteSnapshot(path, payload); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("snapshot payload mismatch")
	}
	if gens, _ := ListSnapshots(dir); len(gens) != 1 || gens[0] != 7 {
		t.Fatalf("ListSnapshots = %v, want [7]", gens)
	}
	// A truncated snapshot must be rejected, not silently half-read.
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, raw[:len(raw)-10], 0o644)
	if _, err := ReadSnapshot(path); err == nil {
		t.Fatal("truncated snapshot read succeeded")
	}
	// Flipped payload byte must fail the checksum.
	raw[30] ^= 0x01
	os.WriteFile(path, raw, 0o644)
	if _, err := ReadSnapshot(path); err == nil {
		t.Fatal("corrupted snapshot read succeeded")
	}
}

func TestSegmentRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.seg")
	ents := []memEnt{{string(key4(1)), opSet}, {string(key4(2)), opSet}}
	if _, err := writeSegment(path, 4, &memSource{ents: ents}); err != nil {
		t.Fatalf("writeSegment: %v", err)
	}
	if g, err := openSegment(path); err != nil {
		t.Fatalf("openSegment: %v", err)
	} else {
		g.close()
	}
	raw, _ := os.ReadFile(path)
	raw[segHeaderSize] ^= 0xFF
	os.WriteFile(path, raw, 0o644)
	if g, err := openSegment(path); err == nil {
		g.close()
		t.Fatal("corrupted segment opened")
	}
}

func TestSampleKeysPartitions(t *testing.T) {
	s := openTest(t, Options{FlushKeys: 256})
	tab, _ := s.Table("r", 4)
	for i := 0; i < 1000; i++ {
		tab.Insert(key4(uint32(i * 3)))
	}
	seps := tab.SampleKeys(4)
	if len(seps) == 0 {
		t.Fatal("no separators for 1000-key table")
	}
	for i := 1; i < len(seps); i++ {
		if bytes.Compare(seps[i-1], seps[i]) >= 0 {
			t.Fatalf("separators not ascending: %v", seps)
		}
	}
}
