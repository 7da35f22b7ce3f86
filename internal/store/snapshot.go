package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// Snapshots are whole-state checkpoints written atomically: the payload
// (encoded by the db layer) is framed with a magic, length, and checksum,
// written to a temp file, fsynced, then renamed into place. A reader either
// sees the complete verified snapshot or none at all — a crash mid-write
// leaves only a stale temp file, which open cleanup removes.
//
//	file  magic "STISNAP1" | len u64 | payload | crc32(payload) u32

const snapMagic = "STISNAP1"

// SnapshotPath names the generation-gen snapshot under dir.
func SnapshotPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d.snap", gen))
}

// ListSnapshots returns the generations of all snapshots under dir,
// ascending.
func ListSnapshots(dir string) ([]uint64, error) {
	return listGens(dir, "snap-", ".snap")
}

// WriteSnapshot atomically persists payload at path.
func WriteSnapshot(path string, payload []byte) error {
	var hdr [16]byte
	copy(hdr[:8], snapMagic)
	binary.BigEndian.PutUint64(hdr[8:], uint64(len(payload)))
	var foot [4]byte
	binary.BigEndian.PutUint32(foot[:], crc32.ChecksumIEEE(payload))
	return WriteFileAtomic(path, hdr[:], payload, foot[:])
}

// WriteFileAtomic replaces the file at path with the concatenated chunks so
// that a reader, also after a crash, finds either no file or a complete
// one: the chunks go to path+".tmp", which is fsynced and renamed into
// place, and then the directory is fsynced so the rename is durable. A
// crash before the rename leaves only the temp file, which LockDir sweeps.
// Every error is returned, except a directory fsync that fails with
// EINVAL or an "unsupported" errno (errors.ErrUnsupported): file systems
// that cannot sync a directory report one of those. Windows cannot fsync a
// directory at all, so there the directory is not synced. Without the
// directory sync the rename is as durable as the platform makes it.
func WriteFileAtomic(path string, chunks ...[]byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	for _, c := range chunks {
		if _, err = f.Write(c); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable; see WriteFileAtomic for the errors it accepts.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, errors.ErrUnsupported) {
		err = nil
	}
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadSnapshot loads and verifies the snapshot at path.
func ReadSnapshot(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 20 || string(raw[:8]) != snapMagic {
		return nil, fmt.Errorf("store: snapshot %s has bad header", path)
	}
	ln := binary.BigEndian.Uint64(raw[8:16])
	if uint64(len(raw)) != 20+ln {
		return nil, fmt.Errorf("store: snapshot %s truncated (%d of %d payload bytes)", path, len(raw)-20, ln)
	}
	payload := raw[16 : 16+ln]
	if binary.BigEndian.Uint32(raw[16+ln:]) != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("store: snapshot %s checksum mismatch", path)
	}
	return payload, nil
}
