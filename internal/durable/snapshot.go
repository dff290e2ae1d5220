package durable

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/crdt"
)

// A snapshot file holds the full change history of every component at
// compaction time, as a single CRC-framed payload in the WAL record
// encoding (crdt.AppendComponents).
//
// The file name snap-<seq>.snap records the first WAL segment NOT
// covered by the snapshot: recovery loads the snapshot, then replays
// segments with sequence ≥ seq. Compaction writes the snapshot via a
// temp file + rename, so a crash mid-snapshot leaves the previous
// snapshot (or none) intact, never a half-written one that parses.

// writeSnapshotFile atomically writes the snapshot covering everything
// before WAL segment seq.
func writeSnapshotFile(dir string, seq uint64, components map[string][]crdt.Change) error {
	frame := appendFrame(nil, crdt.AppendComponents(nil, components, nil))
	tmp := filepath.Join(dir, snapName(seq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: snapshot create: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		_ = f.Close()
		return fmt.Errorf("durable: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("durable: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapName(seq))); err != nil {
		return fmt.Errorf("durable: snapshot rename: %w", err)
	}
	return syncDir(dir)
}

// loadSnapshotFile reads and validates one snapshot file. Corruption
// (torn frame, bad CRC) is reported via errBadFrame so recovery can
// fall back to an older snapshot or full WAL replay. A payload that
// checksums but does not decode, such as one of a newer change format,
// is an error instead: the segments it covers are gone, so falling
// back would silently lose them.
func loadSnapshotFile(path string) (map[string][]crdt.Change, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("durable: snapshot open: %w", err)
	}
	defer func() { _ = f.Close() }()
	payload, err := readFrame(f)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", filepath.Base(path), err)
	}
	components, err := crdt.DecodeComponents(payload)
	if err != nil {
		return nil, fmt.Errorf("durable: snapshot %s: %w", filepath.Base(path), err)
	}
	return components, nil
}
