package durable

// Crash-scenario tests: simulate a process dying mid-write by
// truncating or bit-flipping the tail of the newest WAL segment (what a
// torn write leaves behind), then prove Recover() never surfaces the
// damaged frame and the store stays appendable afterwards.

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/crdt"
)

// populate opens a store, appends n single-change frames, and closes
// it, returning the doc whose history was written.
func populate(t *testing.T, dir string, n int) *crdt.Doc {
	t.Helper()
	st, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	d := crdt.NewDoc("a")
	for i := 0; i < n; i++ {
		if err := d.PutScalar(crdt.RootObj, "k", float64(i)); err != nil {
			t.Fatal(err)
		}
		d.Commit("")
		if err := st.Append(map[string][]crdt.Change{"json": d.GetChanges(crdt.VersionVector{"a": uint64(i)})}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return d
}

// lastSegment returns the path of the newest WAL segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	seqs, err := listSeqs(dir, segPrefix, segSuffix)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no segments: %v %v", seqs, err)
	}
	return filepath.Join(dir, segName(seqs[len(seqs)-1]))
}

// truncateFile chops n bytes off the end of path.
func truncateFile(t *testing.T, path string, n int64) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() < n {
		t.Fatalf("cannot truncate %d bytes off %d-byte file", n, st.Size())
	}
	if err := os.Truncate(path, st.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// flipByte XOR-flips the byte n bytes before the end of path.
func flipByte(t *testing.T, path string, fromEnd int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	off := st.Size() - fromEnd
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverTornFinalFrame(t *testing.T) {
	// A torn write can cut the frame anywhere: inside the payload,
	// inside the 8-byte header, or leave just 1 byte of it.
	for _, cut := range []int64{1, 3, 7, 9, 20} {
		dir := t.TempDir()
		populate(t, dir, 5)
		truncateFile(t, lastSegment(t, dir), cut)

		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		rec := st.Recovery()
		if !rec.Torn {
			t.Fatalf("cut=%d: torn tail not reported", cut)
		}
		// The damaged final frame is dropped; the first 4 survive.
		if got := len(rec.Components["json"]); got != 4 {
			t.Fatalf("cut=%d: recovered %d changes, want 4", cut, got)
		}
		d, err := crdt.LoadChanges("a", rec.Components["json"])
		if err != nil {
			t.Fatalf("cut=%d: recovered state corrupt: %v", cut, err)
		}
		if v, _ := d.MapGet(crdt.RootObj, "k"); v.Num != 3 {
			t.Fatalf("cut=%d: recovered value %v, want 3", cut, v.Num)
		}
		// The store is appendable after truncating the torn tail, and a
		// further recovery sees the new frame cleanly.
		if err := d.PutScalar(crdt.RootObj, "k", 77.0); err != nil {
			t.Fatal(err)
		}
		d.Commit("")
		if err := st.Append(map[string][]crdt.Change{"json": d.GetChanges(crdt.VersionVector{"a": 4})}); err != nil {
			t.Fatalf("cut=%d: append after torn recovery: %v", cut, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		st2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec2 := st2.Recovery()
		if rec2.Torn {
			t.Fatalf("cut=%d: second recovery still torn", cut)
		}
		d2, err := crdt.LoadChanges("a", rec2.Components["json"])
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := d2.MapGet(crdt.RootObj, "k"); v.Num != 77 {
			t.Fatalf("cut=%d: post-repair value %v, want 77", cut, v.Num)
		}
		_ = st2.Close()
	}
}

func TestRecoverFlippedPayloadByte(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir, 5)
	// Flip a byte inside the final frame's payload: CRC must catch it.
	flipByte(t, lastSegment(t, dir), 2)

	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	rec := st.Recovery()
	if !rec.Torn {
		t.Fatal("bit flip not detected as corruption")
	}
	if got := len(rec.Components["json"]); got != 4 {
		t.Fatalf("recovered %d changes, want 4 (corrupt frame dropped)", got)
	}
	if _, err := crdt.LoadChanges("a", rec.Components["json"]); err != nil {
		t.Fatalf("recovered state corrupt: %v", err)
	}
}

func TestRecoverDropsSegmentsAfterTornFrame(t *testing.T) {
	// Corruption mid-log invalidates everything after it: with tiny
	// segments, flip a byte in an early segment and check recovery keeps
	// only the prefix and removes the untrusted later segments.
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	d := crdt.NewDoc("a")
	for i := 0; i < 12; i++ {
		if err := d.PutScalar(crdt.RootObj, "k", float64(i)); err != nil {
			t.Fatal(err)
		}
		d.Commit("")
		if err := st.Append(map[string][]crdt.Change{"json": d.GetChanges(crdt.VersionVector{"a": uint64(i)})}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := listSeqs(dir, segPrefix, segSuffix)
	if err != nil || len(seqs) < 3 {
		t.Fatalf("need ≥3 segments, got %v (%v)", seqs, err)
	}
	victim := seqs[1]
	flipByte(t, filepath.Join(dir, segName(victim)), 2)

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := st2.Recovery()
	if !rec.Torn {
		t.Fatal("mid-log corruption not reported")
	}
	got := len(rec.Components["json"])
	if got == 0 || got >= 12 {
		t.Fatalf("recovered %d changes, want a strict prefix", got)
	}
	if _, err := crdt.LoadChanges("a", rec.Components["json"]); err != nil {
		t.Fatalf("recovered prefix corrupt: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := listSeqs(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range after {
		if seq > victim {
			t.Fatalf("segment %d survived past corrupt segment %d: %v", seq, victim, after)
		}
	}
}

func TestRecoverCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	d := crdt.NewDoc("a")
	for i := 0; i < 6; i++ {
		if err := d.PutScalar(crdt.RootObj, "k", float64(i)); err != nil {
			t.Fatal(err)
		}
		d.Commit("")
		if err := st.Append(map[string][]crdt.Change{"json": d.GetChanges(crdt.VersionVector{"a": uint64(i)})}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Snapshot(map[string][]crdt.Change{"json": d.GetChanges(nil)}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := listSeqs(dir, snapPrefix, snapSuffix)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want one snapshot, got %v (%v)", snaps, err)
	}
	flipByte(t, filepath.Join(dir, snapName(snaps[0])), 10)

	// The snapshot is damaged and compaction already deleted the covered
	// segments, so only a partial WAL prefix remains — but Recover()
	// must still come up, torn-flagged, with whatever is intact (here:
	// nothing, since all covered segments are gone).
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery must survive a corrupt snapshot: %v", err)
	}
	rec := st2.Recovery()
	if rec.SnapshotLoaded {
		t.Fatal("corrupt snapshot must not be trusted")
	}
	if !rec.Torn {
		t.Fatal("corrupt snapshot should be reported as damage")
	}
	if _, err := crdt.LoadChanges("a", rec.Components["json"]); err != nil {
		t.Fatalf("fallback state corrupt: %v", err)
	}
	// Still appendable: a replica would now do a full resync from its
	// peer and repopulate the log.
	if err := st2.Append(map[string][]crdt.Change{"json": d.GetChanges(nil)}); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st3.Close() }()
	d3, err := crdt.LoadChanges("a", st3.Recovery().Components["json"])
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := d3.MapGet(crdt.RootObj, "k"); v.Num != 5 {
		t.Fatalf("resynced value %v, want 5", v.Num)
	}
}

func TestRecoverCorruptSnapshotPrefersOlderSnapshot(t *testing.T) {
	// Build two snapshot generations by hand: take the first snapshot,
	// copy it aside, take a second snapshot, then restore the first
	// under its original name and corrupt the second. Recovery must fall
	// back to the intact older snapshot plus the WAL tail after it.
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	d := crdt.NewDoc("a")
	commit := func(v float64) {
		t.Helper()
		if err := d.PutScalar(crdt.RootObj, "k", v); err != nil {
			t.Fatal(err)
		}
		d.Commit("")
	}
	commit(1)
	if err := st.Append(map[string][]crdt.Change{"json": d.GetChanges(nil)}); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(map[string][]crdt.Change{"json": d.GetChanges(nil)}); err != nil {
		t.Fatal(err)
	}
	snaps, _ := listSeqs(dir, snapPrefix, snapSuffix)
	firstSnap := filepath.Join(dir, snapName(snaps[0]))
	saved, err := os.ReadFile(firstSnap)
	if err != nil {
		t.Fatal(err)
	}
	commit(2)
	if err := st.Append(map[string][]crdt.Change{"json": d.GetChanges(crdt.VersionVector{"a": 1})}); err != nil {
		t.Fatal(err)
	}
	// The k=2 frame lives in the segment at the first snapshot's
	// boundary; the second compaction will delete it, so keep a copy.
	tailSeg := filepath.Join(dir, segName(snaps[0]))
	savedSeg, err := os.ReadFile(tailSeg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(map[string][]crdt.Change{"json": d.GetChanges(nil)}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the older snapshot and its tail segment (compaction had
	// pruned both) and corrupt the newer snapshot.
	if err := os.WriteFile(firstSnap, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tailSeg, savedSeg, 0o644); err != nil {
		t.Fatal(err)
	}
	snaps, _ = listSeqs(dir, snapPrefix, snapSuffix)
	if len(snaps) != 2 {
		t.Fatalf("want two snapshots, got %v", snaps)
	}
	flipByte(t, filepath.Join(dir, snapName(snaps[1])), 5)

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st2.Close() }()
	rec := st2.Recovery()
	if !rec.SnapshotLoaded || !rec.Torn {
		t.Fatalf("want older-snapshot fallback with torn flag, got loaded=%v torn=%v",
			rec.SnapshotLoaded, rec.Torn)
	}
	d2, err := crdt.LoadChanges("a", rec.Components["json"])
	if err != nil {
		t.Fatal(err)
	}
	// Older snapshot (k=1) + replayed WAL tail (k=2) = current state.
	if v, _ := d2.MapGet(crdt.RootObj, "k"); v.Num != 2 {
		t.Fatalf("recovered value %v, want 2", v.Num)
	}
}

// TestRecoverTornMultiComponentAppend tears the last of two
// three-component appends at cuts across its frame and checks recovery
// keeps the first append whole and drops the second whole: never some
// of its components without the others.
func TestRecoverTornMultiComponentAppend(t *testing.T) {
	comps := []string{"files", "json", "tables"}
	batch := func(round int) map[string][]crdt.Change {
		out := map[string][]crdt.Change{}
		for _, c := range comps {
			out[c] = docChanges(t, crdt.ActorID(c), 2*round)[2*(round-1):]
		}
		return out
	}
	probe := t.TempDir()
	st, err := Open(probe, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(batch(1)); err != nil {
		t.Fatal(err)
	}
	first, err := os.Stat(lastSegment(t, probe))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(batch(2)); err != nil {
		t.Fatal(err)
	}
	_ = st.Close()
	both, err := os.Stat(lastSegment(t, probe))
	if err != nil {
		t.Fatal(err)
	}
	frame := both.Size() - first.Size()

	for cut := int64(1); cut < frame; cut++ {
		// Every cut that removes only the payload's last bytes or lands
		// in the 8-byte header, and a sample of the cuts in between.
		if cut > 8 && cut < frame-9 && cut%13 != 0 {
			continue
		}
		dir := t.TempDir()
		st, err := Open(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		for round := 1; round <= 2; round++ {
			if err := st.Append(batch(round)); err != nil {
				t.Fatal(err)
			}
		}
		_ = st.Close()
		truncateFile(t, lastSegment(t, dir), cut)

		st, err = Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		rec := st.Recovery()
		if !rec.Torn {
			t.Fatalf("cut=%d: torn tail not reported", cut)
		}
		for _, c := range comps {
			if got := len(rec.Components[c]); got != 2 {
				t.Fatalf("cut=%d: component %s recovered %d changes, want the first append's 2", cut, c, got)
			}
		}
		_ = st.Close()
	}
}
