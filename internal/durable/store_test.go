package durable

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/crdt"
	"repro/internal/obs"
)

// docChanges builds a committed doc with n map writes and returns its
// full change log.
func docChanges(t *testing.T, actor crdt.ActorID, n int) []crdt.Change {
	t.Helper()
	d := crdt.NewDoc(actor)
	for i := 0; i < n; i++ {
		if err := d.PutScalar(crdt.RootObj, "k", float64(i)); err != nil {
			t.Fatal(err)
		}
		d.Commit("")
	}
	return d.GetChanges(nil)
}

// recoveredDoc replays one recovered component into a fresh doc.
func recoveredDoc(t *testing.T, rec *Recovery, comp string, actor crdt.ActorID) *crdt.Doc {
	t.Helper()
	d, err := crdt.LoadChanges(actor, rec.Components[comp])
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			sub := filepath.Join(dir, policy.String())
			st, err := Open(sub, Options{Fsync: policy, FsyncEvery: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if !st.Recovery().Empty() {
				t.Fatal("fresh dir should recover empty")
			}
			chs := docChanges(t, "a", 10)
			if err := st.Append(map[string][]crdt.Change{"json": chs[:5]}); err != nil {
				t.Fatal(err)
			}
			if err := st.Append(map[string][]crdt.Change{"json": chs[5:]}); err != nil {
				t.Fatal(err)
			}
			if err := st.Append(map[string][]crdt.Change{"tables": docChanges(t, "b", 3)}); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			st2, err := Open(sub, Options{Fsync: policy})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = st2.Close() }()
			rec := st2.Recovery()
			if rec.Empty() || rec.Torn {
				t.Fatalf("recovery: empty=%v torn=%v", rec.Empty(), rec.Torn)
			}
			if rec.ReplayedFrames != 3 {
				t.Fatalf("replayed %d frames, want 3", rec.ReplayedFrames)
			}
			if got := len(rec.Components["json"]); got != 10 {
				t.Fatalf("json changes: got %d want 10", got)
			}
			d := recoveredDoc(t, rec, "json", "a")
			if v, _ := d.MapGet(crdt.RootObj, "k"); v.Num != 9 {
				t.Fatalf("recovered value %v, want 9", v.Num)
			}
			heads := rec.ComponentHeads()
			if heads["json"]["a"] != 10 || heads["tables"]["b"] != 3 {
				t.Fatalf("component heads wrong: %v", heads)
			}
		})
	}
}

func TestSegmentRotationAndRecoveryAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	chs := docChanges(t, "a", 40)
	for _, ch := range chs {
		if err := st.Append(map[string][]crdt.Change{"json": []crdt.Change{ch}}); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Rotations == 0 {
		t.Fatalf("expected rotations with 256-byte segments, got %+v", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSeqs(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %v", segs)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st2.Close() }()
	rec := st2.Recovery()
	if len(rec.Components["json"]) != 40 || rec.Torn {
		t.Fatalf("recovered %d changes (torn=%v), want 40", len(rec.Components["json"]), rec.Torn)
	}
	d := recoveredDoc(t, rec, "json", "a")
	if v, _ := d.MapGet(crdt.RootObj, "k"); v.Num != 39 {
		t.Fatalf("recovered value %v, want 39", v.Num)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	d := crdt.NewDoc("a")
	for i := 0; i < 30; i++ {
		if err := d.PutScalar(crdt.RootObj, "k", float64(i)); err != nil {
			t.Fatal(err)
		}
		d.Commit("")
	}
	if err := st.Append(map[string][]crdt.Change{"json": d.GetChanges(nil)}); err != nil {
		t.Fatal(err)
	}
	// Compact: full history becomes the snapshot; covered segments go.
	if err := st.Snapshot(map[string][]crdt.Change{"json": d.GetChanges(nil)}); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Snapshots != 1 || st.Stats().SegmentsDeleted == 0 {
		t.Fatalf("compaction stats: %+v", st.Stats())
	}
	// Post-snapshot traffic lands in the WAL tail.
	if err := d.PutScalar(crdt.RootObj, "k", 99.0); err != nil {
		t.Fatal(err)
	}
	d.Commit("")
	tail := d.GetChanges(crdt.VersionVector{"a": 30})
	if err := st.Append(map[string][]crdt.Change{"json": tail}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st2.Close() }()
	rec := st2.Recovery()
	if !rec.SnapshotLoaded {
		t.Fatal("recovery should load the snapshot")
	}
	if rec.ReplayedFrames != 1 {
		t.Fatalf("replayed %d frames, want 1 (tail only)", rec.ReplayedFrames)
	}
	d2 := recoveredDoc(t, rec, "json", "a")
	if v, _ := d2.MapGet(crdt.RootObj, "k"); v.Num != 99 {
		t.Fatalf("recovered value %v, want 99", v.Num)
	}
	if !reflect.DeepEqual(d.ToGo(), d2.ToGo()) {
		t.Fatal("snapshot+tail recovery does not match original state")
	}
}

func TestRepeatedSnapshotsKeepOnlyLatest(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	d := crdt.NewDoc("a")
	for i := 0; i < 3; i++ {
		if err := d.PutScalar(crdt.RootObj, "k", float64(i)); err != nil {
			t.Fatal(err)
		}
		d.Commit("")
		if err := st.Append(map[string][]crdt.Change{"json": d.GetChanges(crdt.VersionVector{"a": uint64(i)})}); err != nil {
			t.Fatal(err)
		}
		if err := st.Snapshot(map[string][]crdt.Change{"json": d.GetChanges(nil)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := listSeqs(dir, snapPrefix, snapSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("want exactly one snapshot after repeated compaction, got %v", snaps)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st2.Close() }()
	d2 := recoveredDoc(t, st2.Recovery(), "json", "a")
	if v, _ := d2.MapGet(crdt.RootObj, "k"); v.Num != 2 {
		t.Fatalf("recovered value %v, want 2", v.Num)
	}
}

func TestStoreMetricsAndStats(t *testing.T) {
	o := obs.New()
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncAlways, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(map[string][]crdt.Change{"json": docChanges(t, "a", 2)}); err != nil {
		t.Fatal(err)
	}
	if c := o.Counter("durable.wal.appends").Value(); c != 1 {
		t.Fatalf("durable.wal.appends = %d, want 1", c)
	}
	if c := o.Counter("durable.wal.fsyncs").Value(); c != 1 {
		t.Fatalf("durable.wal.fsyncs = %d, want 1 under FsyncAlways", c)
	}
	if c := o.Counter("durable.wal.bytes").Value(); c == 0 {
		t.Fatal("durable.wal.bytes not recorded")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen under a fresh registry: recovery histogram + replay count.
	o2 := obs.New()
	st2, err := Open(dir, Options{Obs: o2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st2.Close() }()
	if n := o2.Histogram("durable.recovery_ms").Count(); n != 1 {
		t.Fatalf("durable.recovery_ms count = %d, want 1", n)
	}
	if c := o2.Counter("durable.snapshot.replay_frames").Value(); c != 1 {
		t.Fatalf("durable.snapshot.replay_frames = %d, want 1", c)
	}
	if st2.Recovery().Duration <= 0 {
		t.Fatal("recovery duration not recorded")
	}
}

func TestClosedStoreRejectsAppends(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
	if err := st.Append(map[string][]crdt.Change{"json": docChanges(t, "a", 1)}); err == nil {
		t.Fatal("append after close should fail")
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "Interval": FsyncInterval, " never ": FsyncNever,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy should error")
	}
}

func TestEmptyAppendIsNoop(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	if err := st.Append(map[string][]crdt.Change{"json": nil}); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Appends != 0 {
		t.Fatal("empty append should not count")
	}
}

func TestOpenCreatesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "data")
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}
}
