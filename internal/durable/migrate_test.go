package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/crdt"
)

// appendV1Record encodes components as a WAL record with version-1
// change encodings inside, the layout data directories written before
// change format version 2 hold (crdt/binary.go documents both).
func appendV1Record(dst []byte, components map[string][]crdt.Change) []byte {
	str := func(dst []byte, s string) []byte {
		return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
	}
	vv := func(dst []byte, v crdt.VersionVector) []byte {
		actors := make([]string, 0, len(v))
		for a := range v {
			actors = append(actors, string(a))
		}
		slices.Sort(actors)
		dst = binary.AppendUvarint(dst, uint64(len(actors)))
		for _, a := range actors {
			dst = binary.AppendUvarint(str(dst, a), v[crdt.ActorID(a)])
		}
		return dst
	}
	names := make([]string, 0, len(components))
	for name := range components {
		names = append(names, name)
	}
	slices.Sort(names)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		enc := []byte{1}
		enc = binary.AppendUvarint(enc, uint64(len(components[name])))
		for _, ch := range components[name] {
			enc = binary.AppendUvarint(str(enc, string(ch.Actor)), ch.Seq)
			enc = str(vv(enc, ch.Deps), ch.Msg)
			enc = binary.AppendUvarint(enc, uint64(len(ch.Ops)))
			for _, op := range ch.Ops {
				enc = binary.AppendUvarint(append(enc, byte(op.Type)), op.TS.Counter)
				enc = str(str(str(str(enc, string(op.TS.Actor)), string(op.Obj)), op.Key), op.Elem)
				enc = append(enc, byte(op.Val.Kind))
				switch op.Val.Kind {
				case crdt.ValStr:
					enc = str(enc, op.Val.Str)
				case crdt.ValNum:
					enc = binary.LittleEndian.AppendUint64(enc, math.Float64bits(op.Val.Num))
				case crdt.ValBool:
					b := byte(0)
					if op.Val.Bool {
						b = 1
					}
					enc = append(enc, b)
				case crdt.ValBytes:
					enc = str(enc, string(op.Val.Bytes))
				case crdt.ValObj:
					enc = str(enc, string(op.Val.Obj))
				}
				enc = binary.AppendVarint(append(enc, byte(op.Kind)), op.Delta)
			}
		}
		dst = str(str(dst, name), string(enc))
	}
	return dst
}

// TestV1RecordEncoderMatchesGolden pins the test's version-1 encoder to
// the bytes the WAL wrote before format version 2 (crdt's
// goldenComponentsV1Hex).
func TestV1RecordEncoderMatchesGolden(t *testing.T) {
	components := map[string][]crdt.Change{
		"json": {{Actor: "alice", Seq: 1, Msg: "m", Ops: []crdt.Op{
			{Type: crdt.OpSet, TS: crdt.TS{Counter: 1, Actor: "alice"}, Obj: "root", Key: "k", Val: crdt.Str("v")}}}},
		"tables": {{Actor: "bob", Seq: 2, Deps: crdt.VersionVector{"alice": 1}, Ops: []crdt.Op{
			{Type: crdt.OpAdd, TS: crdt.TS{Counter: 2, Actor: "bob"}, Obj: "ctr", Delta: -3}}}},
		"files": nil,
	}
	const want = "030566696c6573020100046a736f6e22010105616c6963650100016d01020105616c69" +
		"6365" + "04726f6f74016b000201760000067461626c657320010103626f62020105616c6963650100" +
		"01070203626f62036374720000000005"
	if got := hex.EncodeToString(appendV1Record(nil, components)); got != want {
		t.Fatalf("version-1 test encoder drifted:\n got %s\nwant %s", got, want)
	}
}

// migrationDoc builds a document whose history uses every op type, refs
// to created objects and list elements, and integral and fractional
// numbers.
func migrationDoc(t *testing.T) *crdt.Doc {
	t.Helper()
	d := crdt.NewDoc("edge-1")
	m, err := d.PutNewMap(crdt.RootObj, "row")
	if err != nil {
		t.Fatal(err)
	}
	lst, err := d.PutNewList(crdt.RootObj, "list")
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := d.PutNewCounter(crdt.RootObj, "hits")
	if err != nil {
		t.Fatal(err)
	}
	d.Commit("init")
	for i := 0; i < 30; i++ {
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(d.PutScalar(m, "stock", float64(100-i)))
		must(d.PutScalar(m, "price", 2.5*float64(i)))
		must(d.ListAppend(lst, float64(i)))
		must(d.CounterAdd(ctr, int64(i-15)))
		if i%7 == 6 {
			must(d.Delete(m, "price"))
			must(d.ListDelete(lst, 0))
			must(d.ListSet(lst, 0, "first"))
		}
		d.Commit("")
	}
	return d
}

// TestRecoverVersion1WALThenVersion2Appends: a data directory written by
// the version-1 codec — a snapshot and WAL records — keeps recovering
// after records of the current version (2 when this test was written)
// are appended behind them, and replays to the same document as the
// history it was written from.
func TestRecoverVersion1WALThenVersion2Appends(t *testing.T) {
	src := migrationDoc(t)
	chs := src.GetChanges(nil)
	third := len(chs) / 3

	dir := t.TempDir()
	// A version-1 snapshot covering segment 1, then segment 2 holding
	// version-1 records of two changes each.
	snap := appendFrame(nil, appendV1Record(nil, map[string][]crdt.Change{"json": chs[:third]}))
	if err := os.WriteFile(filepath.Join(dir, snapName(2)), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	var seg []byte
	v1Frames := 0
	for i := third; i < 2*third; i += 2 {
		seg = appendFrame(seg, appendV1Record(nil, map[string][]crdt.Change{"json": chs[i:min(i+2, 2*third)]}))
		v1Frames++
	}
	if err := os.WriteFile(filepath.Join(dir, segName(2)), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	rec := st.Recovery()
	if rec.Torn || !rec.SnapshotLoaded || len(rec.Components["json"]) != 2*third {
		t.Fatalf("version-1 directory: torn=%v snapshot=%v changes=%d, want false, true, %d",
			rec.Torn, rec.SnapshotLoaded, len(rec.Components["json"]), 2*third)
	}
	for i := 2 * third; i < len(chs); i++ {
		if err := st.Append(map[string][]crdt.Change{"json": chs[i : i+1]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Segment 2 holds the version-1 records, then one record of the
	// current version per appended change.
	expectRecovers(t, dir, "mixed WAL", v1Frames+len(chs)-2*third, src)
	expectSnapshotRecovers(t, dir, chs, src)
}

// expectRecovers opens dir, requires its recovery to replay frames WAL
// frames without a torn tail, and to rebuild src's document.
func expectRecovers(t *testing.T, dir, what string, frames int, src *crdt.Doc) {
	t.Helper()
	st, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	rec := st.Recovery()
	if rec.Torn || rec.ReplayedFrames != frames {
		t.Fatalf("%s: torn=%v, replayed %d frames, want false, %d", what, rec.Torn, rec.ReplayedFrames, frames)
	}
	got := recoveredDoc(t, rec, "json", "reader")
	if !reflect.DeepEqual(got.ToGo(), src.ToGo()) || !got.Heads().Equal(src.Heads()) {
		t.Fatalf("%s: recovered %v at %v, want %v at %v", what, got.ToGo(), got.Heads(), src.ToGo(), src.Heads())
	}
}

// expectSnapshotRecovers compacts dir's history chs into a snapshot of
// the current format and requires it to recover src on its own.
func expectSnapshotRecovers(t *testing.T, dir string, chs []crdt.Change, src *crdt.Doc) {
	t.Helper()
	st, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(map[string][]crdt.Change{"json": chs}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	expectRecovers(t, dir, "after snapshot", 0, src)
}

// TestRecoverVersion2WALThenVersion3Appends: a data directory the
// version-2 build wrote (testdata/wal-v2: a snapshot of migrationDoc's
// first third of changes, and a segment holding its second third as
// records of two changes) keeps recovering after version-3 records,
// with their implied own dependencies, are appended behind it, and
// replays to the same document as the history it was written from.
func TestRecoverVersion2WALThenVersion3Appends(t *testing.T) {
	src := migrationDoc(t)
	chs := src.GetChanges(nil)
	third := len(chs) / 3

	dir := t.TempDir()
	entries, err := os.ReadDir(filepath.Join("testdata", "wal-v2"))
	if err != nil {
		t.Fatal(err)
	}
	v2Frames := 0
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join("testdata", "wal-v2", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// Every record's change encoding is of format version 2.
		for r := bytes.NewReader(b); ; {
			payload, err := readFrame(r)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			at := 1 + 1 + len("json")
			_, n := binary.Uvarint(payload[at:])
			if v := payload[at+n]; v != 2 {
				t.Fatalf("%s holds a record of change format %d, want 2", e.Name(), v)
			}
			if strings.HasSuffix(e.Name(), segSuffix) {
				v2Frames++
			}
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	rec := st.Recovery()
	if rec.Torn || !rec.SnapshotLoaded || len(rec.Components["json"]) != 2*third {
		t.Fatalf("version-2 directory: torn=%v snapshot=%v changes=%d, want false, true, %d",
			rec.Torn, rec.SnapshotLoaded, len(rec.Components["json"]), 2*third)
	}
	for i := 2 * third; i < len(chs); i++ {
		if err := st.Append(map[string][]crdt.Change{"json": chs[i : i+1]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	expectRecovers(t, dir, "mixed WAL", v2Frames+len(chs)-2*third, src)
	expectSnapshotRecovers(t, dir, chs, src)
}

// TestOpenRefusesFutureFormatRecord: a record that checksums but holds
// a change format this build does not know — a newer build's WAL — is
// not a torn frame. Open must fail with crdt's unsupported-version
// error and leave every file byte for byte as it was, instead of
// truncating the segment at that record and removing the segments
// after it.
func TestOpenRefusesFutureFormatRecord(t *testing.T) {
	src := migrationDoc(t)
	chs := src.GetChanges(nil)
	record := func(chs []crdt.Change) []byte {
		return appendFrame(nil, crdt.AppendComponents(nil, map[string][]crdt.Change{"json": chs}, nil))
	}
	// A valid record, then one whose change encoding carries a future
	// version byte, re-checksummed so only its version is wrong.
	future := crdt.AppendComponents(nil, map[string][]crdt.Change{"json": chs[1:2]}, nil)
	at := 1 + 1 + len("json") + 1 // ncomponents, name, enc length
	if future[at] != crdt.BinaryFormatVersion {
		t.Fatalf("byte %d of the record is %#x, want the format version", at, future[at])
	}
	future[at] = crdt.BinaryFormatVersion + 1

	dir := t.TempDir()
	files := map[string][]byte{
		segName(1): append(record(chs[:1]), appendFrame(nil, future)...),
		segName(2): record(chs[2:3]),
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st, err := Open(dir, Options{Fsync: FsyncNever})
	if err == nil {
		_ = st.Close()
		t.Fatal("Open accepted a record of an unknown change format")
	}
	var uv *crdt.UnsupportedVersionError
	if !errors.As(err, &uv) || uv.Version != crdt.BinaryFormatVersion+1 || !errors.Is(err, crdt.ErrBinaryFormat) {
		t.Fatalf("Open err = %v, want an unsupported-version error for version %d", err, crdt.BinaryFormatVersion+1)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(files) {
		t.Fatalf("the directory holds %d files after the failed Open, want %d", len(entries), len(files))
	}
	for name, want := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s changed on disk: %d bytes, want %d", name, len(got), len(want))
		}
	}
}
