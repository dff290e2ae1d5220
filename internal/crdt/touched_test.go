package crdt

import (
	"reflect"
	"testing"
)

// TestApplyChangesTouchedReportsParkedReleases delivers two changes out
// of order: the first batch parks and touches nothing, and the batch
// that fills the gap reports the slots of both changes.
func TestApplyChangesTouchedReportsParkedReleases(t *testing.T) {
	src := NewDoc("src")
	if err := src.PutScalar(RootObj, "a", 1); err != nil {
		t.Fatal(err)
	}
	src.Commit("")
	if err := src.PutScalar(RootObj, "b", 2); err != nil {
		t.Fatal(err)
	}
	if err := src.Delete(RootObj, "a"); err != nil {
		t.Fatal(err)
	}
	chs := src.GetChanges(nil)
	if len(chs) != 2 {
		t.Fatalf("changes = %d, want 2", len(chs))
	}

	dst := NewDoc("dst")
	var got []Slot
	touch := func(s Slot) { got = append(got, s) }
	if n, err := dst.ApplyChangesTouched(chs[1:], touch); err != nil || n != 0 || len(got) != 0 {
		t.Fatalf("out-of-order change: applied %d, touched %v, err %v", n, got, err)
	}
	if n, err := dst.ApplyChangesTouched(chs[:1], touch); err != nil || n != 2 {
		t.Fatalf("gap fill applied %d, err %v; want 2", n, err)
	}
	want := []Slot{{RootObj, "a"}, {RootObj, "b"}, {RootObj, "a"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("touched %v, want %v", got, want)
	}
	if n, err := dst.ApplyChangesTouched(chs, touch); err != nil || n != 0 || len(got) != len(want) {
		t.Fatalf("duplicate delivery: applied %d, touched %v, err %v", n, got, err)
	}
	if keys := dst.MapTombstones(RootObj); !reflect.DeepEqual(keys, []string{"a"}) {
		t.Fatalf("tombstones = %v, want [a]", keys)
	}
}

// TestRootKeyResolvesNestedObjects: ops on nested maps, lists and
// counters resolve through the parent index to the root entry that
// holds them.
func TestRootKeyResolvesNestedObjects(t *testing.T) {
	src := NewDoc("src")
	if err := src.PutGo(RootObj, "g:cfg", map[string]any{"tags": []any{"x"}, "n": 1.0}); err != nil {
		t.Fatal(err)
	}
	cfg, _ := src.MapGet(RootObj, "g:cfg")
	tags, _ := src.MapGet(cfg.Obj, "tags")
	if err := src.ListAppend(tags.Obj, "y"); err != nil {
		t.Fatal(err)
	}
	cnt, err := src.PutNewCounter(cfg.Obj, "hits")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.CounterAdd(cnt, 3); err != nil {
		t.Fatal(err)
	}
	if err := src.PutScalar(RootObj, "plain", 1); err != nil {
		t.Fatal(err)
	}

	dst := NewDoc("dst")
	roots := map[string]int{}
	if _, err := dst.ApplyChangesTouched(src.GetChanges(nil), func(s Slot) {
		k, ok := dst.RootKey(s)
		if !ok {
			t.Errorf("slot %v did not resolve to a root key", s)
		}
		roots[k]++
	}); err != nil {
		t.Fatal(err)
	}
	if len(roots) != 2 || roots["g:cfg"] < 5 || roots["plain"] != 1 {
		t.Fatalf("root keys touched = %v", roots)
	}
	if p, ok := dst.parents[tags.Obj]; !ok || p != (Slot{cfg.Obj, "tags"}) {
		t.Fatalf("parent of tags = %v, %v", p, ok)
	}
	if _, ok := dst.parents[RootObj]; ok {
		t.Fatal("the root has a parent")
	}
	if _, ok := dst.RootKey(Slot{Obj: "no-such-object", Key: "k"}); ok {
		t.Fatal("an unlinked object resolved to a root key")
	}
}

// TestTableTouchedResolvesRows covers every way an op reaches a row:
// a column write, a row delete, a new row, and a new table.
func TestTableTouchedResolvesRows(t *testing.T) {
	master, err := NewTable("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := master.EnsureTable("books"); err != nil {
		t.Fatal(err)
	}
	if err := master.UpsertRow("books", "1", map[string]any{"title": "SICP"}); err != nil {
		t.Fatal(err)
	}
	replica, err := master.Fork("r")
	if err != nil {
		t.Fatal(err)
	}
	since := master.Heads()
	if err := master.UpsertRow("books", "1", map[string]any{"stock": 2.0}); err != nil {
		t.Fatal(err)
	}
	if err := master.UpsertRow("books", "2", map[string]any{"title": "TAPL"}); err != nil {
		t.Fatal(err)
	}
	if err := master.DeleteRow("books", "1"); err != nil {
		t.Fatal(err)
	}
	if err := master.EnsureTable("loans"); err != nil {
		t.Fatal(err)
	}

	var got []RowTouch
	seen := map[RowTouch]bool{}
	if _, err := replica.ApplyChangesTouched(master.GetChanges(since), func(rt RowTouch) {
		if !seen[rt] {
			seen[rt] = true
			got = append(got, rt)
		}
	}); err != nil {
		t.Fatal(err)
	}
	want := []RowTouch{{Table: "books", Row: "1"}, {Table: "books", Row: "2"}, {Table: "loans", Whole: true}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("touched %+v, want %+v", got, want)
	}
}

// TestFilesTouchedAndRemoved: writes and removals both report their
// path, and Removed lists the tombstones.
func TestFilesTouchedAndRemoved(t *testing.T) {
	master, err := NewFiles("m")
	if err != nil {
		t.Fatal(err)
	}
	replica, err := master.Fork("r")
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Write("a.txt", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := master.Write("b.txt", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := master.Remove("a.txt"); err != nil {
		t.Fatal(err)
	}
	var got []string
	if _, err := replica.ApplyChangesTouched(master.GetChanges(replica.Heads()), func(p string) {
		got = append(got, p)
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.txt", "b.txt", "a.txt"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("touched %v, want %v", got, want)
	}
	if rm := replica.Removed(); !reflect.DeepEqual(rm, []string{"a.txt"}) {
		t.Fatalf("Removed = %v, want [a.txt]", rm)
	}
}
