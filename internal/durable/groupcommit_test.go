package durable

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/crdt"
)

// appendWorkload builds per-writer single-change records, each from a
// distinct actor so recovered histories are disjoint and countable.
func appendWorkload(t testing.TB, writers, perWriter int) [][][]crdt.Change {
	t.Helper()
	out := make([][][]crdt.Change, writers)
	for w := 0; w < writers; w++ {
		d := crdt.NewDoc(crdt.ActorID(fmt.Sprintf("w%d", w)))
		recs := make([][]crdt.Change, 0, perWriter)
		prev := 0
		for i := 0; i < perWriter; i++ {
			if err := d.PutScalar(crdt.RootObj, "k", float64(i)); err != nil {
				t.Fatal(err)
			}
			d.Commit("")
			chs := d.GetChanges(nil)
			recs = append(recs, chs[prev:])
			prev = len(chs)
		}
		out[w] = recs
	}
	return out
}

// TestGroupCommitConcurrentAppends hammers one store with concurrent
// FsyncAlways appends and verifies nothing is lost, counters add up, and
// recovery sees every record.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	const writers, perWriter = 8, 25
	records := appendWorkload(t, writers, perWriter)
	st, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, rec := range records[w] {
				if err := st.Append(map[string][]crdt.Change{"json": rec}); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	stats := st.Stats()
	if want := int64(writers * perWriter); stats.Appends != want {
		t.Fatalf("Appends = %d, want %d", stats.Appends, want)
	}
	if stats.GroupCommits == 0 || stats.GroupCommits > stats.Appends {
		t.Fatalf("GroupCommits = %d outside (0, %d]", stats.GroupCommits, stats.Appends)
	}
	if stats.MaxCommitBatch < 1 {
		t.Fatalf("MaxCommitBatch = %d, want ≥ 1", stats.MaxCommitBatch)
	}
	// FsyncAlways: every round must have synced, so fsyncs ≥ rounds.
	if stats.Fsyncs < stats.GroupCommits {
		t.Fatalf("Fsyncs = %d below GroupCommits = %d under FsyncAlways", stats.Fsyncs, stats.GroupCommits)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovery()
	if rec.Torn {
		t.Fatal("clean shutdown recovered as torn")
	}
	heads := rec.ComponentHeads()["json"]
	for w := 0; w < writers; w++ {
		// One change per commit per writer: the recovered head for each
		// writer's actor must have reached perWriter.
		actor := crdt.ActorID(fmt.Sprintf("w%d", w))
		if heads[actor] != uint64(perWriter) {
			t.Fatalf("recovered head for %s = %d, want %d (heads: %v)", actor, heads[actor], perWriter, heads)
		}
	}
}

// TestGroupCommitCloseDuringAppends races Close against a storm of
// appends: every append must either commit durably or report the store
// closed — and nothing may deadlock.
func TestGroupCommitCloseDuringAppends(t *testing.T) {
	dir := t.TempDir()
	const writers, perWriter = 4, 50
	records := appendWorkload(t, writers, perWriter)
	st, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for _, rec := range records[w] {
				if err := st.Append(map[string][]crdt.Change{"json": rec}); err != nil {
					return // store closed underneath us — acceptable
				}
			}
		}(w)
	}
	close(start)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// The directory must still recover cleanly (a prefix of each
	// writer's records, in order).
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Recovery().Torn {
		t.Fatal("close-racing appends left a torn log")
	}
}

// BenchmarkGroupCommit measures appends/sec under FsyncAlways for 1 vs 8
// concurrent writers; the ratio is the group-commit win the -exp bench
// suite records in BENCH_statesync.json.
func BenchmarkGroupCommit(b *testing.B) {
	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			records := appendWorkload(b, writers, 1)
			st, err := Open(b.TempDir(), Options{Fsync: FsyncAlways})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ReportAllocs()
			b.SetParallelism(writers)
			var idx int
			var mu sync.Mutex
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				rec := records[idx%writers][0]
				idx++
				mu.Unlock()
				for pb.Next() {
					if err := st.Append(map[string][]crdt.Change{"json": rec}); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
