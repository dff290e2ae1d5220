package crdt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// scanChanges is GetChanges as a scan of the whole history: the
// reference the actor index must agree with.
func scanChanges(d *Doc, since VersionVector) []Change {
	d.Commit("")
	var out []Change
	for _, ch := range d.history {
		if ch.Seq > since[ch.Actor] {
			out = append(out, ch)
		}
	}
	return out
}

// probeVectors returns version vectors to ask d for changes since: nil,
// empty, every replica's heads, and partial, lowered, raised and foreign
// variants of them.
func probeVectors(rng *rand.Rand, docs []*Doc) []VersionVector {
	out := []VersionVector{nil, {}, {"nobody": 3}}
	for _, d := range docs {
		vv := d.vv.Clone()
		out = append(out, vv)
		partial, lowered, raised := VersionVector{}, VersionVector{}, VersionVector{}
		for a, s := range vv {
			if rng.Intn(2) == 0 {
				partial[a] = s
			}
			lowered[a] = uint64(rng.Int63n(int64(s) + 1))
			raised[a] = s + uint64(rng.Intn(3))
		}
		out = append(out, partial, lowered, raised)
	}
	return out
}

// TestGetChangesDifferential drives three replicas through local
// commits, shuffled, partial and duplicated deliveries (which park
// changes and release them out of order), compaction, and fork/load, and
// checks after every step that the indexed GetChanges returns what the
// scan returns, in the same order.
func TestGetChangesDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			docs := []*Doc{NewDoc("a"), NewDoc("b"), NewDoc("c")}
			for step := 0; step < 300; step++ {
				d := docs[rng.Intn(len(docs))]
				switch r := rng.Intn(20); {
				case r < 9: // local writes, committed now or later
					mustPut(t, d.PutScalar(RootObj, fmt.Sprintf("k%d", rng.Intn(5)), step))
					if rng.Intn(3) > 0 {
						d.Commit("")
					}
				case r < 16: // a shuffled, possibly partial and duplicated delivery
					src := docs[rng.Intn(len(docs))]
					chs := scanChanges(src, nil)
					rng.Shuffle(len(chs), func(i, j int) { chs[i], chs[j] = chs[j], chs[i] })
					chs = chs[:rng.Intn(len(chs)+1)]
					if len(chs) > 0 && rng.Intn(2) == 0 {
						chs = append(chs, chs[rng.Intn(len(chs))])
					}
					if _, err := d.ApplyChanges(chs); err != nil {
						t.Fatal(err)
					}
				case r < 18: // compact through a point below the heads
					through := VersionVector{}
					for a, s := range d.vv {
						through[a] = uint64(rng.Int63n(int64(s) + 1))
					}
					d.Compact(through)
				case r < 19: // fork as the same actor
					if len(d.compacted) == 0 {
						nd, err := d.Fork(d.actor)
						if err != nil {
							t.Fatal(err)
						}
						mustPut(t, nd.PutScalar(RootObj, "forked", step))
						docs[indexOf(docs, d)] = nd
					}
				default: // save and load
					if data, err := d.Save(); err == nil && d.Parked() == 0 {
						nd, err := Load(d.actor, data)
						if err != nil {
							t.Fatal(err)
						}
						docs[indexOf(docs, d)] = nd
					}
				}
				for _, d := range docs {
					for _, since := range probeVectors(rng, docs) {
						want := scanChanges(d, since)
						if got := d.GetChanges(since); !reflect.DeepEqual(got, want) {
							t.Fatalf("step %d, doc %s, since %v:\n got  %v\n want %v",
								step, d.actor, since, changeIDs(got), changeIDs(want))
						}
					}
				}
			}
		})
	}
}

func indexOf(docs []*Doc, d *Doc) int {
	for i, x := range docs {
		if x == d {
			return i
		}
	}
	panic("doc not found")
}

func changeIDs(chs []Change) []string {
	ids := make([]string, len(chs))
	for i, ch := range chs {
		ids[i] = fmt.Sprintf("%s/%d", ch.Actor, ch.Seq)
	}
	return ids
}

// BenchmarkGetChangesEmpty measures a delta request from a peer that is
// already up to date, against a history of n changes from one actor.
func BenchmarkGetChangesEmpty(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("changes=%d", n), func(b *testing.B) {
			d := NewDoc("a")
			for i := 0; i < n; i++ {
				if err := d.PutScalar(RootObj, "k", i); err != nil {
					b.Fatal(err)
				}
				d.Commit("")
			}
			heads := d.Heads()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if chs := d.GetChanges(heads); len(chs) != 0 {
					b.Fatalf("%d changes for an up-to-date peer", len(chs))
				}
			}
		})
	}
}
