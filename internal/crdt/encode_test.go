package crdt

import (
	"bytes"
	"testing"
)

func TestEncodeChangesIntoMatchesBinary(t *testing.T) {
	chs := goldenChanges()
	want := EncodeChangesBinary(chs)
	got := EncodeChangesInto(nil, chs)
	if !bytes.Equal(got, want) {
		t.Fatal("EncodeChangesInto output differs from EncodeChangesBinary")
	}
	// Appending to a non-empty prefix preserves the prefix and the
	// encoding after it.
	prefixed := EncodeChangesInto([]byte("hdr:"), chs)
	if string(prefixed[:4]) != "hdr:" || !bytes.Equal(prefixed[4:], want) {
		t.Fatal("EncodeChangesInto did not append cleanly after a prefix")
	}
}

func TestChangesSizeHintIsUpperBound(t *testing.T) {
	cases := [][]Change{
		nil,
		{},
		goldenChanges(),
		{{Actor: "solo", Seq: 1}},
		edgeCaseChanges(),
	}
	for _, chs := range cases {
		hint := ChangesSizeHint(chs)
		enc := EncodeChangesBinary(chs)
		if len(enc) > hint {
			t.Fatalf("hint %d below encoded size %d for %d changes", hint, len(enc), len(chs))
		}
	}
}

func TestEncodeBufferReuseAndRelease(t *testing.T) {
	chs := goldenChanges()
	want := EncodeChangesBinary(chs)
	buf := GetEncodeBuffer()
	for i := 0; i < 3; i++ {
		got := buf.AppendChanges(chs)
		if !bytes.Equal(got, want) {
			t.Fatalf("iteration %d: pooled encoding differs from baseline", i)
		}
	}
	buf.Release()
	// A released-then-reacquired buffer must still encode correctly even
	// if the pool hands the same object back.
	buf2 := GetEncodeBuffer()
	defer buf2.Release()
	if got := buf2.AppendChanges(chs); !bytes.Equal(got, want) {
		t.Fatal("reacquired buffer encoding differs from baseline")
	}
}

func TestEncodeBufferDropsOversized(t *testing.T) {
	b := &EncodeBuffer{B: make([]byte, 0, maxPooledEncodeBytes+1)}
	b.Release() // must not panic; buffer is simply dropped
	b2 := &EncodeBuffer{B: make([]byte, 3, 64)}
	b2.Release()
	if len(b2.B) != 0 {
		t.Fatal("Release did not reset the pooled buffer length")
	}
}

// benchChangeBatch builds a realistic change batch: n committed changes
// from one actor, each a few map writes — the shape a sync round ships.
func benchChangeBatch(b *testing.B, n int) []Change {
	b.Helper()
	d := NewDoc("bench")
	for i := 0; i < n; i++ {
		if err := d.PutScalar(RootObj, "key", float64(i)); err != nil {
			b.Fatal(err)
		}
		if err := d.PutScalar(RootObj, "other", "payload-string-of-some-length"); err != nil {
			b.Fatal(err)
		}
		d.Commit("")
	}
	return d.GetChanges(nil)
}

// BenchmarkEncodeChanges compares the allocating encoder against the
// pooled zero-copy path; the pooled variant should report ~0 allocs/op
// once the buffer is warm.
func BenchmarkEncodeChanges(b *testing.B) {
	chs := benchChangeBatch(b, 64)
	b.Run("baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = EncodeChangesBinary(chs)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		buf := GetEncodeBuffer()
		defer buf.Release()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = buf.AppendChanges(chs)
		}
	})
}
