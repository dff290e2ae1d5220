package crdt

import (
	"encoding/binary"
	"math/bits"
	"sync"
)

// This file is the allocation-conscious side of the binary codec: a
// zero-copy append variant of EncodeChangesBinary, a size estimator that
// lets callers allocate once, and a sync.Pool of reusable encode
// buffers. The byte layout is binary.go's (the golden tests pin both
// paths to the same output); only the allocation strategy differs.
// Both carriers of the replication hot path — WAL appends and TCP state
// frames — encode every outbound batch as a component record
// (components.go) into a buffer borrowed from this pool, sized once by
// the size hint, instead of allocating per batch.

// EncodeChangesInto appends the stable binary encoding of chs to dst and
// returns the extended slice. It produces exactly the bytes
// EncodeChangesBinary would, but lets the caller reuse a buffer across
// batches (dst may be nil). Grow dst to ChangesSizeHint ahead of time to
// encode without any allocation.
func EncodeChangesInto(dst []byte, chs []Change) []byte {
	return encodeChanges(dst, chs, nil)
}

// encodeChanges is EncodeChangesInto through a stream's dictionary
// (dict.go): actor-table entries, map keys and literal refs are
// written as dstrings. A nil dict writes the self-contained layout.
func encodeChanges(dst []byte, chs []Change, dict *StringDict) []byte {
	// Two passes: the actor table precedes the changes that index it.
	t := actorTable{dict: dict, view: depsView{dict: dict}}
	for i := range chs {
		t.collect(&chs[i], i == len(chs)-1)
	}
	dst = append(dst, BinaryFormatVersion)
	dst = binary.AppendUvarint(dst, uint64(t.n+len(t.more)))
	t.each(func(_ uint64, a ActorID) { dst = dict.appendString(dst, string(a)) })
	dst = binary.AppendUvarint(dst, uint64(len(chs)))
	var prev uint64
	for i := range chs {
		dst = t.appendChange(dst, &chs[i], &prev)
	}
	return dst
}

// ChangesSizeHint returns an upper-bound estimate of the encoded size of
// chs — cheap to compute (one linear pass, no allocation) and always ≥
// the true encoded length, so a buffer grown to the hint never regrows
// during encoding. Every actor reference is charged an actor-table
// entry, as if no actor repeated, and every ref the longer of its
// literal and counter@actor forms.
func ChangesSizeHint(chs []Change) int {
	refs := 0 // actor references, each written as one table index
	entry := func(a ActorID) int {
		refs++
		return uvarintLen(uint64(len(a))<<1) + len(a)
	}
	// A literal is uvarint(len<<1) + len. A counter@actor is its index
	// plus at most one varint byte per counter digit plus the actor's
	// entry, which fits the same bound. Through a dictionary, a literal's
	// length is shifted left once more and a reference is at most two
	// bytes, which the same bounds cover.
	ref := func(s string) int {
		refs++
		return 1 + uvarintLen(uint64(len(s))) + len(s)
	}
	str := func(s string) int { return uvarintLen(uint64(len(s))) + len(s) }
	dstr := func(s string) int { return uvarintLen(uint64(len(s))<<1) + len(s) }
	n := 1 + binary.MaxVarintLen64 + uvarintLen(uint64(len(chs)))
	for i := range chs {
		ch := &chs[i]
		n += entry(ch.Actor) + uvarintLen(ch.Seq) + uvarintLen(uint64(len(ch.Deps))<<2|3)
		for a, seq := range ch.Deps {
			n += entry(a) + uvarintLen(seq)
		}
		n += str(ch.Msg) + uvarintLen(uint64(len(ch.Ops)))
		for j := range ch.Ops {
			op := &ch.Ops[j]
			n += 1 + uvarintLen(uint64(op.Type)) + uvarintLen(op.TS.Counter) + entry(op.TS.Actor) +
				ref(string(op.Obj)) + dstr(op.Key) + ref(op.Elem) + 1 +
				uvarintLen(uint64(op.Kind)) + uvarintLen(uint64(op.Delta<<1)^uint64(op.Delta>>63))
			switch op.Val.Kind {
			case ValStr:
				n += str(op.Val.Str)
			case ValNum:
				n += 8 // raw bits, or a zigzag varint of at most 2^53
			case ValBool:
				n++
			case ValBytes:
				n += uvarintLen(uint64(len(op.Val.Bytes))) + len(op.Val.Bytes)
			case ValObj:
				n += ref(string(op.Val.Obj))
			}
		}
	}
	// An index, shifted left once in a ref, is below 2×refs.
	return n + refs*uvarintLen(2*uint64(refs))
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// maxPooledEncodeBytes keeps pathological buffers (one huge CRDT-Files
// batch) from pinning memory in the pool forever: buffers that grew past
// it are dropped on Release instead of recycled.
const maxPooledEncodeBytes = 4 << 20

// EncodeBuffer is a reusable scratch buffer for binary change encoding,
// recycled through a package-level sync.Pool. Obtain one with
// GetEncodeBuffer, encode with AppendChanges, and Release it once the
// encoded bytes have been written out (the returned slice aliases the
// buffer and must not be retained past Release).
type EncodeBuffer struct {
	B []byte
}

var encodeBufPool = sync.Pool{New: func() any { return new(EncodeBuffer) }}

// GetEncodeBuffer borrows a buffer from the pool.
func GetEncodeBuffer() *EncodeBuffer {
	return encodeBufPool.Get().(*EncodeBuffer)
}

// Release returns the buffer to the pool for reuse. Oversized buffers
// are dropped so one giant batch does not pin memory indefinitely.
func (b *EncodeBuffer) Release() {
	if cap(b.B) > maxPooledEncodeBytes {
		return
	}
	b.B = b.B[:0]
	encodeBufPool.Put(b)
}

// AppendChanges encodes chs into the buffer (replacing any previous
// content) and returns the encoded bytes. The slice aliases the buffer:
// copy it or write it out before Release.
func (b *EncodeBuffer) AppendChanges(chs []Change) []byte {
	if hint := ChangesSizeHint(chs); cap(b.B) < hint {
		b.B = make([]byte, 0, hint)
	}
	b.B = EncodeChangesInto(b.B[:0], chs)
	return b.B
}
