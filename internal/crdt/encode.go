package crdt

import (
	"encoding/binary"
	"sync"
)

// This file is the allocation-conscious side of the binary codec: a
// zero-copy append variant of EncodeChangesBinary, a size estimator that
// lets callers allocate once, and a sync.Pool of reusable encode
// buffers. The byte layout is identical to binary.go (the golden tests
// pin both paths to the same output); only the allocation strategy
// differs. Both carriers of the replication hot path — WAL appends and
// TCP state frames — encode every outbound batch as a component record
// (components.go) into a buffer borrowed from this pool, sized once by
// the size hint, instead of allocating per batch.

// EncodeChangesInto appends the stable binary encoding of chs to dst and
// returns the extended slice. It produces exactly the bytes
// EncodeChangesBinary would, but lets the caller reuse a buffer across
// batches (dst may be nil). Grow dst to ChangesSizeHint ahead of time to
// encode without any allocation.
func EncodeChangesInto(dst []byte, chs []Change) []byte {
	dst = append(dst, BinaryFormatVersion)
	dst = binary.AppendUvarint(dst, uint64(len(chs)))
	for _, ch := range chs {
		dst = appendChange(dst, ch)
	}
	return dst
}

// ChangesSizeHint returns an upper-bound estimate of the encoded size of
// chs — cheap to compute (one linear pass, no allocation) and always ≥
// the true encoded length, so a buffer grown to the hint never regrows
// during encoding.
func ChangesSizeHint(chs []Change) int {
	// Worst-case uvarint for lengths/sequences is 10 bytes; most are 1.
	const uv = 10
	n := 1 + uv // version byte + change count
	for i := range chs {
		ch := &chs[i]
		n += uv + len(ch.Actor) // actor string
		n += uv                 // seq
		n += uv                 // deps count
		for a := range ch.Deps {
			n += uv + len(a) + uv
		}
		n += uv + len(ch.Msg)
		n += uv // op count
		for j := range ch.Ops {
			op := &ch.Ops[j]
			// type + ts.counter + ts.actor + obj + key + elem +
			// value kind + kind + delta
			n += 1 + uv + (uv + len(op.TS.Actor)) + (uv + len(op.Obj)) +
				(uv + len(op.Key)) + (uv + len(op.Elem)) + 1 + 1 + uv
			switch op.Val.Kind {
			case ValStr:
				n += uv + len(op.Val.Str)
			case ValNum:
				n += 8
			case ValBool:
				n++
			case ValBytes:
				n += uv + len(op.Val.Bytes)
			case ValObj:
				n += uv + len(op.Val.Obj)
			}
		}
	}
	return n
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
