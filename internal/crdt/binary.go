package crdt

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file defines the stable binary wire/disk format for changes and
// version vectors. Unlike the JSON forms (EncodeChanges), which exist
// for the paper's traffic-volume accounting in virtual time and may
// evolve freely, the binary format is pinned: every encoding starts
// with a format-version byte, the golden tests in binary_test.go and
// components_test.go lock the byte layout, and decoders reject versions
// they do not understand. Both real carriers build on it through the
// component record of components.go: internal/durable's WAL records and
// snapshots on disk, and internal/statesync's TCP state frames on the
// wire. Any layout change therefore needs a new version byte plus a
// decoder for the old one, or existing data directories stop
// recovering.
//
// Layout (version 1), all integers unsigned varints unless noted:
//
//	changes   := version(1B) count change*
//	change    := string(actor) uvarint(seq) vv string(msg) count op*
//	vv        := count (string(actor) uvarint(seq))*   — actors sorted
//	op        := byte(type) uvarint(ts.counter) string(ts.actor)
//	             string(obj) string(key) string(elem) value
//	             byte(kind) varint(delta — zigzag)
//	value     := byte(kind) payload
//	             payload: str/obj → string; num → 8B LE float bits;
//	             bool → 1B; bytes → bytes; null/zero → empty
//	string    := uvarint(len) len bytes
//	vector    := version(1B) vv
//
// Determinism: version-vector actors are emitted in sorted order, so
// equal inputs always produce identical bytes (the golden tests depend
// on this).

// BinaryFormatVersion is the current on-disk/on-wire format version.
// Decoders accept exactly this version; bump it together with a
// migration path when the layout changes.
const BinaryFormatVersion byte = 1

// ErrBinaryFormat is wrapped by every binary decoding failure.
var ErrBinaryFormat = fmt.Errorf("crdt: malformed binary encoding")

// EncodeChangesBinary serializes changes in the stable binary format.
// The size-hinted allocation means the result is built in one allocation;
// EncodeChangesInto (encode.go) is the zero-copy variant for callers
// that reuse a buffer.
func EncodeChangesBinary(chs []Change) []byte {
	return EncodeChangesInto(make([]byte, 0, ChangesSizeHint(chs)), chs)
}

// DecodeChangesBinary reverses EncodeChangesBinary, rejecting unknown
// format versions and truncated or oversized input.
func DecodeChangesBinary(b []byte) ([]Change, error) {
	return decodeChanges(b, new(atomTable))
}

// decodeChanges is DecodeChangesBinary over a caller's intern table, so
// the components of one record share it.
func decodeChanges(b []byte, intern *atomTable) ([]Change, error) {
	d, err := newBinDecoder(b)
	if err != nil {
		return nil, err
	}
	d.intern = intern
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	chs := make([]Change, 0, d.capFor(n))
	for i := uint64(0); i < n; i++ {
		ch, err := d.change()
		if err != nil {
			return nil, err
		}
		chs = append(chs, ch)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return chs, nil
}

// EncodeVersionVectorBinary serializes a version vector in the stable
// binary format (actors sorted, so equal vectors encode identically).
func EncodeVersionVectorBinary(vv VersionVector) []byte {
	buf := make([]byte, 0, 16*len(vv)+2)
	buf = append(buf, BinaryFormatVersion)
	return appendVV(buf, vv)
}

// DecodeVersionVectorBinary reverses EncodeVersionVectorBinary.
func DecodeVersionVectorBinary(b []byte) (VersionVector, error) {
	d, err := newBinDecoder(b)
	if err != nil {
		return nil, err
	}
	vv, err := d.vv()
	if err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return vv, nil
}

// ---- encoding ----

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendVV(buf []byte, vv VersionVector) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vv)))
	if len(vv) == 0 {
		return buf
	}
	// Version vectors are tiny (one entry per actor), and this runs once
	// per change on the encode hot path: sort on a stack array with
	// insertion sort so the common case allocates nothing.
	var arr [16]ActorID
	actors := arr[:0]
	if len(vv) > len(arr) {
		actors = make([]ActorID, 0, len(vv))
	}
	for a := range vv {
		actors = append(actors, a)
	}
	for i := 1; i < len(actors); i++ {
		for j := i; j > 0 && actors[j] < actors[j-1]; j-- {
			actors[j], actors[j-1] = actors[j-1], actors[j]
		}
	}
	for _, a := range actors {
		buf = appendString(buf, string(a))
		buf = binary.AppendUvarint(buf, vv[a])
	}
	return buf
}

func appendChange(buf []byte, ch Change) []byte {
	buf = appendString(buf, string(ch.Actor))
	buf = binary.AppendUvarint(buf, ch.Seq)
	buf = appendVV(buf, ch.Deps)
	buf = appendString(buf, ch.Msg)
	buf = binary.AppendUvarint(buf, uint64(len(ch.Ops)))
	for _, op := range ch.Ops {
		buf = appendOp(buf, op)
	}
	return buf
}

func appendOp(buf []byte, op Op) []byte {
	buf = append(buf, byte(op.Type))
	buf = binary.AppendUvarint(buf, op.TS.Counter)
	buf = appendString(buf, string(op.TS.Actor))
	buf = appendString(buf, string(op.Obj))
	buf = appendString(buf, op.Key)
	buf = appendString(buf, op.Elem)
	buf = appendValue(buf, op.Val)
	buf = append(buf, byte(op.Kind))
	buf = binary.AppendVarint(buf, op.Delta)
	return buf
}

func appendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Kind))
	switch v.Kind {
	case ValStr:
		buf = appendString(buf, v.Str)
	case ValNum:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Num))
	case ValBool:
		if v.Bool {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case ValBytes:
		buf = appendBytes(buf, v.Bytes)
	case ValObj:
		buf = appendString(buf, string(v.Obj))
	}
	return buf
}

// ---- decoding ----

// binDecoder is a cursor over a binary-encoded buffer. Every read
// validates bounds, so corrupt input yields ErrBinaryFormat rather than
// a panic or an over-allocation.
type binDecoder struct {
	b   []byte
	pos int
	// intern, when set, is the decode call's table of actor, object and
	// key strings (see atom).
	intern *atomTable
}

// atomTable interns the strings that repeat within one decoded batch:
// a direct-mapped table of the last string seen per hash slot. A hit
// compares bytes without allocating and returns the shared copy; a miss
// allocates as plain decoding would and takes the slot. Unlike a map it
// never grows or rehashes, so a batch of mostly distinct keys costs no
// more than decoding without it.
type atomTable [64]string

// newBinDecoder checks the format version and returns a decoder past
// it. It returns a value, so a decoder (and the intern table it points
// to) can stay on the caller's stack.
func newBinDecoder(b []byte) (binDecoder, error) {
	if len(b) == 0 {
		return binDecoder{}, fmt.Errorf("%w: empty input", ErrBinaryFormat)
	}
	if b[0] != BinaryFormatVersion {
		return binDecoder{}, fmt.Errorf("%w: unsupported format version %d (want %d)",
			ErrBinaryFormat, b[0], BinaryFormatVersion)
	}
	return binDecoder{b: b, pos: 1}, nil
}

func (d *binDecoder) done() error {
	if d.pos != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBinaryFormat, len(d.b)-d.pos)
	}
	return nil
}

// capFor turns a decoded element count into a safe preallocation size:
// every element takes at least one byte, so a count beyond the bytes
// left is corrupt, and no hint exceeds 1024 however long the input.
func (d *binDecoder) capFor(n uint64) int {
	return int(min(n, uint64(len(d.b)-d.pos), 1024))
}

func (d *binDecoder) byte() (byte, error) {
	if d.pos >= len(d.b) {
		return 0, fmt.Errorf("%w: truncated", ErrBinaryFormat)
	}
	c := d.b[d.pos]
	d.pos++
	return c, nil
}

func (d *binDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrBinaryFormat)
	}
	d.pos += n
	return v, nil
}

func (d *binDecoder) varint() (int64, error) {
	v, n := binary.Varint(d.b[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrBinaryFormat)
	}
	d.pos += n
	return v, nil
}

func (d *binDecoder) take(n uint64) ([]byte, error) {
	if n > uint64(len(d.b)-d.pos) {
		return nil, fmt.Errorf("%w: length %d exceeds remaining %d", ErrBinaryFormat, n, len(d.b)-d.pos)
	}
	out := d.b[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return out, nil
}

func (d *binDecoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	b, err := d.take(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// atom reads a string that repeats across a batch — an actor, object or
// key — through the intern table when the decoder has one.
func (d *binDecoder) atom() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	b, err := d.take(n)
	if err != nil {
		return "", err
	}
	if d.intern == nil {
		return string(b), nil
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &d.intern[h%uint32(len(d.intern))]
	if *slot != string(b) { // compares without converting
		*slot = string(b)
	}
	return *slot, nil
}

func (d *binDecoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	b, err := d.take(n)
	if err != nil {
		return nil, err
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp, nil
}

func (d *binDecoder) vv() (VersionVector, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	vv := make(VersionVector, d.capFor(n))
	for i := uint64(0); i < n; i++ {
		a, err := d.atom()
		if err != nil {
			return nil, err
		}
		s, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		vv[ActorID(a)] = s
	}
	return vv, nil
}

func (d *binDecoder) change() (Change, error) {
	var ch Change
	actor, err := d.atom()
	if err != nil {
		return ch, err
	}
	ch.Actor = ActorID(actor)
	if ch.Seq, err = d.uvarint(); err != nil {
		return ch, err
	}
	if ch.Deps, err = d.vv(); err != nil {
		return ch, err
	}
	if ch.Msg, err = d.string(); err != nil {
		return ch, err
	}
	nops, err := d.uvarint()
	if err != nil {
		return ch, err
	}
	ch.Ops = make([]Op, 0, d.capFor(nops))
	for i := uint64(0); i < nops; i++ {
		op, err := d.op()
		if err != nil {
			return ch, err
		}
		ch.Ops = append(ch.Ops, op)
	}
	return ch, nil
}

func (d *binDecoder) op() (Op, error) {
	var op Op
	t, err := d.byte()
	if err != nil {
		return op, err
	}
	op.Type = OpType(t)
	if op.TS.Counter, err = d.uvarint(); err != nil {
		return op, err
	}
	actor, err := d.atom()
	if err != nil {
		return op, err
	}
	op.TS.Actor = ActorID(actor)
	obj, err := d.atom()
	if err != nil {
		return op, err
	}
	op.Obj = ObjID(obj)
	if op.Key, err = d.atom(); err != nil {
		return op, err
	}
	if op.Elem, err = d.string(); err != nil {
		return op, err
	}
	if op.Val, err = d.value(); err != nil {
		return op, err
	}
	k, err := d.byte()
	if err != nil {
		return op, err
	}
	op.Kind = ObjKind(k)
	if op.Delta, err = d.varint(); err != nil {
		return op, err
	}
	return op, nil
}

func (d *binDecoder) value() (Value, error) {
	var v Value
	k, err := d.byte()
	if err != nil {
		return v, err
	}
	v.Kind = ValKind(k)
	switch v.Kind {
	case ValStr:
		v.Str, err = d.string()
	case ValNum:
		b, terr := d.take(8)
		if terr != nil {
			return v, terr
		}
		v.Num = math.Float64frombits(binary.LittleEndian.Uint64(b))
	case ValBool:
		var c byte
		if c, err = d.byte(); err == nil {
			v.Bool = c != 0
		}
	case ValBytes:
		v.Bytes, err = d.bytes()
	case ValObj:
		var s string
		if s, err = d.atom(); err == nil {
			v.Obj = ObjID(s)
		}
	case ValNull, ValKind(0):
		// no payload
	default:
		return v, fmt.Errorf("%w: unknown value kind %d", ErrBinaryFormat, k)
	}
	return v, err
}
