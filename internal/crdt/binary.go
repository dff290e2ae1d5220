package crdt

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
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
// Layout (version 3, written), all integers unsigned varints unless
// noted:
//
//	changes   := version(1B=3) count dstring(actor)* count change*
//	             — the actor table: each distinct actor of the record
//	               once, in first-appearance order; below, actor means
//	               an index into it
//	change    := actor uvarint(seq) deps string(msg) count op*
//	deps      := uvarint(n<<2 | own<<1 | stream) (actor uvarint(seq))^n
//	             — the n listed entries, in actor-table order. own: the
//	               author's own entry is seq−1 and not listed. stream:
//	               the vector is the stream's last one for the author
//	               (dict.go) with the listed entries set over it, and
//	               only entries that differ from it are listed; an
//	               encoder sets it only when every actor of that vector
//	               is still a dependency. Without a stream (the WAL)
//	               stream is never set, and a record with it fails to
//	               decode, as does one whose author the stream's memory
//	               does not hold
//	op        := byte(head) [uvarint(type)] [uvarint(ts.counter)]
//	             [actor(ts)] ref(obj) dstring(key) ref(elem) value
//	             [uvarint(kind)] [varint(delta — zigzag)]
//	head      := low 4 bits: the op type, or 15 when uvarint(type)
//	             follows; 0x10: ts actor is the change's actor (no
//	             actor(ts)); 0x20: ts counter is the previous op's
//	             counter + 1, the previous op of the record, 0 before
//	             the first (no counter); 0x40: kind follows (else 0);
//	             0x80: delta follows (else 0)
//	ref       := uvarint(h<<1) [bytes]  — a literal: h and the bytes
//	             are a dstring's header and body
//	           | uvarint(actor<<1 | 1) uvarint(counter)
//	             — FormatUint(counter) + "@" + the actor, written so
//	               only when the string is exactly that with a
//	               non-empty actor ("root", "007@a", "1@" are literals)
//	value     := byte(kind) payload
//	             payload: str → string; obj → ref; num → 8B LE float
//	             bits; bool → 1B; bytes → bytes; null/zero → empty
//	           | byte(0x83) varint(n — zigzag)
//	             — a number that is an integer of magnitude ≤ 2^53 and
//	               not −0; NaN, ±Inf, −0 and fractions keep 8B
//	string    := uvarint(len) len bytes
//	dstring   := string, or, through a stream dictionary, dict.go's
//	             reference-or-literal (the WAL uses none)
//	vector    := version(1B) vv
//	vv        := count (string(actor) uvarint(seq))*   — actors sorted
//
// Layout (version 2, still decoded: WAL records written before version
// 3 must recover): version 3's, with version byte 2 and
//
//	deps      := count (actor uvarint(seq))*   — every entry, in
//	             actor-table order
//
// Layout (version 1, still decoded):
//
//	changes   := version(1B=1) count change*
//	change    := string(actor) uvarint(seq) vv string(msg) count op*
//	op        := byte(type) uvarint(ts.counter) string(ts.actor)
//	             string(obj) string(key) string(elem) value
//	             byte(kind) varint(delta — zigzag)
//	value     := byte(kind) payload
//	             payload: str/obj → string; num → 8B LE float bits;
//	             bool → 1B; bytes → bytes; null/zero → empty
//
// The version-vector layout is the same in every version.
//
// Determinism: version-vector actors are emitted in sorted order, the
// actor table in first-appearance order (a change's new listed
// dependency actors in sorted order), and dependencies in table order,
// so equal inputs — and, through a stream, equal streams — always
// produce identical bytes (the golden tests depend on this).

// BinaryFormatVersion is the on-disk/on-wire format version the encoder
// writes. Decoders accept it, binaryFormatV2 and binaryFormatV1; bump
// it together with a decoder for the old layout when the layout
// changes.
const BinaryFormatVersion byte = 3

// binaryFormatV2 and binaryFormatV1 are the previous layouts, which
// decoders still read.
const (
	binaryFormatV2 byte = 2
	binaryFormatV1 byte = 1
)

// Version-2 op head flags and the escaped-type marker (see the layout).
const (
	opTypeEscape  = 0x0f
	opSameActor   = 0x10
	opNextCounter = 0x20
	opHasKind     = 0x40
	opHasDelta    = 0x80
)

// tagIntNum is the version-2 value tag of a number written as a zigzag
// varint.
const tagIntNum = 0x80 | byte(ValNum)

// maxExactInt bounds the integers a float64 holds exactly.
const maxExactInt = 1 << 53

// ErrBinaryFormat is wrapped by every binary decoding failure.
var ErrBinaryFormat = fmt.Errorf("crdt: malformed binary encoding")

// UnsupportedVersionError reports an encoding whose format-version byte
// this build does not decode, such as a record a newer build wrote. It
// wraps ErrBinaryFormat, but unlike other decoding failures it says
// nothing about the bytes being damaged: a reader should refuse them,
// not discard them.
type UnsupportedVersionError struct {
	Version byte
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf("%v: unsupported format version %d (want %d to %d)",
		ErrBinaryFormat, e.Version, binaryFormatV1, BinaryFormatVersion)
}

func (e *UnsupportedVersionError) Unwrap() error { return ErrBinaryFormat }

// EncodeChangesBinary serializes changes in the stable binary format.
// The size-hinted allocation means the result is built in one allocation;
// EncodeChangesInto (encode.go) is the zero-copy variant for callers
// that reuse a buffer.
func EncodeChangesBinary(chs []Change) []byte {
	return EncodeChangesInto(make([]byte, 0, ChangesSizeHint(chs)), chs)
}

// DecodeChangesBinary reverses EncodeChangesBinary, rejecting unknown
// format versions (with an *UnsupportedVersionError) and truncated or
// oversized input.
func DecodeChangesBinary(b []byte) ([]Change, error) {
	return decodeChanges(b, new(atomTable), nil)
}

// decodeChanges is DecodeChangesBinary over a caller's intern table, so
// the components of one record share it, and through the stream
// dictionary the record was encoded with (nil for none).
func decodeChanges(b []byte, intern *atomTable, dict *StringDict) ([]Change, error) {
	d, err := newBinDecoder(b)
	if err != nil {
		return nil, err
	}
	d.intern, d.dict = intern, dict
	if d.version != binaryFormatV1 {
		if err := d.actorTable(); err != nil {
			return nil, err
		}
	}
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

// sortedActors collects vv's actors into buf (a caller's stack array,
// so small vectors allocate nothing) in sorted order. Version vectors
// are tiny (one entry per actor), and this runs once per change on the
// encode hot path, so it sorts by insertion.
func sortedActors(vv VersionVector, buf []ActorID) []ActorID {
	for a := range vv {
		buf = append(buf, a)
	}
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && buf[j] < buf[j-1]; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	return buf
}

func appendVV(buf []byte, vv VersionVector) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vv)))
	var arr [16]ActorID
	for _, a := range sortedActors(vv, arr[:0]) {
		buf = appendString(buf, string(a))
		buf = binary.AppendUvarint(buf, vv[a])
	}
	return buf
}

// splitRef parses s as FormatUint(counter) + "@" + actor with a
// non-empty actor, the only form a ref encodes; anything else stays a
// literal. The actor is the whole rest, '@' included.
func splitRef(s string) (uint64, ActorID, bool) {
	var c uint64
	for i := 0; i < len(s); i++ {
		if s[i] == '@' {
			if i == 0 || i == len(s)-1 || (s[0] == '0' && i > 1) {
				return 0, "", false
			}
			return c, ActorID(s[i+1:]), true
		}
		digit := uint64(s[i] - '0')
		if digit > 9 || c > (math.MaxUint64-digit)/10 {
			return 0, "", false
		}
		c = c*10 + digit
	}
	return 0, "", false
}

// integral reports f as an int64 when the varint form round-trips it
// exactly: an integer of magnitude at most 2^53 that is not −0. NaN
// fails the first test.
func integral(f float64) (int64, bool) {
	if f != math.Trunc(f) || f > maxExactInt || f < -maxExactInt || (f == 0 && math.Signbit(f)) {
		return 0, false
	}
	return int64(f), true
}

// actorTable is a version-2 record's actor table on the encode side:
// each distinct actor once, in first-appearance order. The first
// maxScanActors sit in an inline array that lookups scan, so a record
// of a few actors allocates nothing; past it a map indexes them all.
type actorTable struct {
	inline [maxScanActors]ActorID
	n      int
	more   []ActorID
	index  map[ActorID]uint64
	// dict, when set, is the stream dictionary the record's strings
	// and dependencies go through (dict.go), and view collect's look at
	// its dependency memory.
	dict *StringDict
	view depsView
}

const maxScanActors = 16

func (t *actorTable) find(a ActorID) (uint64, bool) {
	if t.index != nil {
		i, ok := t.index[a]
		return i, ok
	}
	for i := 0; i < t.n; i++ {
		if t.inline[i] == a {
			return uint64(i), true
		}
	}
	return 0, false
}

func (t *actorTable) add(a ActorID) {
	if _, ok := t.find(a); ok {
		return
	}
	if t.n < len(t.inline) {
		t.inline[t.n] = a
		t.n++
		return
	}
	if t.index == nil {
		t.index = make(map[ActorID]uint64, 2*len(t.inline))
		for i, b := range t.inline {
			t.index[b] = uint64(i)
		}
	}
	t.index[a] = uint64(len(t.inline) + len(t.more))
	t.more = append(t.more, a)
}

// lookup returns the index of an actor collect added.
func (t *actorTable) lookup(a ActorID) uint64 {
	i, _ := t.find(a)
	return i
}

func (t *actorTable) addRef(s string) {
	if _, a, ok := splitRef(s); ok {
		t.add(a)
	}
}

// collect adds ch's actors in the order appendChange writes them: of
// its dependencies, only the listed ones, as the stream's memory will
// stand when appendChange writes ch. No later change of the record
// sees the last one's vector, so the view need not remember it.
func (t *actorTable) collect(ch *Change, last bool) {
	t.add(ch.Actor)
	base, ok := t.view.base(ch.Actor)
	p := planDeps(ch, base, ok)
	if t.newDeps(ch, p) {
		// New dependency actors join in sorted order, so the table does
		// not depend on map iteration order.
		var arr [16]ActorID
		for _, a := range sortedActors(ch.Deps, arr[:0]) {
			if p.listed(ch, a, ch.Deps[a]) {
				t.add(a)
			}
		}
	}
	if !last {
		t.view.remember(ch.Actor, ch.Deps)
	}
	for i := range ch.Ops {
		op := &ch.Ops[i]
		t.add(op.TS.Actor)
		t.addRef(string(op.Obj))
		t.addRef(op.Elem)
		if op.Val.Kind == ValObj {
			t.addRef(string(op.Val.Obj))
		}
	}
}

// newDeps reports whether ch lists a dependency actor the table lacks.
func (t *actorTable) newDeps(ch *Change, p depsPlan) bool {
	for a, seq := range ch.Deps {
		if _, ok := t.find(a); !ok && p.listed(ch, a, seq) {
			return true
		}
	}
	return false
}

// each calls fn with every actor in table order.
func (t *actorTable) each(fn func(uint64, ActorID)) {
	for i, a := range t.inline[:t.n] {
		fn(uint64(i), a)
	}
	for i, a := range t.more {
		fn(uint64(len(t.inline)+i), a)
	}
}

func (t *actorTable) appendChange(dst []byte, ch *Change, prev *uint64) []byte {
	dst = binary.AppendUvarint(dst, t.lookup(ch.Actor))
	dst = binary.AppendUvarint(dst, ch.Seq)
	base, ok := t.dict.depsBase(ch.Actor)
	p := planDeps(ch, base, ok)
	n := 0
	for a, seq := range ch.Deps {
		if p.listed(ch, a, seq) {
			n++
		}
	}
	dst = binary.AppendUvarint(dst, p.word(n))
	if n > 0 {
		t.each(func(i uint64, a ActorID) {
			if seq, ok := ch.Deps[a]; ok && p.listed(ch, a, seq) {
				dst = binary.AppendUvarint(dst, i)
				dst = binary.AppendUvarint(dst, seq)
			}
		})
	}
	t.dict.rememberDeps(ch.Actor, ch.Deps)
	dst = appendString(dst, ch.Msg)
	dst = binary.AppendUvarint(dst, uint64(len(ch.Ops)))
	for i := range ch.Ops {
		dst = t.appendOp(dst, &ch.Ops[i], ch.Actor, prev)
	}
	return dst
}

// depsPlan is how a version-3 change writes its dependencies: whether
// the author's own entry is implied, and whether the list is relative
// to base, the stream's last vector for the author.
type depsPlan struct {
	own, stream bool
	base        VersionVector
}

// planDeps plans ch's dependencies against the stream's vector for its
// author, when there is one.
func planDeps(ch *Change, base VersionVector, haveBase bool) depsPlan {
	p := depsPlan{base: base}
	if seq, ok := ch.Deps[ch.Actor]; ok && ch.Seq > 0 && seq == ch.Seq-1 {
		p.own = true
	}
	if haveBase {
		p.stream = true
		for a := range base {
			if _, ok := ch.Deps[a]; !ok {
				p.stream = false
				break
			}
		}
	}
	return p
}

// listed reports whether ch writes its dependency (a, seq).
func (p depsPlan) listed(ch *Change, a ActorID, seq uint64) bool {
	if p.own && a == ch.Actor {
		return false
	}
	if p.stream {
		if b, ok := p.base[a]; ok && b == seq {
			return false
		}
	}
	return true
}

// word is the dependency list's head for n listed entries.
func (p depsPlan) word(n int) uint64 {
	w := uint64(n) << 2
	if p.own {
		w |= 2
	}
	if p.stream {
		w |= 1
	}
	return w
}

// depsView is the actor table's first-pass view of the stream's
// dependency memory. appendChange updates the memory after each change
// it writes, so collect, which runs over the whole record first, must
// plan each change against the memory as it will stand then: the view
// holds the vectors the record's earlier changes will have left, under
// the memory's own insert rule, and leaves the memory alone.
type depsView struct {
	dict *StringDict
	seen map[ActorID]VersionVector
	// added counts the remembered authors the memory does not hold.
	added int
}

// base is StringDict.depsBase as the memory will stand.
func (v *depsView) base(author ActorID) (VersionVector, bool) {
	if deps, ok := v.seen[author]; ok {
		return deps, true
	}
	return v.dict.depsBase(author)
}

// remember is StringDict.rememberDeps into the view.
func (v *depsView) remember(author ActorID, deps VersionVector) {
	if v.dict == nil {
		return
	}
	_, inView := v.seen[author]
	_, inMemory := v.dict.deps[author]
	if !admitsDeps(author, deps, inView || inMemory, len(v.dict.deps)+v.added) {
		return
	}
	if !inView && !inMemory {
		v.added++
	}
	if v.seen == nil {
		v.seen = make(map[ActorID]VersionVector)
	}
	v.seen[author] = deps
}

func (t *actorTable) appendOp(dst []byte, op *Op, actor ActorID, prev *uint64) []byte {
	head := byte(opTypeEscape)
	if op.Type >= 0 && op.Type < opTypeEscape {
		head = byte(op.Type)
	}
	if op.TS.Actor == actor {
		head |= opSameActor
	}
	if op.TS.Counter == *prev+1 {
		head |= opNextCounter
	}
	*prev = op.TS.Counter
	if op.Kind != 0 {
		head |= opHasKind
	}
	if op.Delta != 0 {
		head |= opHasDelta
	}
	dst = append(dst, head)
	if head&opTypeEscape == opTypeEscape {
		dst = binary.AppendUvarint(dst, uint64(op.Type))
	}
	if head&opNextCounter == 0 {
		dst = binary.AppendUvarint(dst, op.TS.Counter)
	}
	if head&opSameActor == 0 {
		dst = binary.AppendUvarint(dst, t.lookup(op.TS.Actor))
	}
	dst = t.appendRef(dst, string(op.Obj))
	dst = t.dict.appendString(dst, op.Key)
	dst = t.appendRef(dst, op.Elem)
	dst = t.appendValue(dst, op.Val)
	if op.Kind != 0 {
		dst = binary.AppendUvarint(dst, uint64(op.Kind))
	}
	if op.Delta != 0 {
		dst = binary.AppendVarint(dst, op.Delta)
	}
	return dst
}

func (t *actorTable) appendRef(dst []byte, s string) []byte {
	if c, a, ok := splitRef(s); ok {
		dst = binary.AppendUvarint(dst, t.lookup(a)<<1|1)
		return binary.AppendUvarint(dst, c)
	}
	h, literal := t.dict.header(s)
	dst = binary.AppendUvarint(dst, h<<1)
	if literal {
		dst = append(dst, s...)
	}
	return dst
}

func (t *actorTable) appendValue(dst []byte, v Value) []byte {
	if v.Kind == ValNum {
		if n, ok := integral(v.Num); ok {
			return binary.AppendVarint(append(dst, tagIntNum), n)
		}
	}
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case ValStr:
		dst = appendString(dst, v.Str)
	case ValNum:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Num))
	case ValBool:
		if v.Bool {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case ValBytes:
		dst = appendBytes(dst, v.Bytes)
	case ValObj:
		dst = t.appendRef(dst, string(v.Obj))
	}
	return dst
}

// ---- decoding ----

// binDecoder is a cursor over a binary-encoded buffer. Every read
// validates bounds, so corrupt input yields ErrBinaryFormat rather than
// a panic or an over-allocation.
type binDecoder struct {
	b   []byte
	pos int
	// version is the record's format version; the vector layout is the
	// same in every version.
	version byte
	// intern, when set, is the decode call's table of actor, object and
	// key strings (see atom).
	intern *atomTable
	// dict, when set, is the stream dictionary a version-2 record's
	// actor-table entries, keys and literal refs were written through
	// (dict.go).
	dict *StringDict
	// actors is a version-2 record's actor table; prev is the previous
	// op's counter.
	actors []ActorID
	prev   uint64
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
	if b[0] < binaryFormatV1 || b[0] > BinaryFormatVersion {
		return binDecoder{}, &UnsupportedVersionError{Version: b[0]}
	}
	return binDecoder{b: b, pos: 1, version: b[0]}, nil
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
	return d.internBytes(b), nil
}

// dstring reads a version-2 actor-table entry or map key: a string
// written through the decoder's dictionary, or a plain string without
// one.
func (d *binDecoder) dstring() (string, error) {
	h, err := d.uvarint()
	if err != nil {
		return "", err
	}
	return d.dictString(h)
}

// dictString resolves the header of a string written through the
// dictionary — a reference, or a literal the dictionary learns — or,
// without a dictionary, reads h bytes.
func (d *binDecoder) dictString(h uint64) (string, error) {
	if d.dict == nil {
		b, err := d.take(h)
		if err != nil {
			return "", err
		}
		return d.internBytes(b), nil
	}
	if h&1 == 1 {
		if h>>1 >= uint64(len(d.dict.strs)) {
			return "", fmt.Errorf("%w: dictionary index %d beyond table of %d", ErrBinaryFormat, h>>1, len(d.dict.strs))
		}
		return d.dict.strs[h>>1], nil
	}
	b, err := d.take(h >> 1)
	if err != nil {
		return "", err
	}
	s := d.internBytes(b)
	d.dict.learn(s)
	return s, nil
}

// internBytes returns b as a string, shared with an equal string of the
// batch when the intern table holds one.
func (d *binDecoder) internBytes(b []byte) string {
	if d.intern == nil || len(b) == 0 {
		return string(b)
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &d.intern[h%uint32(len(d.intern))]
	if *slot != string(b) { // compares without converting
		*slot = string(b)
	}
	return *slot
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

// actorTable reads a version-2 record's actor table.
func (d *binDecoder) actorTable() error {
	n, err := d.uvarint()
	if err != nil {
		return err
	}
	actors := make([]ActorID, 0, d.capFor(n))
	for i := uint64(0); i < n; i++ {
		a, err := d.dstring()
		if err != nil {
			return err
		}
		actors = append(actors, ActorID(a))
	}
	d.actors = actors
	return nil
}

// actor reads a version-2 actor-table index.
func (d *binDecoder) actor() (ActorID, error) {
	i, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if i >= uint64(len(d.actors)) {
		return "", fmt.Errorf("%w: actor index %d beyond table of %d", ErrBinaryFormat, i, len(d.actors))
	}
	return d.actors[i], nil
}

// ref reads a version-2 ref: a literal, or a counter@actor rebuilt and
// interned.
func (d *binDecoder) ref() (string, error) {
	h, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if h&1 == 0 {
		return d.dictString(h >> 1)
	}
	if h>>1 >= uint64(len(d.actors)) {
		return "", fmt.Errorf("%w: actor index %d beyond table of %d", ErrBinaryFormat, h>>1, len(d.actors))
	}
	a := d.actors[h>>1]
	c, err := d.uvarint()
	if err != nil {
		return "", err
	}
	var arr [64]byte
	b := append(append(strconv.AppendUint(arr[:0], c, 10), '@'), a...)
	return d.internBytes(b), nil
}

func (d *binDecoder) change() (Change, error) {
	if d.version == binaryFormatV1 {
		return d.changeV1()
	}
	var ch Change
	var err error
	if ch.Actor, err = d.actor(); err != nil {
		return ch, err
	}
	if ch.Seq, err = d.uvarint(); err != nil {
		return ch, err
	}
	if ch.Deps, err = d.deps(ch.Actor, ch.Seq); err != nil {
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
		op, err := d.op(ch.Actor)
		if err != nil {
			return ch, err
		}
		ch.Ops = append(ch.Ops, op)
	}
	return ch, nil
}

// deps reads a change's dependencies: a version-2 list of every entry,
// or a version-3 one, which may imply the author's own entry and list
// only what moved since the stream's last vector for the author. A
// version-3 vector is remembered through the stream, as the encoder
// did.
func (d *binDecoder) deps(author ActorID, seq uint64) (VersionVector, error) {
	word, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	n, own, stream := word, false, false
	if d.version != binaryFormatV2 {
		n, own, stream = word>>2, word&2 != 0, word&1 != 0
	}
	var base VersionVector
	if stream {
		if d.dict == nil {
			return nil, fmt.Errorf("%w: stream-mode dependencies outside a stream", ErrBinaryFormat)
		}
		var ok bool
		if base, ok = d.dict.depsBase(author); !ok {
			return nil, fmt.Errorf("%w: stream-mode dependencies for %q, whom the stream has not carried", ErrBinaryFormat, author)
		}
	}
	if own && seq == 0 {
		return nil, fmt.Errorf("%w: implied own dependency of a change with seq 0", ErrBinaryFormat)
	}
	var deps VersionVector
	if n > 0 || len(base) > 0 || own {
		deps = make(VersionVector, d.capFor(n)+len(base)+1)
		for a, s := range base {
			deps[a] = s
		}
	}
	for i := uint64(0); i < n; i++ {
		a, err := d.actor()
		if err != nil {
			return nil, err
		}
		s, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		deps[a] = s
	}
	if own {
		deps[author] = seq - 1
	}
	if d.version != binaryFormatV2 {
		d.dict.rememberDeps(author, deps)
	}
	return deps, nil
}

func (d *binDecoder) op(actor ActorID) (Op, error) {
	var op Op
	head, err := d.byte()
	if err != nil {
		return op, err
	}
	op.Type = OpType(head & opTypeEscape)
	if op.Type == opTypeEscape {
		t, err := d.uvarint()
		if err != nil {
			return op, err
		}
		op.Type = OpType(t)
	}
	op.TS.Counter = d.prev + 1
	if head&opNextCounter == 0 {
		if op.TS.Counter, err = d.uvarint(); err != nil {
			return op, err
		}
	}
	d.prev = op.TS.Counter
	op.TS.Actor = actor
	if head&opSameActor == 0 {
		if op.TS.Actor, err = d.actor(); err != nil {
			return op, err
		}
	}
	obj, err := d.ref()
	if err != nil {
		return op, err
	}
	op.Obj = ObjID(obj)
	if op.Key, err = d.dstring(); err != nil {
		return op, err
	}
	if op.Elem, err = d.ref(); err != nil {
		return op, err
	}
	if op.Val, err = d.value(); err != nil {
		return op, err
	}
	if head&opHasKind != 0 {
		k, err := d.uvarint()
		if err != nil {
			return op, err
		}
		op.Kind = ObjKind(k)
	}
	if head&opHasDelta != 0 {
		if op.Delta, err = d.varint(); err != nil {
			return op, err
		}
	}
	return op, nil
}

func (d *binDecoder) value() (Value, error) {
	var v Value
	k, err := d.byte()
	if err != nil {
		return v, err
	}
	if k == tagIntNum && d.version != binaryFormatV1 {
		n, err := d.varint()
		if err != nil {
			return v, err
		}
		if n > maxExactInt || n < -maxExactInt {
			return v, fmt.Errorf("%w: integer %d beyond 2^53", ErrBinaryFormat, n)
		}
		return Num(float64(n)), nil
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
		if d.version == binaryFormatV1 {
			s, err = d.atom()
		} else {
			s, err = d.ref()
		}
		v.Obj = ObjID(s)
	case ValNull, ValKind(0):
		// no payload
	default:
		return v, fmt.Errorf("%w: unknown value kind %d", ErrBinaryFormat, k)
	}
	return v, err
}

// ---- version 1 ----

func (d *binDecoder) changeV1() (Change, error) {
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
		op, err := d.opV1()
		if err != nil {
			return ch, err
		}
		ch.Ops = append(ch.Ops, op)
	}
	return ch, nil
}

func (d *binDecoder) opV1() (Op, error) {
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
