package crdt

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"reflect"
	"strconv"
	"testing"
)

// goldenChanges is a fixed change set exercising every op type and
// value kind; the golden encoding below pins its byte layout.
func goldenChanges() []Change {
	return []Change{
		{
			Actor: "alice",
			Seq:   1,
			Msg:   "init",
			Ops: []Op{
				{Type: OpMake, TS: TS{Counter: 1, Actor: "alice"}, Kind: KindMap},
				{Type: OpSet, TS: TS{Counter: 2, Actor: "alice"}, Obj: "1@alice", Key: "name", Val: Str("ada")},
				{Type: OpSet, TS: TS{Counter: 3, Actor: "alice"}, Obj: "1@alice", Key: "score", Val: Num(2.5)},
				{Type: OpSet, TS: TS{Counter: 4, Actor: "alice"}, Obj: "1@alice", Key: "on", Val: Bool(true)},
				{Type: OpSet, TS: TS{Counter: 5, Actor: "alice"}, Obj: "1@alice", Key: "blob", Val: Bytes([]byte{0xde, 0xad})},
				{Type: OpSet, TS: TS{Counter: 6, Actor: "alice"}, Obj: "root", Key: "ref", Val: ObjRef("1@alice")},
			},
		},
		{
			Actor: "bob",
			Seq:   1,
			Deps:  VersionVector{"alice": 1, "zed": 3},
			Ops: []Op{
				{Type: OpInsert, TS: TS{Counter: 7, Actor: "bob"}, Obj: "list", Elem: "", Val: Null},
				{Type: OpUpdate, TS: TS{Counter: 8, Actor: "bob"}, Obj: "list", Elem: "7@bob", Val: Str("x")},
				{Type: OpRemove, TS: TS{Counter: 9, Actor: "bob"}, Obj: "list", Elem: "7@bob"},
				{Type: OpAdd, TS: TS{Counter: 10, Actor: "bob"}, Obj: "ctr", Delta: -42},
				{Type: OpDel, TS: TS{Counter: 11, Actor: "bob"}, Obj: "root", Key: "gone"},
			},
		},
	}
}

// goldenChangesHex is the pinned version-3 encoding of goldenChanges.
// If this test fails after an intentional format change, bump
// BinaryFormatVersion, keep a decoder and a decode-only golden for the
// old layout, and regenerate — never silently repin under the same
// version byte.
const goldenChangesHex = "03" + "03" + "05616c696365" + "03626f62" + "037a6564" + "02" +
	// alice, seq 1, no deps, "init", 6 ops
	"00" + "01" + "00" + "04696e6974" + "06" +
	"71" + "00" + "00" + "00" + "00" + "01" + // make map: head carries kind
	"32" + "0101" + "046e616d65" + "00" + "0203616461" + // set 1@alice.name "ada"
	"32" + "0101" + "0573636f7265" + "00" + "030000000000000440" + // score 2.5: 8B
	"32" + "0101" + "026f6e" + "00" + "0401" + // on true
	"32" + "0101" + "04626c6f62" + "00" + "0502dead" + // blob
	"32" + "08726f6f74" + "03726566" + "00" + "060101" + // root.ref → 1@alice
	// bob, seq 1, deps {alice 1, zed 3}: 2 listed, no msg, 5 ops
	"01" + "01" + "08" + "0001" + "0203" + "00" + "05" +
	"34" + "086c697374" + "00" + "00" + "01" + // insert null at head
	"35" + "086c697374" + "00" + "0307" + "020178" + // update 7@bob "x"
	"36" + "086c697374" + "00" + "0307" + "00" + // remove 7@bob
	"b7" + "06637472" + "00" + "00" + "00" + "53" + // add -42: head carries delta
	"33" + "08726f6f74" + "04676f6e65" + "00" + "00" // del root.gone

// goldenChangesV2Hex is goldenChanges as version 2 wrote it: the
// dependency count is a plain count. Version-2 records stay in existing
// WALs, so it is decode-only: it must decode to goldenChanges and
// re-encode as goldenChangesHex.
const goldenChangesV2Hex = "02" + "03" + "05616c696365" + "03626f62" + "037a6564" + "02" +
	// alice, seq 1, no deps, "init", 6 ops
	"00" + "01" + "00" + "04696e6974" + "06" +
	"71" + "00" + "00" + "00" + "00" + "01" + // make map: head carries kind
	"32" + "0101" + "046e616d65" + "00" + "0203616461" + // set 1@alice.name "ada"
	"32" + "0101" + "0573636f7265" + "00" + "030000000000000440" + // score 2.5: 8B
	"32" + "0101" + "026f6e" + "00" + "0401" + // on true
	"32" + "0101" + "04626c6f62" + "00" + "0502dead" + // blob
	"32" + "08726f6f74" + "03726566" + "00" + "060101" + // root.ref → 1@alice
	// bob, seq 1, deps {alice 1, zed 3}, no msg, 5 ops
	"01" + "01" + "02" + "0001" + "0203" + "00" + "05" +
	"34" + "086c697374" + "00" + "00" + "01" + // insert null at head
	"35" + "086c697374" + "00" + "0307" + "020178" + // update 7@bob "x"
	"36" + "086c697374" + "00" + "0307" + "00" + // remove 7@bob
	"b7" + "06637472" + "00" + "00" + "00" + "53" + // add -42: head carries delta
	"33" + "08726f6f74" + "04676f6e65" + "00" + "00" // del root.gone

// goldenChangesV1Hex is goldenChanges as version 1 wrote it. Version-1
// records stay in existing WALs, so it is decode-only: it must decode to
// goldenChanges and re-encode as goldenChangesHex.
const goldenChangesV1Hex = "010205616c696365010004696e697406010105616c696365000000000100020205616c69" +
	"6365073140616c696365046e616d650002036164610000020305616c696365073140616c6963650573636f726500" +
	"0300000000000004400000020405616c696365073140616c696365026f6e0004010000020505616c696365073140" +
	"616c69636504626c6f62000502dead0000020605616c69636504726f6f74037265660006073140616c6963650000" +
	"03626f62010205616c69636501037a6564030005040703626f62046c6973740000010000050803626f62046c6973" +
	"7400053740626f620201780000060903626f62046c69737400053740626f62000000070a03626f62036374720000" +
	"000053030b03626f6204726f6f7404676f6e6500000000"

func TestBinaryGolden(t *testing.T) {
	got := hex.EncodeToString(EncodeChangesBinary(goldenChanges()))
	if got != goldenChangesHex {
		t.Fatalf("binary format drifted from golden.\n got: %s\nwant: %s\n"+
			"If the change is intentional, bump BinaryFormatVersion and repin.", got, goldenChangesHex)
	}
}

// TestBinaryOwnDependencyGolden pins the implied own dependency: a
// change whose author's entry is seq−1 lists only its other entries.
func TestBinaryOwnDependencyGolden(t *testing.T) {
	chs := []Change{{Actor: "a", Seq: 3, Deps: VersionVector{"a": 2, "b": 5}}}
	const want = "03" + "02" + "0161" + "0162" + "01" +
		"00" + "03" + "06" + "0105" + "00" + "00" // a, seq 3, own implied + 1 listed: b 5
	enc := EncodeChangesBinary(chs)
	if got := hex.EncodeToString(enc); got != want {
		t.Fatalf("own-dependency encoding drifted.\n got: %s\nwant: %s", got, want)
	}
	dec, err := DecodeChangesBinary(enc)
	if err != nil || !sameChanges(dec, chs) {
		t.Fatalf("decoded %+v, %v; want %+v", dec, err, chs)
	}
}

func TestBinaryV1GoldenDecodes(t *testing.T) {
	testOldGoldenDecodes(t, 1, goldenChangesV1Hex)
}

func TestBinaryV2GoldenDecodes(t *testing.T) {
	testOldGoldenDecodes(t, 2, goldenChangesV2Hex)
}

// testOldGoldenDecodes checks a decode-only golden of an older version:
// it decodes to goldenChanges, re-encodes as goldenChangesHex, and
// every truncation of it fails.
func testOldGoldenDecodes(t *testing.T, version int, golden string) {
	old, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeChangesBinary(old)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeChanges(dec), normalizeChanges(goldenChanges())) {
		t.Fatalf("version-%d golden decoded to\n%+v\nwant\n%+v", version, dec, goldenChanges())
	}
	if got := hex.EncodeToString(EncodeChangesBinary(dec)); got != goldenChangesHex {
		t.Fatalf("version-%d golden re-encodes as\n%s\nwant\n%s", version, got, goldenChangesHex)
	}
	for i := 1; i < len(old); i++ {
		if _, err := DecodeChangesBinary(old[:i]); !errors.Is(err, ErrBinaryFormat) {
			t.Fatalf("version-%d truncation at %d: err = %v, want ErrBinaryFormat", version, i, err)
		}
	}
}

func TestBinaryChangesRoundTrip(t *testing.T) {
	chs := goldenChanges()
	enc := EncodeChangesBinary(chs)
	dec, err := DecodeChangesBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeChanges(chs), normalizeChanges(dec)) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", dec, chs)
	}
	// Encoding the decoded form must be byte-identical (determinism).
	if reenc := EncodeChangesBinary(dec); string(reenc) != string(enc) {
		t.Fatal("re-encoding decoded changes is not byte-identical")
	}
}

// normalizeChanges maps nil and empty slices/maps to a canonical form
// so DeepEqual compares semantics, not allocation accidents.
func normalizeChanges(chs []Change) []Change {
	out := make([]Change, len(chs))
	for i, ch := range chs {
		if len(ch.Deps) == 0 {
			ch.Deps = nil
		}
		ops := make([]Op, len(ch.Ops))
		for j, op := range ch.Ops {
			if len(op.Val.Bytes) == 0 {
				op.Val.Bytes = nil
			}
			ops[j] = op
		}
		ch.Ops = ops
		out[i] = ch
	}
	return out
}

func TestBinaryVersionVectorRoundTrip(t *testing.T) {
	vv := VersionVector{"alice": 7, "bob": 0, "edge1/j": 12345678901}
	enc := EncodeVersionVectorBinary(vv)
	dec, err := DecodeVersionVectorBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(vv) {
		t.Fatalf("got %v want %v", dec, vv)
	}
	// Determinism: map iteration order must not leak into the bytes.
	for i := 0; i < 16; i++ {
		if string(EncodeVersionVectorBinary(vv.Clone())) != string(enc) {
			t.Fatal("version vector encoding is not deterministic")
		}
	}
	// Empty vector round-trips too.
	dec, err = DecodeVersionVectorBinary(EncodeVersionVectorBinary(nil))
	if err != nil || len(dec) != 0 {
		t.Fatalf("empty vector: got %v, %v", dec, err)
	}
}

func TestBinaryRejectsBadInput(t *testing.T) {
	enc := EncodeChangesBinary(goldenChanges())

	if _, err := DecodeChangesBinary(nil); !errors.Is(err, ErrBinaryFormat) {
		t.Fatalf("empty input: got %v", err)
	}
	// Unknown version bytes.
	for _, v := range []byte{0, BinaryFormatVersion + 1} {
		bad := append([]byte{v}, enc[1:]...)
		if _, err := DecodeChangesBinary(bad); !errors.Is(err, ErrBinaryFormat) {
			t.Fatalf("version %d: got %v", v, err)
		}
	}
	// Every truncation must error, never panic or succeed.
	for i := 1; i < len(enc); i++ {
		if _, err := DecodeChangesBinary(enc[:i]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", i)
		}
	}
	// Trailing garbage is rejected.
	if _, err := DecodeChangesBinary(append(append([]byte{}, enc...), 0x00)); !errors.Is(err, ErrBinaryFormat) {
		t.Fatalf("trailing bytes: got %v", err)
	}
	// A length prefix pointing past the buffer must not over-allocate.
	huge := []byte{BinaryFormatVersion, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := DecodeChangesBinary(huge); !errors.Is(err, ErrBinaryFormat) {
		t.Fatalf("huge count: got %v", err)
	}
}

func TestBinaryDocStateSurvivesRoundTrip(t *testing.T) {
	d := NewDoc("a")
	lst, err := d.PutNewList(RootObj, "l")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := d.ListAppend(lst, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctr, err := d.PutNewCounter(RootObj, "c")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CounterAdd(ctr, 9); err != nil {
		t.Fatal(err)
	}
	d.Commit("")

	enc := EncodeChangesBinary(d.GetChanges(nil))
	chs, err := DecodeChangesBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := LoadChanges("b", chs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.ToGo(), d2.ToGo()) {
		t.Fatalf("state mismatch after binary round trip:\n got %v\nwant %v", d2.ToGo(), d.ToGo())
	}
	if !d2.Heads().Equal(d.Heads()) {
		t.Fatalf("heads mismatch: %v vs %v", d2.Heads(), d.Heads())
	}
}

// edgeCaseChanges exercises every branch of the version-2 encoder: refs
// that parse and strings that only look like them, numbers the varint
// form must leave alone, counters off the +1 run, timestamps of foreign
// actors, escaped types and kinds, and more actors than the encoder
// scans before it switches to a map.
func edgeCaseChanges() []Change {
	nums := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		1 << 53, -(1 << 53), 1<<53 + 2, -(1<<53 + 2), 1<<53 - 1, -(1 << 63), 5e-324, 0.5, -7}
	ids := []string{"1@a", "007@a", "1@", "@a", "0@a", "00@a", "1@a@b", "a@b", "root", "",
		"18446744073709551615@a", "18446744073709551616@a", "12x@a", "-1@a", "1@@"}
	var ops []Op
	for i, n := range nums {
		ops = append(ops, Op{Type: OpSet, TS: TS{Counter: uint64(100 + 3*i), Actor: "a"}, Obj: "root", Key: fmt.Sprint("n", i), Val: Num(n)})
	}
	for i, id := range ids {
		ops = append(ops,
			Op{Type: OpUpdate, TS: TS{Counter: uint64(200 + i), Actor: "foreign"}, Obj: ObjID(id), Elem: id, Val: ObjRef(ObjID(id))},
			Op{Type: OpInsert, TS: TS{Counter: uint64(201 + i), Actor: "a@b"}, Obj: ObjID(id), Elem: id})
	}
	ops = append(ops,
		Op{Type: OpType(15), TS: TS{Counter: math.MaxUint64, Actor: ""}, Kind: ObjKind(-1), Delta: math.MinInt64},
		Op{Type: OpType(-3), TS: TS{Counter: 0, Actor: "a"}, Kind: ObjKind(300), Delta: math.MaxInt64},
		Op{Type: OpType(1000), TS: TS{Counter: 1, Actor: "a"}})
	chs := []Change{{Actor: "a", Seq: 1, Msg: "edge cases", Ops: ops}}
	// A change per actor past the scan limit, each depending on the
	// previous actors, referring to objects of the first ones.
	for i := 0; i < maxScanActors+4; i++ {
		a := ActorID(fmt.Sprint("actor-", i))
		deps := VersionVector{}
		for j := 0; j < i; j++ {
			deps[ActorID(fmt.Sprint("actor-", j))] = uint64(j + 1)
		}
		chs = append(chs, Change{Actor: a, Seq: uint64(i + 1), Deps: deps, Ops: []Op{
			{Type: OpSet, TS: TS{Counter: uint64(500 + i), Actor: a}, Obj: ObjID(fmt.Sprint(i+1, "@actor-", i/2)), Key: "k", Val: Num(float64(i))},
		}})
	}
	chs = append(chs, Change{Actor: "empty-deps", Seq: 7, Deps: VersionVector{}})
	return chs
}

// sameChanges compares changes exactly: numbers by their bits, so NaN
// equals itself and −0 differs from 0.
func sameChanges(got, want []Change) bool {
	got, want = normalizeChanges(got), normalizeChanges(want)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if len(g.Ops) != len(w.Ops) {
			return false
		}
		for j := range g.Ops {
			if math.Float64bits(g.Ops[j].Val.Num) != math.Float64bits(w.Ops[j].Val.Num) {
				return false
			}
			g.Ops[j].Val.Num, w.Ops[j].Val.Num = 0, 0
		}
		if !reflect.DeepEqual(g, w) {
			return false
		}
	}
	return true
}

func TestBinaryEdgeCasesRoundTrip(t *testing.T) {
	chs := edgeCaseChanges()
	enc := EncodeChangesBinary(chs)
	dec, err := DecodeChangesBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !sameChanges(dec, chs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", dec, chs)
	}
	if !bytes.Equal(EncodeChangesBinary(dec), enc) {
		t.Fatal("re-encoding decoded changes is not byte-identical")
	}
}

// genChanges builds a random change set in the shape decoding returns,
// drawing actors, IDs and numbers from pools that include the edge
// cases above.
func genChanges(r *rand.Rand) []Change {
	actors := []ActorID{"a", "b", "edge-1", "a@b", "", "x@", "@"}
	for i := r.IntN(2) * (maxScanActors + 2); i > 0; i-- {
		actors = append(actors, ActorID(fmt.Sprint("n", i)))
	}
	actor := func() ActorID { return actors[r.IntN(len(actors))] }
	literals := []string{"root", "007@a", "1@", "@a", "0@a", "1@a@b", "", "18446744073709551616@b", "\xff@a"}
	id := func() string {
		if r.IntN(3) == 0 {
			return literals[r.IntN(len(literals))]
		}
		return strconv.FormatUint(r.Uint64()>>(r.IntN(64)), 10) + "@" + string(actor())
	}
	nums := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		1<<53 + 2, 1<<53 - 1, -(1 << 53), -(1 << 63), 5e-324}
	value := func() Value {
		switch k := ValKind(r.IntN(7)); k {
		case ValStr:
			return Str(id())
		case ValNum:
			switch r.IntN(3) {
			case 0:
				return Num(nums[r.IntN(len(nums))])
			case 1:
				return Num(float64(r.Int64N(1<<20) - 1<<19))
			default:
				return Num(math.Float64frombits(r.Uint64()))
			}
		case ValBool:
			return Bool(r.IntN(2) == 1)
		case ValBytes:
			return Value{Kind: k, Bytes: []byte(id())}
		case ValObj:
			return ObjRef(ObjID(id()))
		default:
			return Value{Kind: k}
		}
	}
	chs := make([]Change, r.IntN(4))
	var counter uint64
	for i := range chs {
		ch := Change{Actor: actor(), Seq: r.Uint64() >> r.IntN(64), Msg: literals[r.IntN(len(literals))]}
		if n := r.IntN(4); n > 0 {
			ch.Deps = VersionVector{}
			for j := 0; j < n; j++ {
				ch.Deps[actor()] = r.Uint64() >> r.IntN(64)
			}
			if ch.Seq > 0 && r.IntN(2) == 0 {
				ch.Deps[ch.Actor] = ch.Seq - 1
			}
		}
		for j := r.IntN(5); j > 0; j-- {
			if r.IntN(3) == 0 {
				counter = r.Uint64() >> r.IntN(64)
			} else {
				counter++
			}
			ts := TS{Counter: counter, Actor: ch.Actor}
			if r.IntN(3) == 0 {
				ts.Actor = actor()
			}
			op := Op{Type: OpType(r.IntN(24) - 4), TS: ts, Obj: ObjID(id()), Key: literals[r.IntN(len(literals))], Val: value()}
			if r.IntN(2) == 0 {
				op.Elem = id()
			}
			if r.IntN(3) == 0 {
				op.Kind = ObjKind(r.IntN(8) - 2)
			}
			if r.IntN(3) == 0 {
				op.Delta = r.Int64() - r.Int64()
			}
			ch.Ops = append(ch.Ops, op)
		}
		chs[i] = ch
	}
	return chs
}

// FuzzChangesBinary checks the change codec on every input: arbitrary
// bytes decode to changes or to an ErrBinaryFormat error, never a
// panic, and what decodes survives re-encoding; and a change set
// generated from the input's hash survives encode then decode exactly,
// fits its size hint, and fails with ErrBinaryFormat when truncated.
func FuzzChangesBinary(f *testing.F) {
	for _, chs := range [][]Change{goldenChanges(), edgeCaseChanges(), nil} {
		f.Add(EncodeChangesBinary(chs))
	}
	for _, h := range []string{goldenChangesV1Hex, goldenChangesV2Hex, goldenChangesHex} {
		b, _ := hex.DecodeString(h)
		f.Add(b)
	}
	f.Add([]byte{})
	// Stream-mode dependencies outside a stream, with and without
	// listed entries, and an implied own entry of a change with seq 0.
	f.Add([]byte{BinaryFormatVersion, 0x01, 0x01, 'a', 0x01, 0x00, 0x02, 0x01, 0x00, 0x00})
	f.Add([]byte{BinaryFormatVersion, 0x02, 0x01, 'a', 0x01, 'b', 0x01, 0x00, 0x02, 0x07, 0x01, 0x04, 0x00, 0x00})
	f.Add([]byte{BinaryFormatVersion, 0x01, 0x01, 'a', 0x01, 0x00, 0x00, 0x02, 0x00, 0x00})
	f.Add([]byte{BinaryFormatVersion, 0x01, 0x00, 0x01, 0x05})                               // actor index past the table
	f.Add([]byte{BinaryFormatVersion, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x01, 0x32, 0x03}) // ref to a missing actor
	f.Fuzz(func(t *testing.T, data []byte) {
		if dec, err := DecodeChangesBinary(data); err != nil {
			if !errors.Is(err, ErrBinaryFormat) {
				t.Fatalf("decode error %v does not wrap ErrBinaryFormat", err)
			}
		} else {
			enc := EncodeChangesBinary(dec)
			again, err := DecodeChangesBinary(enc)
			if err != nil || !bytes.Equal(EncodeChangesBinary(again), enc) {
				t.Fatalf("decoded changes do not survive re-encoding: %v", err)
			}
		}
		h := fnv.New64a()
		_, _ = h.Write(data)
		want := genChanges(rand.New(rand.NewPCG(h.Sum64(), uint64(len(data)))))
		enc := EncodeChangesBinary(want)
		if hint := ChangesSizeHint(want); len(enc) > hint {
			t.Fatalf("encoded %d bytes, size hint %d", len(enc), hint)
		}
		got, err := DecodeChangesBinary(enc)
		if err != nil {
			t.Fatalf("decode(encode(chs)): %v", err)
		}
		if !sameChanges(got, want) {
			t.Fatalf("decode(encode(chs)) != chs\n got %+v\nwant %+v", got, want)
		}
		for i := range enc {
			if _, err := DecodeChangesBinary(enc[:i]); !errors.Is(err, ErrBinaryFormat) {
				t.Fatalf("truncation at %d: err = %v, want ErrBinaryFormat", i, err)
			}
		}
		// Through a stream: the same changes twice, then changes by the
		// same actor pool, so later records list dependencies relative
		// to the memory; each decodes exactly, and the input decoded
		// through the stream fails or decodes, never panics.
		var encDict, decDict StringDict
		for i, chs := range [][]Change{want, want, genChanges(rand.New(rand.NewPCG(uint64(len(data)), h.Sum64())))} {
			rec := encodeChanges(nil, chs, &encDict)
			got, err := decodeChanges(rec, new(atomTable), &decDict)
			if err != nil || !sameChanges(got, chs) {
				t.Fatalf("record %d through a stream: %v\n got %+v\nwant %+v", i, err, got, chs)
			}
		}
		if _, err := decodeChanges(data, new(atomTable), &decDict); err != nil && !errors.Is(err, ErrBinaryFormat) {
			t.Fatalf("stream decode error %v does not wrap ErrBinaryFormat", err)
		}
	})
}
