package crdt

import (
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func goldenComponents() map[string][]Change {
	chs := []Change{
		{Actor: "alice", Seq: 1, Msg: "m", Ops: []Op{{Type: OpSet, TS: TS{Counter: 1, Actor: "alice"}, Obj: "root", Key: "k", Val: Str("v")}}},
		{Actor: "bob", Seq: 2, Deps: VersionVector{"alice": 1}, Ops: []Op{{Type: OpAdd, TS: TS{Counter: 2, Actor: "bob"}, Obj: "ctr", Delta: -3}}},
	}
	return map[string][]Change{"tables": chs[1:], "json": chs[:1], "files": nil}
}

// goldenComponentsHex pins the record layout with version-3 change
// encodings inside.
const goldenComponentsHex = "03" +
	"0566696c6573" + "03" + "030000" + // files: no actors, no changes
	"046a736f6e" + "1b" + "030105616c696365" + "01" + "000100016d01" + "3208726f6f74016b00020176" +
	"067461626c6573" + "1e" + "030203626f6205616c696365" + "01" + "0002040101000197" + "0206637472000000" + "05"

// goldenComponentsV2Hex is goldenComponents as version 2 wrote it.
// Existing data directories hold such records, so it is decode-only:
// it must decode to goldenComponents and re-encode as
// goldenComponentsHex.
const goldenComponentsV2Hex = "03" +
	"0566696c6573" + "03" + "020000" +
	"046a736f6e" + "1b" + "020105616c696365" + "01" + "000100016d01" + "3208726f6f74016b00020176" +
	"067461626c6573" + "1e" + "020203626f6205616c696365" + "01" + "0002010101000197" + "0206637472000000" + "05"

// goldenComponentsV1Hex is the bytes the WAL wrote for goldenComponents
// in version 1, before the codec moved here from internal/durable.
// Existing data directories hold such records, so they must keep
// decoding; re-encoding them gives goldenComponentsHex.
const goldenComponentsV1Hex = "030566696c6573020100046a736f6e22010105616c6963650100016d01020105616c69" +
	"6365" + "04726f6f74016b000201760000067461626c657320010103626f62020105616c6963650100" +
	"01070203626f62036374720000000005"

func TestComponentsGolden(t *testing.T) {
	got := hex.EncodeToString(AppendComponents(nil, goldenComponents(), nil))
	if got != goldenComponentsHex {
		t.Fatalf("component record drifted from golden.\n got: %s\nwant: %s", got, goldenComponentsHex)
	}
}

func TestComponentsV1GoldenDecodes(t *testing.T) {
	testOldComponentsDecode(t, 1, goldenComponentsV1Hex)
}

func TestComponentsV2GoldenDecodes(t *testing.T) {
	testOldComponentsDecode(t, 2, goldenComponentsV2Hex)
}

// testOldComponentsDecode checks a decode-only record golden of an
// older change format: it decodes to goldenComponents and re-encodes as
// goldenComponentsHex.
func testOldComponentsDecode(t *testing.T, version int, golden string) {
	old, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeComponents(old)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenComponents()
	for name, chs := range want {
		if !reflect.DeepEqual(normalizeChanges(dec[name]), normalizeChanges(chs)) {
			t.Fatalf("component %q decoded to %+v, want %+v", name, dec[name], chs)
		}
	}
	if len(dec) != len(want) {
		t.Fatalf("decoded %d components, want %d", len(dec), len(want))
	}
	if got := hex.EncodeToString(AppendComponents(nil, dec, nil)); got != goldenComponentsHex {
		t.Fatalf("version-%d record re-encodes as\n%s\nwant\n%s", version, got, goldenComponentsHex)
	}
}

func TestComponentsRoundTripAndPrefix(t *testing.T) {
	in := map[string][]Change{"json": goldenChanges(), "tables": goldenChanges()[1:]}
	enc := AppendComponents(nil, in, nil)
	if hint := ComponentsSizeHint(in); len(enc) > hint {
		t.Fatalf("encoded %d bytes, hint %d is not an upper bound", len(enc), hint)
	}
	out, err := DecodeComponents(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(AppendComponents(nil, out, nil), enc) {
		t.Fatal("decode then re-encode changed the bytes")
	}
	// ReadComponents stops at the record's end; DecodeComponents
	// rejects the same input with a trailing byte.
	withTail := append(append([]byte(nil), enc...), 0xff)
	if _, n, err := ReadComponents(withTail, nil); err != nil || n != len(enc) {
		t.Fatalf("ReadComponents = (%d, %v), want (%d, nil)", n, err, len(enc))
	}
	if _, err := DecodeComponents(withTail); !errors.Is(err, ErrBinaryFormat) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeComponents(enc[:cut]); !errors.Is(err, ErrBinaryFormat) {
			t.Fatalf("truncation at %d: err = %v, want ErrBinaryFormat", cut, err)
		}
	}
}

// TestDecodeHugeCountsDoNotPanic feeds counts no input could back: the
// decoders must fail on the missing bytes, not on a preallocation.
func TestDecodeHugeCountsDoNotPanic(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	for name, b := range map[string][]byte{
		"components": huge,
		"changes":    append([]byte{BinaryFormatVersion}, huge...),
		"vector":     append([]byte{BinaryFormatVersion}, huge...),
	} {
		var err error
		switch name {
		case "components":
			_, err = DecodeComponents(b)
		case "changes":
			_, err = DecodeChangesBinary(b)
		case "vector":
			_, err = DecodeVersionVectorBinary(b)
		}
		if !errors.Is(err, ErrBinaryFormat) {
			t.Fatalf("%s: err = %v, want ErrBinaryFormat", name, err)
		}
	}
}

// TestComponentsThroughDictionary streams records through one encoder
// and one decoder dictionary: every record decodes to its input, a
// record whose strings the stream has carried before is smaller than
// its self-contained encoding, and both tables end equal.
func TestComponentsThroughDictionary(t *testing.T) {
	records := []map[string][]Change{
		{"json": goldenChanges()},
		{"json": goldenChanges()[1:], "tables": goldenChanges()[:1]},
		{"json": goldenChanges()},
	}
	var enc, dec StringDict
	for i, in := range records {
		b := AppendComponents(nil, in, &enc)
		if hint := ComponentsSizeHint(in); len(b) > hint {
			t.Fatalf("record %d: %d bytes exceed the size hint %d", i, len(b), hint)
		}
		out, n, err := ReadComponents(b, &dec)
		if err != nil || n != len(b) {
			t.Fatalf("record %d: ReadComponents = (%d, %v), want (%d, nil)", i, n, err, len(b))
		}
		for name, chs := range in {
			if !reflect.DeepEqual(normalizeChanges(out[name]), normalizeChanges(chs)) {
				t.Fatalf("record %d, component %q: decoded %+v, want %+v", i, name, out[name], chs)
			}
		}
		if plain := len(AppendComponents(nil, in, nil)); i > 0 && len(b) >= plain {
			t.Fatalf("record %d: %d bytes through the dictionary, %d without", i, len(b), plain)
		}
	}
	if !reflect.DeepEqual(enc.strs, dec.strs) {
		t.Fatalf("tables diverged:\nencoder %q\ndecoder %q", enc.strs, dec.strs)
	}
}

// TestDictionaryBound: past dictMaxEntries strings, or for a string
// longer than dictMaxString, nothing is inserted and the string stays
// literal, on both ends alike.
func TestDictionaryBound(t *testing.T) {
	long := string(make([]byte, dictMaxString+1))
	ch := Change{Actor: "a", Seq: 1}
	for i := 0; i < dictMaxEntries+50; i++ {
		ch.Ops = append(ch.Ops, Op{Type: OpSet, TS: TS{Counter: uint64(i + 1), Actor: "a"},
			Obj: RootObj, Key: fmt.Sprint("k", i), Val: Num(float64(i))})
	}
	ch.Ops = append(ch.Ops, Op{Type: OpSet, TS: TS{Counter: 1 << 20, Actor: "a"}, Obj: RootObj, Key: long})
	in := map[string][]Change{"json": {ch}}
	var enc, dec StringDict
	for round := 0; round < 2; round++ {
		b := AppendComponents(nil, in, &enc)
		out, err := decodeWith(b, &dec)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(normalizeChanges(out["json"]), normalizeChanges(in["json"])) {
			t.Fatalf("round %d: the record did not survive the full dictionary", round)
		}
		if enc.Len() != dictMaxEntries || dec.Len() != dictMaxEntries {
			t.Fatalf("round %d: tables hold %d and %d strings, want the bound %d", round, enc.Len(), dec.Len(), dictMaxEntries)
		}
	}
	if _, ok := enc.index[long]; ok {
		t.Fatal("a string longer than dictMaxString entered the dictionary")
	}
}

// decodeWith decodes exactly one record through dict.
func decodeWith(b []byte, dict *StringDict) (map[string][]Change, error) {
	out, n, err := ReadComponents(b, dict)
	if err == nil && n != len(b) {
		err = fmt.Errorf("%d trailing bytes", len(b)-n)
	}
	return out, err
}

// TestDictionaryUnknownIndex: a reference past the decoder's table is
// a format error, whether the table is empty or holds fewer strings
// than the reference needs.
func TestDictionaryUnknownIndex(t *testing.T) {
	in := map[string][]Change{"json": goldenChanges()}
	var enc StringDict
	AppendComponents(nil, in, &enc)
	second := AppendComponents(nil, in, &enc) // all references
	var fresh StringDict
	if _, err := decodeWith(second, &fresh); !errors.Is(err, ErrBinaryFormat) {
		t.Fatalf("references into an empty table: err = %v, want ErrBinaryFormat", err)
	}
	short := StringDict{strs: []string{"json"}}
	if _, err := decodeWith(second, &short); !errors.Is(err, ErrBinaryFormat) {
		t.Fatalf("references past a one-entry table: err = %v, want ErrBinaryFormat", err)
	}
}

// TestUnsupportedVersionIsTyped: a change encoding of a version this
// build does not know fails with an *UnsupportedVersionError that
// still wraps ErrBinaryFormat, so callers can tell "newer data" from
// damage.
func TestUnsupportedVersionIsTyped(t *testing.T) {
	rec := AppendComponents(nil, map[string][]Change{"json": goldenChanges()}, nil)
	at := 1 + 1 + len("json") + 2 // ncomponents, name, two-byte enc length
	if rec[at] != BinaryFormatVersion {
		t.Fatalf("byte %d is %#x, want the format version", at, rec[at])
	}
	rec[at] = BinaryFormatVersion + 1
	_, err := DecodeComponents(rec)
	var uv *UnsupportedVersionError
	if !errors.As(err, &uv) || uv.Version != BinaryFormatVersion+1 || !errors.Is(err, ErrBinaryFormat) {
		t.Fatalf("err = %v, want an *UnsupportedVersionError for version %d wrapping ErrBinaryFormat", err, BinaryFormatVersion+1)
	}
	if _, err := DecodeChangesBinary([]byte{0}); !errors.As(err, &uv) || uv.Version != 0 {
		t.Fatalf("version 0: err = %v, want an *UnsupportedVersionError", err)
	}
}

// TestStreamDependencies streams changes of one author through a
// dictionary: after the first, each lists only the dependency entries
// that moved, the own entry implied; a change that drops an actor of
// the remembered vector lists all of its entries again; every record
// decodes to its input, and both memories end equal.
func TestStreamDependencies(t *testing.T) {
	change := func(seq uint64, deps VersionVector) Change {
		return Change{Actor: "e/t", Seq: seq, Deps: deps, Ops: []Op{
			{Type: OpSet, TS: TS{Counter: seq, Actor: "e/t"}, Obj: RootObj, Key: "k", Val: Num(float64(seq))}}}
	}
	records := []struct {
		ch     Change
		listed int // entries written
		word   uint64
	}{
		{change(2, VersionVector{"e/t": 1, "c/t": 7, "f/t": 3}), 2, 2<<2 | 2},
		{change(3, VersionVector{"e/t": 2, "c/t": 7, "f/t": 3}), 0, 3},
		{change(4, VersionVector{"e/t": 3, "c/t": 8, "f/t": 3}), 1, 1<<2 | 3},
		{change(5, VersionVector{"e/t": 4, "c/t": 8}), 1, 1<<2 | 2}, // f/t dropped: no stream
		{change(6, VersionVector{"e/t": 5, "c/t": 8, "g/t": 1}), 1, 1<<2 | 3},
	}
	var enc, dec StringDict
	for i, r := range records {
		b := encodeChanges(nil, []Change{r.ch}, &enc)
		// version, actor table, one change: actor 0 and a one-byte seq.
		d := &binDecoder{b: b, dict: &StringDict{strs: slices.Clone(dec.strs)}, version: BinaryFormatVersion, pos: 1}
		if err := d.actorTable(); err != nil {
			t.Fatal(err)
		}
		if word := b[d.pos+3]; uint64(word) != r.word {
			t.Fatalf("record %d: dependency word %#x, want %#x", i, word, r.word)
		}
		got, err := decodeChanges(b, new(atomTable), &dec)
		if err != nil || !sameChanges(got, []Change{r.ch}) {
			t.Fatalf("record %d: decoded %+v, %v; want %+v", i, got, err, r.ch)
		}
	}
	if !reflect.DeepEqual(enc.deps, dec.deps) || len(enc.deps) != 1 {
		t.Fatalf("memories diverged or hold the wrong authors:\nencoder %v\ndecoder %v", enc.deps, dec.deps)
	}
}

// TestStreamDependencyErrors: a stream-mode dependency list decodes only
// through a stream whose memory holds its author; anywhere else it is a
// format error, not a panic.
func TestStreamDependencyErrors(t *testing.T) {
	// version 3, actor table ["a"], one change: actor 0, seq 1, stream
	// mode with nothing listed, no message, no ops.
	rec := []byte{BinaryFormatVersion, 0x01, 0x01, 'a', 0x01, 0x00, 0x01, 0x01, 0x00, 0x00}
	if _, err := DecodeChangesBinary(rec); !errors.Is(err, ErrBinaryFormat) || !strings.Contains(err.Error(), "outside a stream") {
		t.Fatalf("without a stream: err = %v, want a format error", err)
	}
	// Through a dictionary, "a" is a literal of header 2×1.
	streamRec := []byte{BinaryFormatVersion, 0x01, 0x02, 'a', 0x01, 0x00, 0x01, 0x01, 0x00, 0x00}
	var fresh StringDict
	if _, err := decodeChanges(streamRec, new(atomTable), &fresh); !errors.Is(err, ErrBinaryFormat) || !strings.Contains(err.Error(), "has not carried") {
		t.Fatalf("unknown author: err = %v, want a format error", err)
	}
	// An implied own entry for seq 0 has no value.
	own := []byte{BinaryFormatVersion, 0x01, 0x01, 'a', 0x01, 0x00, 0x00, 0x02, 0x00, 0x00}
	if _, err := DecodeChangesBinary(own); !errors.Is(err, ErrBinaryFormat) {
		t.Fatalf("implied own entry at seq 0: err = %v, want a format error", err)
	}
	// Once the memory holds the author, the same bytes decode.
	var known StringDict
	known.rememberDeps("a", VersionVector{"b": 4})
	chs, err := decodeChanges(streamRec, new(atomTable), &known)
	if err != nil || !reflect.DeepEqual(chs[0].Deps, VersionVector{"b": 4}) {
		t.Fatalf("remembered author: %+v, %v; want deps {b 4}", chs, err)
	}
}

// TestDependencyMemoryBound: the memory holds at most dictMaxEntries
// authors and keeps no vector of more than depsMaxActors entries or
// with a string longer than dictMaxString, on both ends alike, and
// every record still decodes exactly.
func TestDependencyMemoryBound(t *testing.T) {
	long := ActorID(strings.Repeat("x", dictMaxString+1))
	wide := VersionVector{}
	for i := 0; i <= depsMaxActors; i++ {
		wide[ActorID(fmt.Sprint("w", i))] = 1
	}
	var chs []Change
	for i := 0; i < dictMaxEntries+10; i++ {
		chs = append(chs, Change{Actor: ActorID(fmt.Sprint("a", i)), Seq: 1, Deps: VersionVector{"c": uint64(i)}})
	}
	chs = append(chs,
		Change{Actor: "a0", Seq: 2, Deps: wide},                           // too wide: a0 keeps {c 0}
		Change{Actor: "a1", Seq: 2, Deps: VersionVector{long: 1}},         // too long: a1 keeps {c 1}
		Change{Actor: long, Seq: 1, Deps: VersionVector{"c": 1}},          // author too long
		Change{Actor: "a2", Seq: 2, Deps: VersionVector{"a2": 1, "c": 9}}) // replaced
	var enc, dec StringDict
	for round := 0; round < 2; round++ {
		b := AppendComponents(nil, map[string][]Change{"json": chs}, &enc)
		out, err := decodeWith(b, &dec)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !sameChanges(out["json"], chs) {
			t.Fatalf("round %d: the record did not survive the full memory", round)
		}
	}
	if len(enc.deps) != dictMaxEntries || !reflect.DeepEqual(enc.deps, dec.deps) {
		t.Fatalf("memories hold %d and %d authors (equal: %v), want the bound %d",
			len(enc.deps), len(dec.deps), reflect.DeepEqual(enc.deps, dec.deps), dictMaxEntries)
	}
	want := map[ActorID]VersionVector{"a0": {"c": 0}, "a1": {"c": 1}, "a2": {"a2": 1, "c": 9}}
	for a, deps := range want {
		if !reflect.DeepEqual(enc.deps[a], deps) {
			t.Errorf("memory holds %v for %s, want %v", enc.deps[a], a, deps)
		}
	}
	if _, ok := enc.deps[long]; ok {
		t.Error("an author longer than dictMaxString entered the memory")
	}
}
