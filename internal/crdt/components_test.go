package crdt

import (
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
)

func goldenComponents() map[string][]Change {
	chs := []Change{
		{Actor: "alice", Seq: 1, Msg: "m", Ops: []Op{{Type: OpSet, TS: TS{Counter: 1, Actor: "alice"}, Obj: "root", Key: "k", Val: Str("v")}}},
		{Actor: "bob", Seq: 2, Deps: VersionVector{"alice": 1}, Ops: []Op{{Type: OpAdd, TS: TS{Counter: 2, Actor: "bob"}, Obj: "ctr", Delta: -3}}},
	}
	return map[string][]Change{"tables": chs[1:], "json": chs[:1], "files": nil}
}

// goldenComponentsHex pins the record layout with version-2 change
// encodings inside.
const goldenComponentsHex = "03" +
	"0566696c6573" + "03" + "020000" + // files: no actors, no changes
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
	got := hex.EncodeToString(AppendComponents(nil, goldenComponents()))
	if got != goldenComponentsHex {
		t.Fatalf("component record drifted from golden.\n got: %s\nwant: %s", got, goldenComponentsHex)
	}
}

func TestComponentsV1GoldenDecodes(t *testing.T) {
	v1, err := hex.DecodeString(goldenComponentsV1Hex)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeComponents(v1)
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
	if got := hex.EncodeToString(AppendComponents(nil, dec)); got != goldenComponentsHex {
		t.Fatalf("version-1 record re-encodes as\n%s\nwant\n%s", got, goldenComponentsHex)
	}
}

func TestComponentsRoundTripAndPrefix(t *testing.T) {
	in := map[string][]Change{"json": goldenChanges(), "tables": goldenChanges()[1:]}
	enc := AppendComponents(nil, in)
	if hint := ComponentsSizeHint(in); len(enc) > hint {
		t.Fatalf("encoded %d bytes, hint %d is not an upper bound", len(enc), hint)
	}
	out, err := DecodeComponents(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(AppendComponents(nil, out), enc) {
		t.Fatal("decode then re-encode changed the bytes")
	}
	// ReadComponents stops at the record's end; DecodeComponents
	// rejects the same input with a trailing byte.
	withTail := append(append([]byte(nil), enc...), 0xff)
	if _, n, err := ReadComponents(withTail); err != nil || n != len(enc) {
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
