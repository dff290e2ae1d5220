package statesync

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/crdt"
)

// goldenFrames is one frame of each kind, with every field its kind
// uses set.
func goldenFrames() map[string]*frame {
	ch := crdt.Change{
		Actor: "edge-1", Seq: 3, Deps: crdt.VersionVector{"cloud": 2},
		Ops: []crdt.Op{
			{Type: crdt.OpSet, TS: crdt.TS{Counter: 9, Actor: "edge-1"}, Obj: "root", Key: "n", Val: crdt.Num(4)},
			{Type: crdt.OpSet, TS: crdt.TS{Counter: 10, Actor: "edge-1"}, Obj: "root", Key: "f", Val: crdt.Bytes([]byte{0xca, 0xfe})},
		},
	}
	return map[string]*frame{
		"hello": {
			Kind: frameHello, From: "edge-1",
			Heads: Heads{CompJSON: {"cloud": 2, "edge-1": 3}, CompTables: {"cloud": 1}},
		},
		"state":     {Kind: frameState, Delta: Delta{CompJSON: {ch}}},
		"heartbeat": {Kind: frameHeartbeat},
	}
}

// goldenFrameHex pins the payload layout of each golden frame, encoded
// without a dictionary. If this test fails after an intentional layout
// change, bump wireVersion and repin — never repin under the same
// version byte.
var goldenFrameHex = map[string]string{
	// kind, version, from "edge-1", heads {json: {cloud 2, edge-1 3},
	// tables: {cloud 1}}.
	"hello": "0105" + "06656467652d31" +
		"02" + "046a736f6e" + "02" + "05636c6f756402" + "06656467652d3103" + "067461626c6573" + "01" + "05636c6f756401",
	// kind, delta {json: 48-byte change batch: actors [edge-1 cloud],
	// edge-1 seq 3 deps {cloud 2} (dependency word 04: one entry
	// listed), two ops whose heads say "the change's actor", the
	// second also "previous counter + 1"; 4 travels as a varint}.
	"state": "02" +
		"01" + "046a736f6e" + "30" + "03" + "02" + "06656467652d31" + "05636c6f7564" + "01" +
		"00" + "03" + "040102" + "00" + "02" +
		"12" + "09" + "08726f6f74" + "016e" + "00" + "8308" +
		"32" + "08726f6f74" + "0166" + "00" + "0502cafe",
	"heartbeat": "03",
}

// wireV4Frames are the goldens of wire version 4, whose state frames
// carried version-2 change records: a plain dependency count.
var wireV4Frames = map[string]string{
	"hello": "0104" + "06656467652d31" +
		"02" + "046a736f6e" + "02" + "05636c6f756402" + "06656467652d3103" + "067461626c6573" + "01" + "05636c6f756401",
	"state": "02" +
		"01" + "046a736f6e" + "30" + "02" + "02" + "06656467652d31" + "05636c6f7564" + "01" +
		"00" + "03" + "010102" + "00" + "02" +
		"12" + "09" + "08726f6f74" + "016e" + "00" + "8308" +
		"32" + "08726f6f74" + "0166" + "00" + "0502cafe",
}

// wireV3Frames are the goldens of wire version 3: a 4-byte length word,
// and every payload led by the version byte and carrying sender, heads
// and delta.
var wireV3Frames = map[string]string{
	"hello": "0301" + "06656467652d31" +
		"02" + "046a736f6e" + "02" + "05636c6f756402" + "06656467652d3103" + "067461626c6573" + "01" + "05636c6f756401" +
		"00",
	"state": "0302" + "00" + "00" +
		"01" + "046a736f6e" + "30" + "02" + "02" + "06656467652d31" + "05636c6f7564" + "01" +
		"00" + "03" + "010102" + "00" + "02" +
		"12" + "09" + "08726f6f74" + "016e" + "00" + "8308" +
		"32" + "08726f6f74" + "0166" + "00" + "0502cafe",
	"heartbeat": "0303" + "00" + "00" + "00",
}

// wireV2Frames are the hello and state goldens of wire version 2,
// whose state frames carried version-1 change records.
var wireV2Frames = map[string]string{
	"hello": "0201" + "06656467652d31" +
		"02" + "046a736f6e" + "02" + "05636c6f756402" + "06656467652d3103" + "067461626c6573" + "01" + "05636c6f756401" +
		"00",
	"state": "0202" + "00" + "00" +
		"01" + "046a736f6e" + "47" + "0101" + "06656467652d31" + "03" + "0105636c6f756402" + "00" + "02" +
		"020906656467652d3104726f6f74016e000300000000000010400000" +
		"020a06656467652d3104726f6f740166000502cafe0000",
}

func TestFrameGolden(t *testing.T) {
	for name, f := range goldenFrames() {
		got := hex.EncodeToString(appendFrame(nil, f, nil))
		if got != goldenFrameHex[name] {
			t.Errorf("%s frame drifted from golden.\n got: %s\nwant: %s", name, got, goldenFrameHex[name])
		}
		back, err := decodeFrame(appendFrame(nil, f, nil), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(back, f) {
			t.Errorf("%s: round trip changed the frame:\n got %+v\nwant %+v", name, back, f)
		}
	}
}

// goldenSession is an edge's first four frames on one connection: its
// hello, then three one-change state frames through the connection's
// dictionary. The first state frame carries every string in full and
// enters it into the dictionary; the second repeats them all as
// references; the third adds one new key.
func goldenSession() []*frame {
	set := func(seq, cloud, counter uint64, key string, n float64) Delta {
		return Delta{CompTables: {{
			Actor: "edge1/t", Seq: seq, Deps: crdt.VersionVector{"cloud/t": cloud, "edge1/t": seq - 1},
			Ops: []crdt.Op{{Type: crdt.OpSet, TS: crdt.TS{Counter: counter, Actor: "edge1/t"},
				Obj: "12@cloud/t", Key: key, Val: crdt.Num(n)}},
		}}}
	}
	return []*frame{
		{Kind: frameHello, From: "edge1", Heads: Heads{CompTables: {"cloud/t": 7, "edge1/t": 2}}},
		{Kind: frameState, Delta: set(3, 7, 40, "stock", 4)},
		{Kind: frameState, Delta: set(4, 7, 41, "stock", 3)},
		{Kind: frameState, Delta: set(5, 8, 42, "loans", 1)},
	}
}

// goldenSessionHex pins goldenSession on the wire, length words
// included.
var goldenSessionHex = []string{
	// Hello: length word 2×35, no dictionary.
	"46" + "0105" + "056564676531" + "01" + "067461626c6573" + "02" + "07636c6f75642f7407" + "0765646765312f7402",
	// Length word 2×49. Literals (length×2), each entered into the
	// dictionary: "tables" (entry 0), actors "edge1/t" (1) and
	// "cloud/t" (2), key "stock" (3). The op's object "12@cloud/t" is
	// a counter@actor ref into the record's actor table, as without a
	// dictionary. The dependency word 06 is one listed entry (cloud/t
	// 7) and the own entry implied; the stream remembers {cloud/t 7,
	// edge1/t 2} for edge1/t.
	"62" + "02" + "01" + "0c7461626c6573" + "27" +
		"03" + "02" + "0e65646765312f74" + "0e636c6f75642f74" + "01" +
		"00" + "03" + "060107" + "00" + "01" +
		"12" + "28" + "030c" + "0a73746f636b" + "00" + "8308",
	// Length word 2×22: the same strings as references (index×2+1),
	// and the dependency word 03: own entry implied, nothing listed,
	// the rest as the stream last carried it.
	"2c" + "02" + "01" + "01" + "12" +
		"03" + "02" + "03" + "05" + "01" +
		"00" + "04" + "03" + "00" + "01" +
		"12" + "29" + "030c" + "07" + "00" + "8306",
	// Length word 2×29: references, "loans" as a new literal (entry
	// 4), and of the dependencies only the one that moved (word 07:
	// cloud/t 8).
	"3a" + "02" + "01" + "01" + "19" +
		"03" + "02" + "03" + "05" + "01" +
		"00" + "05" + "070108" + "00" + "01" +
		"12" + "2a" + "030c" + "0a6c6f616e73" + "00" + "8302",
}

// TestWireSessionGolden pins a session's bytes: the hello without a
// dictionary, then state frames through the connection's. Read back
// through one reading dictionary, the frames decode unchanged, and both
// dictionaries end holding the same five strings.
func TestWireSessionGolden(t *testing.T) {
	var wire bytes.Buffer
	var out, in crdt.StringDict
	// sessionDict is nil for the hello, which goes out before the
	// session's dictionaries exist.
	sessionDict := func(i int, d *crdt.StringDict) *crdt.StringDict {
		if i == 0 {
			return nil
		}
		return d
	}
	eb := crdt.GetEncodeBuffer()
	defer eb.Release()
	for i, f := range goldenSession() {
		blob, err := putFrame(eb, f, sessionDict(i, &out))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(blob); got != goldenSessionHex[i] {
			t.Errorf("frame %d drifted from golden.\n got: %s\nwant: %s", i, got, goldenSessionHex[i])
		}
		wire.Write(blob)
	}
	for i, want := range goldenSession() {
		got, n, err := readFrame(&wire, sessionDict(i, &in))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n != len(goldenSessionHex[i])/2 {
			t.Errorf("frame %d: read %d wire bytes, want %d", i, n, len(goldenSessionHex[i])/2)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d: read back\n%+v\nwant\n%+v", i, got, want)
		}
	}
	if out.Len() != 5 || in.Len() != 5 {
		t.Errorf("dictionaries hold %d (writer) and %d (reader) strings, want 5 each", out.Len(), in.Len())
	}
}

// TestWireDictionaryErrors: a reference to an entry the reading
// dictionary does not hold — a stream read from its middle, or from a
// peer whose table ran past the bound — is a malformed frame, not a
// panic.
func TestWireDictionaryErrors(t *testing.T) {
	// The session's second state frame: nothing but references.
	refs, err := hex.DecodeString(goldenSessionHex[2])
	if err != nil {
		t.Fatal(err)
	}
	var fresh crdt.StringDict
	if _, _, err := readFrame(bytes.NewReader(refs), &fresh); !errors.Is(err, errFrameFormat) ||
		!strings.Contains(err.Error(), "dictionary index") {
		t.Fatalf("references without their literals: err = %v, want an unknown-index frame error", err)
	}
	// Without a dictionary the references are not strings at all.
	if _, _, err := readFrame(bytes.NewReader(refs), nil); !errors.Is(err, errFrameFormat) {
		t.Fatalf("references read without a dictionary: err = %v, want a frame error", err)
	}
}

// lengthPrefixed frames raw payload bytes the way wire versions up to 3
// did, and a JSON-era peer too: a 4-byte big-endian length word.
func lengthPrefixed(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// wireFramed frames raw payload bytes the way this wire version does.
func wireFramed(payload []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(payload))<<1), payload...)
}

// TestJSONEraHelloRejected: a peer still framing JSON must be refused
// with an error that says so, at the frame layer and at the master's
// hello. So must a hello of a future wire version.
func TestJSONEraHelloRejected(t *testing.T) {
	jsonHello := lengthPrefixed([]byte(`{"kind":"hello","from":"edge-1","window":64}`))
	_, _, err := readFrame(bytes.NewReader(jsonHello), nil)
	if !errors.Is(err, errFrameFormat) || !strings.Contains(err.Error(), "JSON") {
		t.Fatalf("readFrame(JSON hello) err = %v, want a malformed-frame error naming JSON", err)
	}
	future := wireFramed([]byte{byte(frameHello), wireVersion + 1})
	_, _, err = readFrame(bytes.NewReader(future), nil)
	if !errors.Is(err, errFrameFormat) || !strings.Contains(err.Error(), "wire version") {
		t.Fatalf("readFrame(future version) err = %v, want a wire-version error", err)
	}
	expectBadHello(t, jsonHello, "JSON")
	expectBadHello(t, future, fmt.Sprintf("peer speaks wire version %d", wireVersion+1))
}

// expectBadHello sends wire as a peer's first bytes to a live master
// and requires the master to refuse it with a bad-hello error
// containing want, counting no connect.
func expectBadHello(t *testing.T, wire []byte, want string) {
	t.Helper()
	srv, err := ServeMasterConfig("127.0.0.1:0", &Endpoint{Name: "cloud", State: newState(t, "cloud")}, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	errCh := make(chan error, 1)
	srv.SetErrorHandler(func(err error) {
		select {
		case errCh <- err:
		default:
		}
	})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !strings.Contains(err.Error(), "bad hello") || !strings.Contains(err.Error(), want) {
			t.Fatalf("master error %q is not a bad hello naming %q", err, want)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("master never reported the bad hello")
	}
	if got := srv.Stats().Connects; got != 0 {
		t.Fatalf("master counted %d connects from a refused peer, want 0", got)
	}
}

// expectOldHelloRejected requires an old wire version's hello, framed
// as that version framed it (a 4-byte length word up to version 3, a
// varint one from version 4), to be refused with an error naming the
// version, at the frame layer and at the master.
func expectOldHelloRejected(t *testing.T, helloHex string, version int) {
	t.Helper()
	hello, err := hex.DecodeString(helloHex)
	if err != nil {
		t.Fatal(err)
	}
	framed := lengthPrefixed(hello)
	if version >= 4 {
		framed = wireFramed(hello)
	}
	want := fmt.Sprintf("peer speaks wire version %d", version)
	_, _, err = readFrame(bytes.NewReader(framed), nil)
	if !errors.Is(err, errFrameFormat) || !strings.Contains(err.Error(), want) {
		t.Fatalf("readFrame(v%d hello) err = %v, want a wire-version error", version, err)
	}
	expectBadHello(t, framed, want)
}

// TestWireV2HelloRejected: a peer on wire version 2 writes version-1
// change records; it must be refused at the hello with an error naming
// the wire version, not reconnect forever on undecodable state frames.
func TestWireV2HelloRejected(t *testing.T) {
	expectOldHelloRejected(t, wireV2Frames["hello"], 2)
}

// TestWireV3HelloRejected: a peer on wire version 3 frames with a
// 4-byte length word and sends state frames this build cannot read; it
// must be refused at the hello with an error naming its version.
func TestWireV3HelloRejected(t *testing.T) {
	expectOldHelloRejected(t, wireV3Frames["hello"], 3)
}

// TestWireV4HelloRejected: a peer on wire version 4 frames as this
// version does but writes change records of format version 2, whose
// plain dependency count this build's stream decoder would misread;
// it must be refused at the hello with an error naming its version.
func TestWireV4HelloRejected(t *testing.T) {
	expectOldHelloRejected(t, wireV4Frames["hello"], 4)
}

// genFrame builds a random frame in the shape decodeFrame returns: a
// hello carries From and Heads, a state frame Delta and a frame of
// another kind nothing; empty maps and vectors are nil, every change
// has an op, byte values are non-nil, numbers are finite.
func genFrame(r *rand.Rand) *frame {
	str := func() string {
		b := make([]byte, r.IntN(6))
		for i := range b {
			b[i] = byte(r.IntN(256))
		}
		return string(b)
	}
	vv := func() crdt.VersionVector {
		n := r.IntN(3)
		if n == 0 {
			return nil
		}
		out := crdt.VersionVector{}
		for i := 0; i < n; i++ {
			out[crdt.ActorID(str())] = r.Uint64()
		}
		return out
	}
	value := func() crdt.Value {
		switch k := crdt.ValKind(r.IntN(7)); k {
		case crdt.ValStr:
			return crdt.Value{Kind: k, Str: str()}
		case crdt.ValNum:
			return crdt.Value{Kind: k, Num: float64(r.Int64N(1<<40) - 1<<39)}
		case crdt.ValBool:
			return crdt.Value{Kind: k, Bool: r.IntN(2) == 1}
		case crdt.ValBytes:
			return crdt.Value{Kind: k, Bytes: []byte(str())}
		case crdt.ValObj:
			return crdt.Value{Kind: k, Obj: crdt.ObjID(str())}
		default:
			return crdt.Value{Kind: k}
		}
	}
	f := &frame{Kind: frameKind(r.IntN(256))}
	if r.IntN(2) == 0 {
		f.Kind = frameKind(1 + r.IntN(3))
	}
	switch f.Kind {
	case frameHello:
		f.From = str()
		if n := r.IntN(3); n > 0 {
			f.Heads = Heads{}
			for i := 0; i < n; i++ {
				f.Heads[str()] = vv()
			}
		}
	case frameState:
		if n := r.IntN(3); n > 0 {
			f.Delta = Delta{}
			for i := 0; i < n; i++ {
				chs := make([]crdt.Change, 1+r.IntN(2))
				for j := range chs {
					chs[j] = crdt.Change{Actor: crdt.ActorID(str()), Seq: r.Uint64(), Deps: vv(), Msg: str()}
					for k := 0; k <= r.IntN(2); k++ {
						chs[j].Ops = append(chs[j].Ops, crdt.Op{
							Type: crdt.OpType(r.IntN(256)), TS: crdt.TS{Counter: r.Uint64(), Actor: crdt.ActorID(str())},
							Obj: crdt.ObjID(str()), Key: str(), Elem: str(), Val: value(),
							Kind: crdt.ObjKind(r.IntN(256)), Delta: r.Int64() - r.Int64(),
						})
					}
				}
				f.Delta[str()] = chs
			}
		}
	}
	return f
}

// FuzzFrameCodec checks two properties for every input: decoding
// arbitrary bytes returns a frame or an error and never panics, and a
// frame generated from the input's hash survives encode then decode
// unchanged. Both run without a dictionary; FuzzFrameStream covers
// streams through one.
func FuzzFrameCodec(f *testing.F) {
	for _, g := range goldenFrames() {
		f.Add(appendFrame(nil, g, nil))
	}
	f.Add([]byte(`{"kind":"hello"}`))
	f.Add([]byte{})
	f.Add([]byte{byte(frameHello)})
	// A version-1 ack frame (kind 4, acked 16), refused by version.
	f.Add([]byte{1, 4, 0, 0, 0, 0, 0, 0x20})
	// Frames of wire versions 2 to 4; up to 3, payloads led with the
	// version byte.
	for _, frames := range []map[string]string{wireV2Frames, wireV3Frames, wireV4Frames} {
		for _, h := range frames {
			b, _ := hex.DecodeString(h)
			f.Add(b)
		}
	}
	f.Add([]byte{byte(frameState), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if fr, err := decodeFrame(data, nil); err == nil {
			// Whatever decodes re-encodes to a payload that decodes
			// to the same frame (compared as bytes: a decoded number
			// may be NaN, which DeepEqual never equates).
			enc := appendFrame(nil, fr, nil)
			again, err := decodeFrame(enc, nil)
			if err != nil || !bytes.Equal(appendFrame(nil, again, nil), enc) {
				t.Fatalf("decoded frame does not survive re-encoding: %v", err)
			}
		}
		h := fnv.New64a()
		_, _ = h.Write(data)
		want := genFrame(rand.New(rand.NewPCG(h.Sum64(), uint64(len(data)))))
		enc := appendFrame(nil, want, nil)
		if hint := frameSizeHint(want); len(enc) > hint {
			t.Fatalf("payload of %d bytes exceeds its size hint %d", len(enc), hint)
		}
		got, err := decodeFrame(enc, nil)
		if err != nil {
			t.Fatalf("decode(encode(f)): %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decode(encode(f)) != f\n got %+v\nwant %+v", got, want)
		}
	})
}

// manyKeysFrame is a state frame of one change whose n ops set n
// distinct keys: more than the dictionary's bound fills it, and the
// strings past the bound stay literal.
func manyKeysFrame(n int) *frame {
	ch := crdt.Change{Actor: "filler", Seq: 1}
	for i := 0; i < n; i++ {
		ch.Ops = append(ch.Ops, crdt.Op{Type: crdt.OpSet, TS: crdt.TS{Counter: uint64(i + 1), Actor: "filler"},
			Obj: "root", Key: fmt.Sprintf("key-%d", i), Val: crdt.Num(float64(i))})
	}
	return &frame{Kind: frameState, Delta: Delta{CompJSON: {ch}}}
}

// chainFrames is n state frames of changes by a few authors, each
// depending on its author's previous change and on a few other actors
// whose entries move now and then, and sometimes drop out, so the
// frames list their dependencies in stream mode, and out of it.
func chainFrames(r *rand.Rand, n int) []*frame {
	authors := []crdt.ActorID{"edge1/t", "edge2/t", "cloud/t"}
	seqs := map[crdt.ActorID]uint64{}
	var frames []*frame
	for ; n > 0; n-- {
		var chs []crdt.Change
		for k := 1 + r.IntN(3); k > 0; k-- {
			a := authors[r.IntN(len(authors))]
			seqs[a]++
			deps := crdt.VersionVector{}
			if seqs[a] > 1 || r.IntN(2) == 0 {
				deps[a] = seqs[a] - 1
			}
			for _, b := range authors {
				if b != a && r.IntN(4) != 0 {
					deps[b] = seqs[b] + uint64(r.IntN(2))
				}
			}
			if len(deps) == 0 {
				deps = nil // as decoding returns it
			}
			chs = append(chs, crdt.Change{Actor: a, Seq: seqs[a], Deps: deps, Ops: []crdt.Op{{
				Type: crdt.OpSet, TS: crdt.TS{Counter: seqs[a], Actor: a}, Obj: "root", Key: "k", Val: crdt.Num(float64(n)),
			}}})
		}
		frames = append(frames, &frame{Kind: frameState, Delta: Delta{CompTables: chs}})
	}
	return frames
}

// FuzzFrameStream checks a connection's frames end to end: a random
// sequence of frames, written through one wireConn (its dictionary and
// dependency memory, and compression when the input asks for it),
// reads back through one reading dictionary exactly as written; any
// cut or corruption of the stream makes reading fail, never panic; and
// arbitrary input read as a stream never panics either. An input whose
// first byte is odd starts with a frame that fills the dictionary past
// its bound; one whose first byte has bit 1 set adds frames of
// dependency chains, which list their dependencies in stream mode.
func FuzzFrameStream(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Add([]byte{2})
	f.Add([]byte{3, 0x40, 0x07})
	f.Add([]byte{6, 0x01})
	for _, h := range goldenSessionHex {
		b, _ := hex.DecodeString(h)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var in crdt.StringDict
		for r := bytes.NewReader(data); ; {
			if _, _, err := readFrame(r, &in); err != nil {
				break
			}
		}

		h := fnv.New64a()
		_, _ = h.Write(data)
		r := rand.New(rand.NewPCG(h.Sum64(), uint64(len(data))))
		var frames []*frame
		if len(data) > 0 && data[0]&1 == 1 {
			// Past crdt's bound of 1024 strings.
			frames = append(frames, manyKeysFrame(1200))
		}
		if len(data) > 0 && data[0]&2 != 0 {
			frames = append(frames, chainFrames(r, 1+r.IntN(8))...)
		}
		for n := 1 + r.IntN(8); n > 0; n-- {
			g := genFrame(r)
			if g.Kind == frameHello {
				// A hello starts a connection; mid-stream it is a frame
				// of a kind the session reader ignores.
				g.Kind = frameHeartbeat
				g.From, g.Heads = "", nil
			}
			frames = append(frames, g)
		}
		var wire bytes.Buffer
		wc := &wireConn{c: &bufConn{buf: &wire}, compress: len(data) > 1 && data[1]&1 == 1}
		if err := wc.writeFrames(func(int, int, int) {}, frames...); err != nil {
			t.Fatal(err)
		}
		stream := wire.Bytes()
		var out crdt.StringDict
		rd := bytes.NewReader(stream)
		for i, want := range frames {
			got, _, err := readFrame(rd, &out)
			if err != nil {
				t.Fatalf("frame %d of %d: %v", i, len(frames), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("frame %d read back as\n%+v\nwant\n%+v", i, got, want)
			}
		}
		if rd.Len() != 0 || out.Len() != wc.dict.Len() {
			t.Fatalf("%d bytes left over; dictionaries of %d (reader) and %d (writer) strings",
				rd.Len(), out.Len(), wc.dict.Len())
		}

		// A cut stream fails on its last, partial frame; a flipped byte
		// may decode to other frames but never panics.
		cut := r.IntN(len(stream))
		var cutDict crdt.StringDict
		read := 0
		for rd := bytes.NewReader(stream[:cut]); ; read++ {
			if _, _, err := readFrame(rd, &cutDict); err != nil {
				if err == io.EOF && rd.Len() != 0 {
					t.Fatalf("a cut stream ended cleanly with %d bytes unread", rd.Len())
				}
				break
			}
		}
		if read >= len(frames) {
			t.Fatalf("a stream cut at %d of %d bytes read all %d frames", cut, len(stream), len(frames))
		}
		flipped := append([]byte(nil), stream...)
		flipped[cut] ^= byte(1 + r.IntN(255))
		var flipDict crdt.StringDict
		for rd := bytes.NewReader(flipped); ; {
			if _, _, err := readFrame(rd, &flipDict); err != nil {
				break
			}
		}
	})
}

// bufConn is a net.Conn that writes into a buffer.
type bufConn struct {
	net.Conn
	buf *bytes.Buffer
}

func (c *bufConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// BenchmarkFrameCodec encodes and decodes one 64-change state frame.
// Encoding into a warm pooled buffer allocates nothing.
func BenchmarkFrameCodec(b *testing.B) {
	st, err := NewReplicaState("bench")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := st.JSON.PutScalar("root", fmt.Sprintf("k%d", i), float64(i)); err != nil {
			b.Fatal(err)
		}
		st.JSON.Commit("")
	}
	chs := st.Delta(nil)[CompJSON]
	f := &frame{Kind: frameState, Delta: Delta{CompJSON: chs[len(chs)-64:]}}
	eb := crdt.GetEncodeBuffer()
	defer eb.Release()
	payload := appendFrame(nil, f, nil)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if _, err := putFrame(eb, f, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if _, err := decodeFrame(payload, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRowFrameDecode decodes one 64-change state frame shaped like
// bookworm's checkouts: each change sets the stock column of one of 500
// rows, so actor, object and column strings repeat within the frame.
func BenchmarkRowFrameDecode(b *testing.B) {
	st, err := NewReplicaState("bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Tables.EnsureTable("books"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := st.Tables.UpsertRow("books", fmt.Sprint(i), map[string]any{"title": fmt.Sprintf("book %d", i), "stock": 100}); err != nil {
			b.Fatal(err)
		}
	}
	st.Tables.Doc().Commit("")
	for i := 0; i < 64; i++ {
		if err := st.Tables.UpsertRow("books", fmt.Sprint(i*7%500), map[string]any{"stock": 99 - i}); err != nil {
			b.Fatal(err)
		}
		st.Tables.Doc().Commit("")
	}
	chs := st.Delta(nil)[CompTables]
	payload := appendFrame(nil, &frame{Kind: frameState, Delta: Delta{CompTables: chs[len(chs)-64:]}}, nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if _, err := decodeFrame(payload, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameEncodeAllocatesNothing pins the pooled encode path's budget:
// without a dictionary, and through one that already holds the frame's
// strings.
func TestFrameEncodeAllocatesNothing(t *testing.T) {
	f := goldenFrames()["state"]
	eb := crdt.GetEncodeBuffer()
	defer eb.Release()
	if allocs := testing.AllocsPerRun(100, func() { _, _ = putFrame(eb, f, nil) }); allocs != 0 {
		t.Fatalf("encoding a state frame into a warm buffer allocated %.0f times, want 0", allocs)
	}
	var dict crdt.StringDict
	if allocs := testing.AllocsPerRun(100, func() { _, _ = putFrame(eb, f, &dict) }); allocs != 0 {
		t.Fatalf("encoding a state frame through a warm dictionary allocated %.0f times, want 0", allocs)
	}
}
