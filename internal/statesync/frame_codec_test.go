package statesync

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
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

// goldenFrameHex pins the payload layout of each golden frame. If this
// test fails after an intentional layout change, bump wireVersion and
// repin — never repin under the same version byte.
var goldenFrameHex = map[string]string{
	// version, kind, from "edge-1", heads {json: {cloud 2, edge-1 3},
	// tables: {cloud 1}}, no delta.
	"hello": "0301" + "06656467652d31" +
		"02" + "046a736f6e" + "02" + "05636c6f756402" + "06656467652d3103" + "067461626c6573" + "01" + "05636c6f756401" +
		"00",
	// version, kind, no from, no heads, delta {json: 48-byte change
	// batch: actors [edge-1 cloud], edge-1 seq 3 deps {cloud 2}, two
	// ops whose heads say "the change's actor", the second also
	// "previous counter + 1"; 4 travels as a varint}.
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
		got := hex.EncodeToString(appendFrame(nil, f))
		if got != goldenFrameHex[name] {
			t.Errorf("%s frame drifted from golden.\n got: %s\nwant: %s", name, got, goldenFrameHex[name])
		}
		back, err := decodeFrame(appendFrame(nil, f))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(back, f) {
			t.Errorf("%s: round trip changed the frame:\n got %+v\nwant %+v", name, back, f)
		}
	}
}

// lengthPrefixed frames raw payload bytes the way the wire does.
func lengthPrefixed(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// TestJSONEraHelloRejected: a peer still framing JSON must be refused
// with an error that says so, at the frame layer and at the master's
// hello.
func TestJSONEraHelloRejected(t *testing.T) {
	jsonHello := []byte(`{"kind":"hello","from":"edge-1","window":64}`)
	_, _, err := readFrame(bytes.NewReader(lengthPrefixed(jsonHello)))
	if !errors.Is(err, errFrameFormat) || !strings.Contains(err.Error(), "JSON") {
		t.Fatalf("readFrame(JSON hello) err = %v, want a malformed-frame error naming JSON", err)
	}
	_, _, err = readFrame(bytes.NewReader(lengthPrefixed([]byte{wireVersion + 1, byte(frameHello)})))
	if !errors.Is(err, errFrameFormat) || !strings.Contains(err.Error(), "wire version") {
		t.Fatalf("readFrame(future version) err = %v, want a wire-version error", err)
	}
	expectBadHello(t, jsonHello, "JSON")
}

// expectBadHello sends payload as a peer's hello to a live master and
// requires the master to refuse it with a bad-hello error containing
// want, counting no connect.
func expectBadHello(t *testing.T, payload []byte, want string) {
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
	if _, err := conn.Write(lengthPrefixed(payload)); err != nil {
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

// TestWireV2HelloRejected: a peer on wire version 2 writes version-1
// change records; it must be refused at the hello with an error naming
// the wire version, not reconnect forever on undecodable state frames.
func TestWireV2HelloRejected(t *testing.T) {
	hello, err := hex.DecodeString(wireV2Frames["hello"])
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = readFrame(bytes.NewReader(lengthPrefixed(hello)))
	if !errors.Is(err, errFrameFormat) || !strings.Contains(err.Error(), "peer speaks wire version 2") {
		t.Fatalf("readFrame(v2 hello) err = %v, want a wire-version error", err)
	}
	expectBadHello(t, hello, "peer speaks wire version 2")
}

// genFrame builds a random frame in the shape decodeFrame returns: empty
// maps and vectors are nil, every change has an op, byte values are
// non-nil, numbers are finite.
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
	f := &frame{Kind: frameKind(r.IntN(256)), From: str()}
	if n := r.IntN(3); n > 0 {
		f.Heads = Heads{}
		for i := 0; i < n; i++ {
			f.Heads[str()] = vv()
		}
	}
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
	return f
}

// FuzzFrameCodec checks two properties for every input: decoding
// arbitrary bytes returns a frame or an error and never panics, and a
// frame generated from the input's hash survives encode then decode
// unchanged.
func FuzzFrameCodec(f *testing.F) {
	for _, g := range goldenFrames() {
		f.Add(appendFrame(nil, g))
	}
	f.Add([]byte(`{"kind":"hello"}`))
	f.Add([]byte{})
	f.Add([]byte{wireVersion})
	// A version-1 ack frame (kind 4, acked 16), refused by version.
	f.Add([]byte{1, 4, 0, 0, 0, 0, 0, 0x20})
	// Wire-version-2 frames, refused by version.
	for _, h := range wireV2Frames {
		b, _ := hex.DecodeString(h)
		f.Add(b)
	}
	f.Add([]byte{wireVersion, byte(frameState), 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if fr, err := decodeFrame(data); err == nil {
			// Whatever decodes re-encodes to a payload that decodes
			// to the same frame.
			// to the same frame (compared as bytes: a decoded number
			// may be NaN, which DeepEqual never equates).
			enc := appendFrame(nil, fr)
			again, err := decodeFrame(enc)
			if err != nil || !bytes.Equal(appendFrame(nil, again), enc) {
				t.Fatalf("decoded frame does not survive re-encoding: %v", err)
			}
		}
		h := fnv.New64a()
		_, _ = h.Write(data)
		want := genFrame(rand.New(rand.NewPCG(h.Sum64(), uint64(len(data)))))
		enc := appendFrame(nil, want)
		if hint := frameSizeHint(want); len(enc) > hint {
			t.Fatalf("payload of %d bytes exceeds its size hint %d", len(enc), hint)
		}
		got, err := decodeFrame(enc)
		if err != nil {
			t.Fatalf("decode(encode(f)): %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decode(encode(f)) != f\n got %+v\nwant %+v", got, want)
		}
	})
}

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
	blob, err := putFrame(eb, f)
	if err != nil {
		b.Fatal(err)
	}
	payload := append([]byte(nil), blob[4:]...)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if _, err := putFrame(eb, f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if _, err := decodeFrame(payload); err != nil {
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
	payload := appendFrame(nil, &frame{Kind: frameState, Delta: Delta{CompTables: chs[len(chs)-64:]}})
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if _, err := decodeFrame(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameEncodeAllocatesNothing pins the pooled encode path's budget.
func TestFrameEncodeAllocatesNothing(t *testing.T) {
	f := goldenFrames()["state"]
	eb := crdt.GetEncodeBuffer()
	defer eb.Release()
	if allocs := testing.AllocsPerRun(100, func() { _, _ = putFrame(eb, f) }); allocs != 0 {
		t.Fatalf("encoding a state frame into a warm buffer allocated %.0f times, want 0", allocs)
	}
}
