package statesync

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"

	"repro/internal/crdt"
)

// This file is the TCP transport's wire layer: the binary frame codec,
// optional per-frame flate compression, vectored multi-frame writes,
// and the chunking of a delta into state frames. tcp.go owns connection
// lifecycle and drives this layer. There is no flow control here: a
// session's pusher is its connection's only writer, its reader never
// writes, and TCP's own window blocks a write while the peer is slow.
//
// A frame on the wire is a 4-byte big-endian length word (top bit: the
// payload is flate-compressed) followed by the payload:
//
//	payload := wireVersion(1B) kind(1B) string(from) heads delta
//	heads   := crdt.AppendVectors — per-component version vectors
//	delta   := crdt.AppendComponents — the WAL's component batch record
//	string  := uvarint(len) bytes
//
// The delta is the very record the WAL appends, so a change is encoded
// the same way on disk and on the wire. Its change encodings are crdt's
// change format version 2: each record names its actors once, in a
// table, and refers to them by index, also inside "counter@actor"
// object and element IDs; integral numbers travel as varints. There is
// one wire version and no negotiation: a peer whose first byte differs
// (a JSON-framed peer's payload starts with '{') fails the hello instead
// of being misparsed.

// wireVersion is the payload's first byte. Bump it on any layout change,
// including one inside the delta's change encodings; peers on different
// versions refuse each other's hello. Version 3 differs from 2 only in
// carrying change format version 2: a version-2 peer could not decode
// it and would reconnect on every state frame, so it is refused at the
// hello instead.
const wireVersion byte = 3

// frameKind tags wire frames; it is the payload's second byte.
type frameKind uint8

const (
	frameHello     frameKind = 1
	frameState     frameKind = 2
	frameHeartbeat frameKind = 3
)

func (k frameKind) String() string {
	switch k {
	case frameHello:
		return "hello"
	case frameState:
		return "state"
	case frameHeartbeat:
		return "heartbeat"
	default:
		return fmt.Sprintf("kind-%d", uint8(k))
	}
}

// frame is the wire message. A hello carries From and Heads, a state
// frame Delta, a heartbeat nothing; readers ignore kinds they do not
// know.
type frame struct {
	Kind  frameKind
	From  string
	Heads Heads
	Delta Delta
}

// frameSizeHint bounds the payload appendFrame writes for f.
func frameSizeHint(f *frame) int {
	return 2 + binary.MaxVarintLen64 + len(f.From) +
		crdt.VectorsSizeHint(f.Heads) + crdt.ComponentsSizeHint(f.Delta)
}

// appendFrame appends f's payload encoding to dst. Into a buffer grown
// to frameSizeHint it allocates nothing.
func appendFrame(dst []byte, f *frame) []byte {
	dst = append(dst, wireVersion, byte(f.Kind))
	dst = binary.AppendUvarint(dst, uint64(len(f.From)))
	dst = append(dst, f.From...)
	dst = crdt.AppendVectors(dst, f.Heads)
	return crdt.AppendComponents(dst, f.Delta)
}

// errFrameFormat is wrapped by every frame decoding failure.
var errFrameFormat = errors.New("statesync: malformed frame")

// decodeFrame parses one payload. It reads heads and delta straight out
// of b, and fails — never panics — on any input appendFrame could not
// have produced.
func decodeFrame(b []byte) (*frame, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: empty payload", errFrameFormat)
	}
	if b[0] != wireVersion {
		if b[0] == '{' {
			return nil, fmt.Errorf("%w: peer sent a JSON frame; this build speaks binary wire version %d",
				errFrameFormat, wireVersion)
		}
		return nil, fmt.Errorf("%w: peer speaks wire version %d, want %d", errFrameFormat, b[0], wireVersion)
	}
	d := frameDecoder{b: b[1:]}
	f := &frame{Kind: frameKind(d.byte())}
	f.From = string(d.take(d.uvarint()))
	heads, n, err := crdt.ReadVectors(d.b)
	d.note(err, n)
	delta, n, err := crdt.ReadComponents(d.b)
	d.note(err, n)
	f.Heads, f.Delta = heads, delta
	if d.err == nil && len(d.b) > 0 {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.b)))
	}
	if d.err != nil {
		return nil, d.err
	}
	return f, nil
}

// frameDecoder is a cursor with a sticky error: after the first failure
// every read returns a zero value, so decodeFrame checks once at the
// end.
type frameDecoder struct {
	b   []byte
	err error
}

func (d *frameDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", errFrameFormat, what)
	}
	d.b = nil
}

// note consumes n bytes read by a crdt decoder, or records its error.
func (d *frameDecoder) note(err error, n int) {
	if err != nil {
		if d.err == nil {
			d.err = fmt.Errorf("%w: %w", errFrameFormat, err)
		}
		d.b = nil
		return
	}
	d.b = d.b[n:]
}

func (d *frameDecoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *frameDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *frameDecoder) take(n uint64) []byte {
	if n > uint64(len(d.b)) {
		d.fail("length overruns payload")
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// maxFrameBytes bounds a frame to keep a misbehaving peer from forcing
// unbounded allocation. It must stay below 1<<31 because the length
// word's top bit is the compression flag.
const maxFrameBytes = 64 << 20

// frameCompressed marks a compressed payload in the length prefix. The
// payload length of an uncompressed frame can never have this bit set
// (maxFrameBytes < 1<<31). Each sender decides for itself whether to
// compress; readFrame inflates any frame that carries the bit.
const frameCompressed = 1 << 31

// putFrame encodes f as one wire blob — length word, then payload —
// into eb, grown once to the size hint, and returns the blob (aliasing
// eb).
func putFrame(eb *crdt.EncodeBuffer, f *frame) ([]byte, error) {
	if hint := 4 + frameSizeHint(f); cap(eb.B) < hint {
		eb.B = make([]byte, 0, hint)
	}
	eb.B = appendFrame(append(eb.B[:0], 0, 0, 0, 0), f)
	size := len(eb.B) - 4
	if size > maxFrameBytes {
		return nil, fmt.Errorf("statesync: frame of %d bytes exceeds limit", size)
	}
	binary.BigEndian.PutUint32(eb.B, uint32(size))
	return eb.B, nil
}

// writeFrame encodes f as one length-prefixed write and returns the
// bytes actually written — on a partial write the count reflects what
// reached the wire, so traffic accounting stays truthful. Framing the
// header and payload into a single Write also keeps a frame atomic with
// respect to fault injection (a swallowed write loses a whole frame,
// never half of one). Handshake frames use it directly; established
// sessions write through a wireConn.
func writeFrame(w io.Writer, f *frame) (int, error) {
	eb := crdt.GetEncodeBuffer()
	defer eb.Release()
	blob, err := putFrame(eb, f)
	if err != nil {
		return 0, err
	}
	return w.Write(blob)
}

// readFrame reads one frame, transparently inflating compressed
// payloads. The returned byte count is wire bytes (compressed size), so
// traffic accounting reflects what actually crossed the network. The
// payload is read into a pooled buffer: decodeFrame copies out every
// string and byte slice, so the frame it returns aliases nothing.
func readFrame(r io.Reader) (*frame, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	word := binary.BigEndian.Uint32(hdr[:])
	compressed := word&frameCompressed != 0
	size := word &^ frameCompressed
	if size > maxFrameBytes {
		return nil, 0, fmt.Errorf("statesync: frame of %d bytes exceeds limit", size)
	}
	eb := crdt.GetEncodeBuffer()
	defer eb.Release()
	if cap(eb.B) < int(size) {
		eb.B = make([]byte, size)
	}
	payload := eb.B[:size]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, err
	}
	if compressed {
		fr := flate.NewReader(bytes.NewReader(payload))
		inflated, err := io.ReadAll(io.LimitReader(fr, maxFrameBytes+1))
		if cerr := fr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, 0, fmt.Errorf("statesync: inflating frame: %w", err)
		}
		if len(inflated) > maxFrameBytes {
			return nil, 0, fmt.Errorf("statesync: inflated frame exceeds limit")
		}
		payload = inflated
	}
	f, err := decodeFrame(payload)
	if err != nil {
		return nil, 0, err
	}
	return f, int(size) + 4, nil
}

// minCompressBytes is the smallest frame payload worth compressing:
// below it the flate header overhead exceeds the win.
const minCompressBytes = 512

// maxFramesPerWrite bounds the state frames one write carries, and so
// the encoded bytes a push holds at once; a larger delta goes out in
// several writes, each blocked by TCP's flow control while the peer is
// slow.
const maxFramesPerWrite = 32

// wireConn is the write side of an established (post-hello)
// connection. The session's pusher is its only writer, so fw and cbuf
// (the reusable flate writer and its output buffer) need no lock.
type wireConn struct {
	c net.Conn
	// compress enables outbound compression of payloads of at least
	// minCompressBytes.
	compress bool
	fw       *flate.Writer
	cbuf     bytes.Buffer
}

// encodeWireFrame serializes f into one wire blob (length word +
// payload) in a pooled buffer, compressing when enabled and
// worthwhile. The caller releases the buffer once the blob is written.
// It reports whether the frame went out compressed.
func (w *wireConn) encodeWireFrame(f *frame) (*crdt.EncodeBuffer, bool, error) {
	eb := crdt.GetEncodeBuffer()
	blob, err := putFrame(eb, f)
	if err != nil {
		eb.Release()
		return nil, false, err
	}
	payload := blob[4:]
	if !w.compress || len(payload) < minCompressBytes {
		return eb, false, nil
	}
	if w.fw == nil {
		// BestSpeed: the goal is shipping fewer bytes per syscall on
		// large CRDT-Files payloads, not maximal ratio.
		w.fw, _ = flate.NewWriter(nil, flate.BestSpeed)
	}
	w.cbuf.Reset()
	w.fw.Reset(&w.cbuf)
	if _, err := w.fw.Write(payload); err != nil || w.fw.Close() != nil || w.cbuf.Len() >= len(payload) {
		return eb, false, nil
	}
	// Smaller than the payload, so it overwrites it in place.
	eb.B = append(eb.B[:4], w.cbuf.Bytes()...)
	binary.BigEndian.PutUint32(eb.B, uint32(w.cbuf.Len())|frameCompressed)
	return eb, true, nil
}

// writeFrames ships the given frames in one vectored write (writev on a
// real TCP conn via net.Buffers; per-frame writes on wrapped conns, so
// fault injection still drops whole frames). credit receives the
// encoded batch (bytes, frames, compressed frames) before the write
// starts, so the peer can never hold a frame the sender's stats omit.
// If the write fails, credit is called again with the negated part
// that did not reach the wire: a frame counts as sent only when every
// one of its bytes was written.
func (w *wireConn) writeFrames(credit func(n, frames, compressed int), frames ...*frame) error {
	ebufs := make([]*crdt.EncodeBuffer, 0, len(frames))
	defer func() {
		for _, eb := range ebufs {
			eb.Release()
		}
	}()
	bufs := make(net.Buffers, 0, len(frames))
	comps := make([]bool, 0, len(frames))
	total, totalComp := 0, 0
	for _, f := range frames {
		eb, comp, err := w.encodeWireFrame(f)
		if err != nil {
			return err
		}
		ebufs = append(ebufs, eb)
		bufs = append(bufs, eb.B)
		comps = append(comps, comp)
		total += len(eb.B)
		if comp {
			totalComp++
		}
	}
	credit(total, len(frames), totalComp)
	// WriteTo consumes bufs, so frame attribution works off the encode
	// buffers.
	n, err := bufs.WriteTo(w.c)
	if err == nil {
		return nil
	}
	sent, compressed := 0, 0
	rem := int(n)
	for i, eb := range ebufs {
		if rem < len(eb.B) {
			break
		}
		rem -= len(eb.B)
		sent++
		if comps[i] {
			compressed++
		}
	}
	credit(int(n)-total, sent-len(frames), compressed-totalComp)
	return err
}

// stateFrameOrder fixes the component emission order so chunked deltas
// are deterministic; unknown components follow sorted by name.
var stateFrameOrder = []string{CompJSON, CompTables, CompFiles}

// buildStateFrames coalesces a delta (dropping ops that later ops in
// the same batch provably eclipse — see crdt.CoalesceChanges) and
// chunks it into state frames of at most maxChanges changes each,
// preserving per-component change order. It returns the frames plus the
// number of ops elided. The delta map is mutated (its slices are not).
func buildStateFrames(delta Delta, maxChanges int, coalesce bool) ([]*frame, int) {
	elided := 0
	if coalesce {
		for comp, chs := range delta {
			cc, dropped := crdt.CoalesceChanges(chs)
			delta[comp] = cc
			elided += dropped
		}
	}
	comps := make([]string, 0, len(delta))
	seen := map[string]bool{}
	for _, c := range stateFrameOrder {
		if len(delta[c]) > 0 {
			comps = append(comps, c)
			seen[c] = true
		}
	}
	// Unknown components (a newer peer's extension) follow the canonical
	// order, sorted by name — map iteration order would make chunk
	// contents differ run to run, breaking replay debugging and goldens.
	var extra []string
	for c, chs := range delta {
		if !seen[c] && len(chs) > 0 {
			extra = append(extra, c)
		}
	}
	sort.Strings(extra)
	comps = append(comps, extra...)
	var frames []*frame
	cur := Delta{}
	count := 0
	flush := func() {
		if count > 0 {
			frames = append(frames, &frame{Kind: frameState, Delta: cur})
			cur, count = Delta{}, 0
		}
	}
	for _, comp := range comps {
		chs := delta[comp]
		for len(chs) > 0 {
			take := maxChanges - count
			if take > len(chs) {
				take = len(chs)
			}
			cur[comp] = append(cur[comp], chs[:take]...)
			count += take
			chs = chs[take:]
			if count >= maxChanges {
				flush()
			}
		}
	}
	flush()
	return frames, elided
}
