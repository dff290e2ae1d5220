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
// the per-connection string dictionaries, optional per-frame flate
// compression, vectored multi-frame writes, and the chunking of a delta
// into state frames. tcp.go owns connection lifecycle and drives this
// layer. There is no flow control here: a session's pusher is its
// connection's only writer, its reader never writes, and TCP's own
// window blocks a write while the peer is slow.
//
// A frame on the wire is a length word followed by the payload:
//
//	frame     := uvarint(len<<1 | compressed) payload
//	payload   := kind(1B) body — flate-compressed when the flag is set
//	hello     := wireVersion(1B) string(from) heads      (kind 1)
//	state     := delta                                   (kind 2)
//	heartbeat := nothing                                 (kind 3)
//	heads     := crdt.AppendVectors — per-component version vectors
//	delta     := crdt.AppendComponents through the direction's
//	             dictionary
//	string    := uvarint(len) bytes
//
// Only the hello names the wire version and the sender, and carries
// heads: a state frame is its kind byte and a component batch. Each
// direction of a connection keeps one crdt.StringDict, started empty
// at the hello: component names, actors, map keys and literal object
// IDs cross the connection in full once and as a dictionary index
// after that (crdt/dict.go). A frame is decoded in the order it was
// encoded, so the two tables stay in lockstep; a lost connection loses
// both, and the next hello starts afresh. The same StringDict also
// remembers, per author, the last dependency vector the direction
// carried, so a change lists only the dependencies that moved since
// (crdt's stream-mode dependencies). The batch is otherwise the very
// record the WAL appends, whose change encodings are crdt's change
// format version 3; the WAL passes no dictionary, so its records stay
// self-contained. There is one wire version and no negotiation. A
// hello of another version fails. A peer of wire version 3 or older,
// or a JSON-framed one, wrote a 4-byte big-endian length word, whose
// first byte is 0 below 16 MiB; since no payload is empty, readFrame
// takes a zero length word for such a peer and names its version (or
// JSON) instead of misparsing it.

// wireVersion is the hello's version byte. Bump it on any layout
// change, including one inside the delta's change encodings; peers on
// different versions refuse each other's hello. Version 4 brought the
// varint length word, the per-connection dictionaries and state frames
// without version, sender or heads; version 5 the change format
// version 3 and its stream-mode dependencies.
const wireVersion byte = 5

// frameKind tags wire frames; it is the payload's first byte.
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
// frame Delta, a heartbeat nothing; the encoder writes only the fields
// of the frame's kind, and readers skip the body of kinds they do not
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

// appendFrame appends f's payload encoding to dst, a state frame's
// delta through dict (nil: the self-contained layout). Into a buffer
// grown to frameSizeHint it allocates nothing once dict holds the
// frame's strings.
func appendFrame(dst []byte, f *frame, dict *crdt.StringDict) []byte {
	dst = append(dst, byte(f.Kind))
	switch f.Kind {
	case frameHello:
		dst = append(dst, wireVersion)
		dst = binary.AppendUvarint(dst, uint64(len(f.From)))
		dst = append(dst, f.From...)
		return crdt.AppendVectors(dst, f.Heads)
	case frameState:
		return crdt.AppendComponents(dst, f.Delta, dict)
	}
	return dst
}

// errFrameFormat is wrapped by every frame decoding failure.
var errFrameFormat = errors.New("statesync: malformed frame")

// decodeFrame parses one payload, a state frame's delta through the
// dictionary it was encoded with. It reads heads and delta straight out
// of b, and fails — never panics — on any input appendFrame could not
// have produced.
func decodeFrame(b []byte, dict *crdt.StringDict) (*frame, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: empty payload", errFrameFormat)
	}
	f := &frame{Kind: frameKind(b[0])}
	d := frameDecoder{b: b[1:]}
	switch f.Kind {
	case frameHello:
		if v := d.byte(); d.err == nil && v != wireVersion {
			return nil, fmt.Errorf("%w: peer speaks wire version %d, want %d", errFrameFormat, v, wireVersion)
		}
		f.From = string(d.take(d.uvarint()))
		heads, n, err := crdt.ReadVectors(d.b)
		d.note(err, n)
		f.Heads = heads
	case frameState:
		delta, n, err := crdt.ReadComponents(d.b, dict)
		d.note(err, n)
		f.Delta = delta
	case frameHeartbeat:
	default:
		return f, nil
	}
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

// maxFrameBytes bounds a frame's payload to keep a misbehaving peer
// from forcing unbounded allocation.
const maxFrameBytes = 64 << 20

// maxLenWord is the longest length word: the uvarint of
// maxFrameBytes<<1 | 1 fits in four bytes.
const maxLenWord = 4

// putFrame encodes f as one wire blob — length word, then payload —
// into eb, grown once to the size hint, and returns the blob (aliasing
// eb). The payload starts at eb.B[maxLenWord:], and the length word
// sits right before it.
func putFrame(eb *crdt.EncodeBuffer, f *frame, dict *crdt.StringDict) ([]byte, error) {
	if hint := maxLenWord + frameSizeHint(f); cap(eb.B) < hint {
		eb.B = make([]byte, 0, hint)
	}
	eb.B = appendFrame(append(eb.B[:0], 0, 0, 0, 0), f, dict)
	if size := len(eb.B) - maxLenWord; size > maxFrameBytes {
		return nil, fmt.Errorf("statesync: frame of %d bytes exceeds limit", size)
	}
	return prefixLenWord(eb.B, false), nil
}

// prefixLenWord writes the length word of the payload at
// b[maxLenWord:] into the bytes right before it and returns the frame
// from its first byte.
func prefixLenWord(b []byte, compressed bool) []byte {
	word := uint64(len(b)-maxLenWord) << 1
	if compressed {
		word |= 1
	}
	var arr [binary.MaxVarintLen64]byte
	w := binary.AppendUvarint(arr[:0], word)
	start := maxLenWord - len(w)
	copy(b[start:], w)
	return b[start:]
}

// writeFrame encodes f, without a dictionary, as one write and returns
// the bytes actually written — on a partial write the count reflects
// what reached the wire, so traffic accounting stays truthful. Framing
// the length word and payload into a single Write also keeps a frame
// atomic with respect to fault injection (a swallowed write loses a
// whole frame, never half of one). Hellos use it directly; established
// sessions write through a wireConn.
func writeFrame(w io.Writer, f *frame) (int, error) {
	eb := crdt.GetEncodeBuffer()
	defer eb.Release()
	blob, err := putFrame(eb, f, nil)
	if err != nil {
		return 0, err
	}
	return w.Write(blob)
}

// readFrame reads one frame, transparently inflating compressed
// payloads, and decodes a state frame's delta through dict — the
// reading direction's dictionary, nil before the hello is through. The
// returned byte count is wire bytes (compressed size), so traffic
// accounting reflects what actually crossed the network. The payload
// is read into a pooled buffer: decodeFrame copies out every string
// and byte slice, so the frame it returns aliases nothing.
func readFrame(r io.Reader, dict *crdt.StringDict) (*frame, int, error) {
	word, wn, err := readLenWord(r)
	if err != nil {
		return nil, 0, err
	}
	if word == 0 {
		return nil, 0, legacyPeerErr(r)
	}
	compressed := word&1 != 0
	size := word >> 1
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
	f, err := decodeFrame(payload, dict)
	if err != nil {
		return nil, 0, err
	}
	return f, int(size) + wn, nil
}

// readLenWord reads a frame's length word and returns it with its size
// in bytes.
func readLenWord(r io.Reader) (uint64, int, error) {
	var word uint64
	var b [1]byte
	for i := 0; i < maxLenWord; i++ {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, err
		}
		word |= uint64(b[0]&0x7f) << (7 * i)
		if b[0] < 0x80 {
			return word, i + 1, nil
		}
	}
	return 0, 0, fmt.Errorf("%w: length word longer than %d bytes", errFrameFormat, maxLenWord)
}

// legacyPeerErr diagnoses a zero length word: the first byte of an
// older peer's 4-byte big-endian one. It reads the word's other three
// bytes and the payload's first, which names the peer's wire version
// or, as '{', a JSON frame.
func legacyPeerErr(r io.Reader) error {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return fmt.Errorf("%w: empty payload", errFrameFormat)
	}
	if b[3] == '{' {
		return fmt.Errorf("%w: peer sent a JSON frame; this build speaks binary wire version %d",
			errFrameFormat, wireVersion)
	}
	return fmt.Errorf("%w: peer speaks wire version %d, want %d", errFrameFormat, b[3], wireVersion)
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
// connection. The session's pusher is its only writer, so dict, fw and
// cbuf (the outbound dictionary, the reusable flate writer and its
// output buffer) need no lock.
type wireConn struct {
	c net.Conn
	// compress enables outbound compression of payloads of at least
	// minCompressBytes.
	compress bool
	// dict is the outbound direction's string dictionary and
	// dependency memory. Every frame encoded through it must reach the
	// peer in order, so a failed write ends the session.
	dict crdt.StringDict
	fw   *flate.Writer
	cbuf bytes.Buffer
}

// encodeWireFrame serializes f into one wire blob (length word +
// payload) in a pooled buffer, compressing when enabled and
// worthwhile. It returns the buffer, which the caller releases once the
// blob is written, the blob, and whether the frame went out compressed.
func (w *wireConn) encodeWireFrame(f *frame) (*crdt.EncodeBuffer, []byte, bool, error) {
	eb := crdt.GetEncodeBuffer()
	blob, err := putFrame(eb, f, &w.dict)
	if err != nil {
		eb.Release()
		return nil, nil, false, err
	}
	payload := eb.B[maxLenWord:]
	if !w.compress || len(payload) < minCompressBytes {
		return eb, blob, false, nil
	}
	if w.fw == nil {
		// BestSpeed: the goal is shipping fewer bytes per syscall on
		// large CRDT-Files payloads, not maximal ratio.
		w.fw, _ = flate.NewWriter(nil, flate.BestSpeed)
	}
	w.cbuf.Reset()
	w.fw.Reset(&w.cbuf)
	if _, err := w.fw.Write(payload); err != nil || w.fw.Close() != nil || w.cbuf.Len() >= len(payload) {
		return eb, blob, false, nil
	}
	// Smaller than the payload, so it overwrites it in place.
	eb.B = append(eb.B[:maxLenWord], w.cbuf.Bytes()...)
	return eb, prefixLenWord(eb.B, true), true, nil
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
	sizes := make([]int, 0, len(frames))
	comps := make([]bool, 0, len(frames))
	total, totalComp := 0, 0
	for _, f := range frames {
		eb, blob, comp, err := w.encodeWireFrame(f)
		if err != nil {
			return err
		}
		ebufs = append(ebufs, eb)
		bufs = append(bufs, blob)
		sizes = append(sizes, len(blob))
		comps = append(comps, comp)
		total += len(blob)
		if comp {
			totalComp++
		}
	}
	credit(total, len(frames), totalComp)
	// WriteTo consumes bufs, so frame attribution works off the sizes.
	n, err := bufs.WriteTo(w.c)
	if err == nil {
		return nil
	}
	sent, compressed := 0, 0
	rem := int(n)
	for i, size := range sizes {
		if rem < size {
			break
		}
		rem -= size
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
