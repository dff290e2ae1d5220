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
	"sync"

	"repro/internal/crdt"
)

// This file is the TCP transport's wire layer: the binary frame codec,
// optional per-frame flate compression negotiated in the hello
// exchange, vectored multi-frame writes, and the bounded in-flight
// window with watermark acknowledgements that lets the pusher pipeline
// state frames without ever buffering an unbounded backlog at a slow
// peer. tcp.go owns connection lifecycle and drives this layer.
//
// A frame on the wire is a 4-byte big-endian length word (top bit: the
// payload is flate-compressed) followed by the payload:
//
//	payload := wireVersion(1B) kind(1B) string(from) heads delta
//	           varint(window) compress(1B: 0|1) varint(acked)
//	heads   := crdt.AppendVectors — per-component version vectors
//	delta   := crdt.AppendComponents — the WAL's component batch record
//	string  := uvarint(len) bytes
//
// The delta is the very record the WAL appends, so a change is encoded
// the same way on disk and on the wire. There is one wire version and no
// negotiation: a peer whose first byte differs (a JSON-framed peer's
// payload starts with '{') fails the hello instead of being misparsed.

// wireVersion is the payload's first byte. Bump it on any layout change;
// peers on different versions refuse each other's hello.
const wireVersion byte = 1

// frameKind tags wire frames; it is the payload's second byte.
type frameKind uint8

const (
	frameHello     frameKind = 1
	frameState     frameKind = 2
	frameHeartbeat frameKind = 3
	// frameAck acknowledges Acked state frames (watermark acks, sent
	// only to peers that declared a window in their hello). Readers
	// ignore kinds they do not know.
	frameAck frameKind = 4
)

func (k frameKind) String() string {
	switch k {
	case frameHello:
		return "hello"
	case frameState:
		return "state"
	case frameHeartbeat:
		return "heartbeat"
	case frameAck:
		return "ack"
	default:
		return fmt.Sprintf("kind-%d", uint8(k))
	}
}

// frame is the wire message.
type frame struct {
	Kind  frameKind
	From  string
	Heads Heads
	Delta Delta
	// Window (hello only) declares the sender's in-flight state-frame
	// cap; a nonzero value asks the receiver for watermark acks. Zero
	// disables windowing toward the sender.
	Window int
	// Compress (hello only) offers/accepts per-frame compression. The
	// edge offers its configured preference; the master replies with
	// the conjunction, so both sides agree.
	Compress bool
	// Acked (ack only) is the number of state frames acknowledged.
	Acked int
}

// frameSizeHint bounds the payload appendFrame writes for f.
func frameSizeHint(f *frame) int {
	return 2 + 3*binary.MaxVarintLen64 + 1 + len(f.From) +
		crdt.VectorsSizeHint(f.Heads) + crdt.ComponentsSizeHint(f.Delta)
}

// appendFrame appends f's payload encoding to dst. Into a buffer grown
// to frameSizeHint it allocates nothing.
func appendFrame(dst []byte, f *frame) []byte {
	dst = append(dst, wireVersion, byte(f.Kind))
	dst = binary.AppendUvarint(dst, uint64(len(f.From)))
	dst = append(dst, f.From...)
	dst = crdt.AppendVectors(dst, f.Heads)
	dst = crdt.AppendComponents(dst, f.Delta)
	dst = binary.AppendVarint(dst, int64(f.Window))
	compress := byte(0)
	if f.Compress {
		compress = 1
	}
	dst = append(dst, compress)
	return binary.AppendVarint(dst, int64(f.Acked))
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
	f.Window = int(d.varint())
	switch d.byte() {
	case 0:
	case 1:
		f.Compress = true
	default:
		d.fail("compress flag is not 0 or 1")
	}
	f.Acked = int(d.varint())
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

func (d *frameDecoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
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
// (maxFrameBytes < 1<<31), so old decoders reject compressed frames as
// oversized instead of misparsing them — and compression is negotiated,
// so they never see one.
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

// wireConn wraps an established (post-hello) connection with the
// negotiated session features: a write mutex so the pusher's state
// frames and the reader's acks never interleave mid-frame, optional
// outbound compression, and the send-side in-flight window plus
// receive-side ack watermark.
type wireConn struct {
	c net.Conn

	// wmu serializes whole writes; fw and cbuf (the reusable flate
	// writer and its output buffer) are guarded by it.
	wmu  sync.Mutex
	fw   *flate.Writer
	cbuf bytes.Buffer

	// compress enables outbound compression for payloads of at least
	// minCompress bytes; immutable after negotiation.
	compress    bool
	minCompress int

	// sendWindow caps unacknowledged outbound state frames (0 = peer
	// does not ack, windowing off). ackWatermark is the receive-side
	// threshold at which pending inbound state frames are acknowledged
	// (0 = peer does not window, never ack). Immutable after
	// negotiation.
	sendWindow   int
	ackWatermark int

	mu          sync.Mutex
	inflight    int  // state frames written, not yet acked
	pendingAcks int  // state frames applied, not yet acked
	backlog     bool // the last reservation was cut short by the window
}

// newWireConn negotiates session features from the local config and the
// peer's hello: compression iff both sides enabled it, send windowing
// iff the peer declared a window (it promises acks), and watermark acks
// toward any peer that windows.
func newWireConn(c net.Conn, cfg TCPConfig, peer *frame) *wireConn {
	w := &wireConn{
		c:           c,
		compress:    cfg.Compression && peer.Compress,
		minCompress: cfg.minCompressBytes(),
	}
	if peer.Window > 0 {
		w.sendWindow = cfg.window()
		w.ackWatermark = max(1, peer.Window/4)
	}
	return w
}

// encodeWireFrame serializes f into one wire blob (length word +
// payload) in a pooled buffer, compressing when negotiated and
// worthwhile. The caller holds w.wmu and releases the buffer once the
// blob is written. It reports whether the frame went out compressed.
func (w *wireConn) encodeWireFrame(f *frame) (*crdt.EncodeBuffer, bool, error) {
	eb := crdt.GetEncodeBuffer()
	blob, err := putFrame(eb, f)
	if err != nil {
		eb.Release()
		return nil, false, err
	}
	payload := blob[4:]
	if !w.compress || len(payload) < w.minCompress {
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
	w.wmu.Lock()
	defer w.wmu.Unlock()
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

// reserveUpTo claims as many of k requested window slots as fit,
// returning the number granted (possibly 0). A push larger than the
// free window goes out truncated — the caller ships the granted prefix
// and the rest waits for an ack (see ackRecv) — so in-flight data stays
// bounded no matter how large a delta gets.
func (w *wireConn) reserveUpTo(k int) int {
	if w.sendWindow == 0 {
		return k
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	granted := min(k, max(0, w.sendWindow-w.inflight))
	w.inflight += granted
	w.backlog = granted < k
	return granted
}

// ackRecv releases k window slots on an inbound ack. It reports, once,
// whether the last reservation was cut short, so the caller wakes the
// pusher for the rest; after a push the window did not cut, an ack
// wakes no one.
func (w *wireConn) ackRecv(k int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.inflight = max(0, w.inflight-k)
	stalled := w.backlog
	w.backlog = false
	return stalled
}

// noteState records one applied inbound state frame and returns how
// many to acknowledge now: pending reaches the watermark, or drained
// reports the read buffer is empty (the burst is over, flush so the
// sender's window frees promptly). Returns 0 toward peers that do not
// window.
func (w *wireConn) noteState(drained bool) int {
	if w.ackWatermark == 0 {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pendingAcks++
	if w.pendingAcks >= w.ackWatermark || drained {
		k := w.pendingAcks
		w.pendingAcks = 0
		return k
	}
	return 0
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
