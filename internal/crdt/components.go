package crdt

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// A component batch is the unit both replication carriers move: the
// changes of every named component (a replica's JSON, table and file
// documents) in one self-delimiting record. The WAL writes one record
// per append and one per snapshot; the TCP transport embeds one in every
// state frame. Both go through the functions below, so disk and wire
// share one pinned layout:
//
//	record := uvarint(ncomponents)
//	          (dstring(name) uvarint(len(enc)) enc)*
//	enc    := EncodeChangesInto(nil, changes) — carries the format
//	          version byte, pinning the layout
//
// Components appear in name order, so equal batches encode identically.
//
// A stream of records — the TCP transport's state frames — may thread a
// StringDict (dict.go) through the encoder and, in the same order,
// through the decoder: component names and the changes' actors, keys
// and literal object IDs then travel as dictionary references after
// their first appearance. The WAL passes none, so every record on disk
// decodes on its own and its bytes are those of binary.go.

// AppendComponents appends the record encoding of components to dst and
// returns the extended slice; dict is the stream's dictionary, or nil.
// Grow dst to ComponentsSizeHint first and, for up to eight components
// and no new dictionary entries, it encodes without allocating.
func AppendComponents(dst []byte, components map[string][]Change, dict *StringDict) []byte {
	var arr [8]string
	names := sortedNames(components, arr[:0])
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		dst = dict.appendString(dst, name)
		// Encode past room for the longest length prefix, then slide the
		// encoding down to sit right after its actual prefix.
		at := len(dst)
		dst = encodeChanges(append(dst, make([]byte, binary.MaxVarintLen64)...), components[name], dict)
		enc := dst[at+binary.MaxVarintLen64:]
		n := len(binary.AppendUvarint(dst[:at], uint64(len(enc))))
		dst = dst[:n+copy(dst[n:], enc)]
	}
	return dst
}

// ComponentsSizeHint bounds AppendComponents' output size.
func ComponentsSizeHint(components map[string][]Change) int {
	n := binary.MaxVarintLen64
	for name, chs := range components {
		n += 2*binary.MaxVarintLen64 + len(name) + ChangesSizeHint(chs)
	}
	return n
}

// DecodeComponents reverses AppendComponents without a dictionary; b
// must hold exactly one record. The result is never nil. A change
// encoding of a format version this build does not know fails with an
// *UnsupportedVersionError.
func DecodeComponents(b []byte) (map[string][]Change, error) {
	out, n, err := ReadComponents(b, nil)
	if err != nil {
		return nil, err
	}
	if n != len(b) {
		return nil, fmt.Errorf("%w: %d trailing record bytes", ErrBinaryFormat, len(b)-n)
	}
	if out == nil {
		out = map[string][]Change{}
	}
	return out, nil
}

// ReadComponents decodes the record at the start of b through the
// stream dictionary it was encoded with (nil for none) and returns it
// with the number of bytes it occupied, so a record can sit inside a
// larger message. Changes are decoded straight out of b, with no copy
// ahead of decoding. A record of no components decodes as nil.
func ReadComponents(b []byte, dict *StringDict) (map[string][]Change, int, error) {
	d := &binDecoder{b: b, dict: dict}
	ncomp, err := d.uvarint()
	if err != nil || ncomp == 0 {
		return nil, d.pos, err
	}
	out := make(map[string][]Change, d.capFor(ncomp))
	// Components share one intern table: an edge's actor appears in
	// every component it wrote.
	intern := new(atomTable)
	for i := uint64(0); i < ncomp; i++ {
		name, err := d.dstring()
		if err != nil {
			return nil, 0, err
		}
		n, err := d.uvarint()
		if err != nil {
			return nil, 0, err
		}
		enc, err := d.take(n)
		if err != nil {
			return nil, 0, fmt.Errorf("component %q: %w", name, err)
		}
		chs, err := decodeChanges(enc, intern, dict)
		if err != nil {
			return nil, 0, fmt.Errorf("component %q: %w", name, err)
		}
		out[name] = chs
	}
	return out, d.pos, nil
}

// AppendVectors appends one version vector per component — a replica's
// heads — in name order:
//
//	vectors := uvarint(n) (string(name) vv)*
//
// where vv is the unversioned vector layout of binary.go.
func AppendVectors(dst []byte, vectors map[string]VersionVector) []byte {
	var arr [8]string
	names := sortedNames(vectors, arr[:0])
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		dst = appendString(dst, name)
		dst = appendVV(dst, vectors[name])
	}
	return dst
}

// VectorsSizeHint bounds AppendVectors' output size.
func VectorsSizeHint(vectors map[string]VersionVector) int {
	const uv = binary.MaxVarintLen64
	n := uv
	for name, vv := range vectors {
		n += 2*uv + len(name)
		for a := range vv {
			n += 2*uv + len(a)
		}
	}
	return n
}

// ReadVectors decodes AppendVectors' encoding at the start of b and
// returns it with the number of bytes it occupied. No vectors decode as
// nil.
func ReadVectors(b []byte) (map[string]VersionVector, int, error) {
	d := &binDecoder{b: b}
	n, err := d.uvarint()
	if err != nil || n == 0 {
		return nil, d.pos, err
	}
	out := make(map[string]VersionVector, d.capFor(n))
	for i := uint64(0); i < n; i++ {
		name, err := d.string()
		if err != nil {
			return nil, 0, err
		}
		if out[name], err = d.vv(); err != nil {
			return nil, 0, err
		}
	}
	return out, d.pos, nil
}

// sortedNames collects m's keys into buf (a caller's stack array, so
// short lists allocate nothing) in sorted order.
func sortedNames[V any](m map[string]V, buf []string) []string {
	for name := range m {
		buf = append(buf, name)
	}
	slices.Sort(buf)
	return buf
}
