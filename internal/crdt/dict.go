package crdt

import (
	"encoding/binary"
	"strings"
)

// A StringDict is one direction of a stream's string dictionary, the
// per-connection dynamic table of HPACK (RFC 7541) applied to the
// change codec: a string the stream has carried once travels as a
// small index afterwards, so the actors, component names, map keys and
// literal object IDs every record repeats cost a byte or two after
// their first appearance instead of their full length.
//
// With a dictionary, each of those strings is written as
//
//	dstring := uvarint(index<<1 | 1)          — a reference
//	         | uvarint(len<<1) len bytes      — a literal
//
// and both ends append a literal to their table when it is non-empty,
// at most dictMaxString bytes long and the table holds fewer than
// dictMaxEntries strings. Once the table is full, strings stay literal
// and nothing is inserted. The encoder and the decoder apply that rule
// to the same strings in the same order, so their tables stay in
// lockstep as long as every encoded record is decoded, in order, by one
// decoder; a stream that loses or reorders a record must start both
// tables afresh.
//
// A nil *StringDict means no dictionary: every string is written in
// the self-contained layout of binary.go, so a WAL record, which must
// decode on its own, is byte-identical to one encoded before
// dictionaries existed.
//
// Beside the strings, a StringDict remembers, per author, the
// dependency vector of the last change of that author the stream
// carried (binary.go's stream-mode dependencies), so a change lists
// only the entries that moved since. Both ends remember a vector under
// the same rule, after each change in record order: when it has at
// most depsMaxActors entries, every actor in it and the author are at
// most dictMaxString bytes long, and the author is already remembered
// or fewer than dictMaxEntries authors are; otherwise the memory keeps
// what it had. So the memory, too, is bounded whatever a peer sends,
// at dictMaxEntries vectors of depsMaxActors short entries.
//
// The zero value is an empty dictionary. One StringDict serves one
// side of one direction: an encoder's or a decoder's, never both.
type StringDict struct {
	strs []string
	// index maps a string to its entry; only the encoder's is filled.
	index map[string]uint32
	// deps is the dependency memory: author → last remembered vector.
	// The vectors are shared with the changes that carried them, which
	// nothing mutates.
	deps map[ActorID]VersionVector
}

// The dictionary's bounds: the entries it holds and the length of a
// string it admits. Together they cap a table at 64 KiB of string
// bytes, whatever a peer sends.
const (
	dictMaxEntries = 1024
	dictMaxString  = 64
)

// depsMaxActors bounds the entries of a dependency vector the memory
// keeps; a replica's vectors name one actor per replica of a document.
const depsMaxActors = 16

// Len reports the number of strings the dictionary holds.
func (t *StringDict) Len() int {
	if t == nil {
		return 0
	}
	return len(t.strs)
}

func (t *StringDict) admits(s string) bool {
	return len(s) > 0 && len(s) <= dictMaxString && len(t.strs) < dictMaxEntries
}

// header returns the uvarint that introduces s in the encoder's stream
// and whether s's bytes follow it, inserting s when it is a literal the
// table admits. Without a dictionary the header is s's length.
func (t *StringDict) header(s string) (h uint64, literal bool) {
	if t == nil {
		return uint64(len(s)), true
	}
	if i, ok := t.index[s]; ok {
		return uint64(i)<<1 | 1, false
	}
	if t.admits(s) {
		if t.index == nil {
			t.index = make(map[string]uint32)
		}
		// A copy: s may be a slice of a larger string the table must
		// not keep alive.
		s := strings.Clone(s)
		t.index[s] = uint32(len(t.strs))
		t.strs = append(t.strs, s)
	}
	return uint64(len(s)) << 1, true
}

// appendString appends s as a dstring, or as binary.go's string
// without a dictionary.
func (t *StringDict) appendString(dst []byte, s string) []byte {
	h, literal := t.header(s)
	dst = binary.AppendUvarint(dst, h)
	if literal {
		dst = append(dst, s...)
	}
	return dst
}

// learn is the decoder's half of header: it appends a literal the
// table admits.
func (t *StringDict) learn(s string) {
	if t.admits(s) {
		t.strs = append(t.strs, s)
	}
}

// depsBase returns the vector author's next stream-mode dependency
// list is relative to, and whether the memory holds one.
func (t *StringDict) depsBase(author ActorID) (VersionVector, bool) {
	if t == nil {
		return nil, false
	}
	base, ok := t.deps[author]
	return base, ok
}

// rememberDeps records deps as author's last vector when the memory
// admits it (see StringDict).
func (t *StringDict) rememberDeps(author ActorID, deps VersionVector) {
	if t == nil {
		return
	}
	_, known := t.deps[author]
	if !admitsDeps(author, deps, known, len(t.deps)) {
		return
	}
	if t.deps == nil {
		t.deps = make(map[ActorID]VersionVector)
	}
	t.deps[author] = deps
}

// admitsDeps is the memory's insert rule, given whether author is
// already remembered and how many authors are.
func admitsDeps(author ActorID, deps VersionVector, known bool, authors int) bool {
	if len(deps) > depsMaxActors || len(author) > dictMaxString || (!known && authors >= dictMaxEntries) {
		return false
	}
	for a := range deps {
		if len(a) > dictMaxString {
			return false
		}
	}
	return true
}
