package sqldb

import (
	"math"
	"strconv"
)

// maxExactInt bounds the integers whose float64 conversion is exact:
// below it no two distinct int64 values compare equal.
const maxExactInt = 1 << 53

// candidates returns the keys of the rows a WHERE clause can match, in
// table order: what a primary-key lookup finds when that is provably
// the same set the scan would match, else every row. one is scratch
// space for the single-key result.
func (db *DB) candidates(t *tableData, where expr, args []any, one *[1]string) []string {
	if db.scanOnly {
		return t.keyOrder
	}
	var ps probeSet
	i, found, exact := t.lookup(where, args, &ps)
	if !exact {
		return t.keyOrder
	}
	if !found {
		return nil
	}
	one[0] = ps.key(i)
	return one[:]
}

// point is candidates for a reader that needs only the row: the one
// row a primary-key lookup finds (found false: none can match) when
// exact, else nothing and the caller scans. It allocates nothing.
func (db *DB) point(t *tableData, where expr, args []any) (row Row, found, exact bool) {
	if db.scanOnly {
		return nil, false, false
	}
	var ps probeSet
	i, found, exact := t.lookup(where, args, &ps)
	if found {
		row, _ = ps.row(t, i)
	}
	return row, found, exact
}

// lookup resolves a WHERE clause whose first-evaluated comparison is
// `pk = v` straight to the row held under v's key. exact is false when
// only a scan can answer exactly; otherwise ps holds v's probe keys and
// i is the one whose row can match (found false: none can). The caller
// still evaluates the whole WHERE on it.
//
// Why this matches the scan: with drift zero, every row with key value
// w is held under keyString(w) or under one of w's probe keys. The
// probe set lists the keyString of every value valuesEqual treats as
// equal to v, and for numbers and bools it depends only on the float
// value, so equal v and w have the same probe set: either way the row's
// key is among v's probes. Rows under other keys fail the `pk = v`
// conjunct, and evaluating it never errors, so the scan would skip them
// without side effects.
func (t *tableData) lookup(where expr, args []any, ps *probeSet) (i int, found, exact bool) {
	if t.pkCol == "" || t.drift > 0 {
		return 0, false, false
	}
	probe, ok := pkProbe(where, t.pkCol, args)
	if !ok || !ps.fill(probe) {
		return 0, false, false
	}
	for k := 0; k < ps.n; k++ {
		if _, hit := ps.row(t, k); hit {
			if found {
				// Two rows hold equal key values (an int and a float
				// spelled differently); only the scan knows their order.
				return 0, false, false
			}
			i, found = k, true
		}
	}
	return i, found, true
}

// pkProbe returns v when the comparison a WHERE clause evaluates first
// on every row is `pk = v` or `v = pk`, with v a literal or a
// placeholder: the leftmost conjunct of an AND chain, or the whole
// clause.
func pkProbe(where expr, pk string, args []any) (any, bool) {
	for {
		b, ok := where.(*binExpr)
		if !ok {
			return nil, false
		}
		if b.op == "and" {
			where = b.l
			continue
		}
		if b.op != "=" {
			return nil, false
		}
		other := b.r
		if c, ok := b.l.(*colExpr); !ok || c.name != pk {
			if c, ok := b.r.(*colExpr); !ok || c.name != pk {
				return nil, false
			}
			other = b.l
		}
		switch x := other.(type) {
		case *litExpr:
			return x.v, true
		case *paramExpr:
			if x.idx >= len(args) {
				return nil, false
			}
			v, err := normalizeArg(args[x.idx])
			if err != nil {
				return nil, false
			}
			return v, true
		}
		return nil, false
	}
}

// probeSet holds the keyString of every stored value that valuesEqual
// treats as equal to one probe value, spelled without allocating: a
// string probe is its own key, and a number's spellings sit back to
// back in buf. No value has more than three.
type probeSet struct {
	str   string
	isStr bool
	buf   [64]byte
	ends  [3]uint8
	n     int
}

// fill lists v's probe keys; it is false when that set is not small
// and known (NULL, bytes, integers beyond 2^53).
func (ps *probeSet) fill(v any) bool {
	var f float64
	switch x := v.(type) {
	case string:
		ps.str, ps.isStr, ps.n = x, true, 1
		return true
	case int64:
		f = float64(x)
	case float64:
		f = x
	case bool:
		f = 0
		if x {
			f = 1
		}
	default:
		return false
	}
	if math.IsNaN(f) {
		return true // NaN equals nothing
	}
	b := ps.buf[:0]
	if f != math.Trunc(f) {
		// Only a float64 of the same value can equal a fraction.
		ps.end(strconv.AppendFloat(b, f, 'g', -1, 64))
		return true
	}
	if math.Abs(f) >= maxExactInt {
		return false
	}
	i := int64(f)
	b = ps.end(strconv.AppendInt(b, i, 10))
	if i >= 1e6 || i <= -1e6 {
		// Only from 1e+06 up does a float spell an integer differently.
		ps.end(strconv.AppendFloat(b, f, 'g', -1, 64))
	}
	switch i {
	case 0:
		b = ps.end(append(b, "-0"...))
		ps.end(append(b, "false"...))
	case 1:
		ps.end(append(b, "true"...))
	}
	return true
}

// end marks the end of b, the spellings so far, as the end of a key.
func (ps *probeSet) end(b []byte) []byte {
	ps.ends[ps.n] = uint8(len(b))
	ps.n++
	return b
}

// spelling returns the i-th key of a number probe.
func (ps *probeSet) spelling(i int) []byte {
	var start uint8
	if i > 0 {
		start = ps.ends[i-1]
	}
	return ps.buf[start:ps.ends[i]]
}

// row returns the row t holds under the i-th key.
func (ps *probeSet) row(t *tableData, i int) (Row, bool) {
	if ps.isStr {
		row, ok := t.rows[ps.str]
		return row, ok
	}
	row, ok := t.rows[string(ps.spelling(i))]
	return row, ok
}

// key returns the i-th key as a string.
func (ps *probeSet) key(i int) string {
	if ps.isStr {
		return ps.str
	}
	return string(ps.spelling(i))
}

// has reports whether key is one of the probe keys.
func (ps *probeSet) has(key string) bool {
	if ps.isStr {
		return ps.str == key
	}
	for i := 0; i < ps.n; i++ {
		if string(ps.spelling(i)) == key {
			return true
		}
	}
	return false
}
