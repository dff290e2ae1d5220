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
	key, found, exact := t.lookup(where, args)
	if !exact {
		return t.keyOrder
	}
	if !found {
		return nil
	}
	one[0] = key
	return one[:]
}

// lookup resolves a WHERE clause whose first-evaluated comparison is
// `pk = v` straight to the row held under v's key. exact is false when
// only a scan can answer exactly; otherwise the one row that can match
// is returned (found false: none can). The caller still evaluates the
// whole WHERE on it.
//
// Why this matches the scan: with drift zero, every row with key value
// w is held under keyString(w) or under one of probeKeys(w). probeKeys
// lists the keyString of every value valuesEqual treats as equal to v,
// and for numbers and bools it depends only on the float value, so
// equal v and w have the same probe set: either way the row's key is
// among v's probes. Rows under other keys fail the `pk = v` conjunct,
// and evaluating it never errors, so the scan would skip them without
// side effects.
func (t *tableData) lookup(where expr, args []any) (key string, found, exact bool) {
	if t.pkCol == "" || t.drift > 0 {
		return "", false, false
	}
	probe, ok := pkProbe(where, t.pkCol, args)
	if !ok {
		return "", false, false
	}
	var buf [4]string
	keys, ok := probeKeys(probe, buf[:0])
	if !ok {
		return "", false, false
	}
	for _, k := range keys {
		if _, hit := t.rows[k]; hit {
			if found && k != key {
				// Two rows hold equal key values (an int and a float
				// spelled differently); only the scan knows their order.
				return "", false, false
			}
			key, found = k, true
		}
	}
	return key, found, true
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

// probeKeys appends to dst the keyString of every stored value that
// valuesEqual treats as equal to v; ok is false when that set is not
// small and known (NULL, bytes, integers beyond 2^53).
func probeKeys(v any, dst []string) ([]string, bool) {
	var f float64
	switch x := v.(type) {
	case string:
		return append(dst, x), true
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
		return dst, false
	}
	if math.IsNaN(f) {
		return dst, true // NaN equals nothing
	}
	if f != math.Trunc(f) {
		// Only a float64 of the same value can equal a fraction.
		return append(dst, keyString(f)), true
	}
	if math.Abs(f) >= maxExactInt {
		return dst, false
	}
	i := int64(f)
	dst = append(dst, strconv.FormatInt(i, 10))
	if i >= 1e6 || i <= -1e6 {
		// Only from 1e+06 up does a float spell an integer differently.
		dst = append(dst, keyString(f))
	}
	switch i {
	case 0:
		dst = append(dst, "-0", "false")
	case 1:
		dst = append(dst, "true")
	}
	return dst, true
}
