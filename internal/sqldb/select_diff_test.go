package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refSelect is SELECT as it ran before top-k ordering and scan-folded
// aggregates: collect every matching row, aggregate the collected rows
// or stable-sort them with two row lookups per comparison, cut to the
// LIMIT, project. It is the oracle TestSelectMatchesReference holds
// execSelect to.
func refSelect(db *DB, query string, args []any) (*Result, error) {
	st, err := parse(query)
	if err != nil {
		return nil, err
	}
	s := st.(*selectStmt)
	t, err := db.table(s.table)
	if err != nil {
		return nil, err
	}
	var matched []Row
	for _, key := range t.keyOrder {
		row := t.rows[key]
		ok, err := rowMatches(s.where, row, args)
		if err != nil {
			return nil, err
		}
		if ok {
			matched = append(matched, row)
		}
	}
	if isAggregate(s) {
		out := make(Row, len(s.items))
		var cols []string
		for i, item := range s.items {
			call, ok := item.ex.(*callExpr)
			if !ok {
				return nil, fmt.Errorf("sqldb: mixing aggregates and plain columns is unsupported")
			}
			cols = append(cols, itemName(s, i))
			v, err := refAggregate(call, matched, args)
			if err != nil {
				return nil, err
			}
			out[itemName(s, i)] = resultValue(v, false)
		}
		return &Result{Cols: cols, Rows: []Row{out}}, nil
	}
	if s.orderBy != "" {
		col := s.orderBy
		sort.SliceStable(matched, func(i, j int) bool {
			c, _ := compareValues(matched[i][col], matched[j][col])
			if s.orderDsc {
				return c > 0
			}
			return c < 0
		})
	}
	if s.limit >= 0 && len(matched) > s.limit {
		matched = matched[:s.limit]
	}
	res := &Result{Cols: selectCols(s, t)}
	for _, row := range matched {
		out := make(Row)
		for i, item := range s.items {
			if item.star {
				for k, v := range row {
					out[k] = resultValue(v, false)
				}
				continue
			}
			v, err := evalExpr(item.ex, row, args)
			if err != nil {
				return nil, err
			}
			out[itemName(s, i)] = resultValue(v, false)
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

func refAggregate(call *callExpr, rows []Row, args []any) (any, error) {
	if call.fn == "count" {
		if call.star {
			return int64(len(rows)), nil
		}
		var n int64
		for _, row := range rows {
			v, err := evalExpr(call.arg, row, args)
			if err != nil {
				return nil, err
			}
			if v != nil {
				n++
			}
		}
		return n, nil
	}
	if call.star {
		return nil, fmt.Errorf("sqldb: %s(*) is not valid", call.fn)
	}
	var (
		sum   float64
		count int64
		best  any
	)
	for _, row := range rows {
		v, err := evalExpr(call.arg, row, args)
		if err != nil {
			return nil, err
		}
		if v == nil {
			continue
		}
		switch call.fn {
		case "sum", "avg":
			f, ok := toFloat(v)
			if !ok {
				return nil, fmt.Errorf("sqldb: %s over non-numeric value %T", call.fn, v)
			}
			sum += f
			count++
		case "min":
			if best == nil {
				best = v
			} else if c, ok := compareValues(v, best); ok && c < 0 {
				best = v
			}
		case "max":
			if best == nil {
				best = v
			} else if c, ok := compareValues(v, best); ok && c > 0 {
				best = v
			}
		}
	}
	switch call.fn {
	case "sum":
		return sum, nil
	case "avg":
		if count == 0 {
			return nil, nil
		}
		return sum / float64(count), nil
	default:
		return best, nil
	}
}

// renderResult spells a result or error out with every value's type, so
// 1 and 1.0 differ and NaN equals NaN.
func renderResult(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "cols %q\n", res.Cols)
	for _, row := range res.Rows {
		keys := make([]string, 0, len(row))
		for k := range row {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s=%T:%v ", k, row[k], row[k])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// sortKeyPools are the values a table's v column draws from: ties among
// numbers (bools and -0 among them) and NULLs; strings and NULLs; and
// mixes compareValues cannot order (number against string, bytes, NaN).
var sortKeyPools = map[string][]any{
	"numbers": {int64(0), int64(1), int64(2), int64(3), 2.0, 0.5, math.Copysign(0, -1), true, false, nil},
	"strings": {"a", "b", "c", "", nil},
	"mixed":   {int64(1), int64(2), "a", "b", []byte("x"), math.NaN(), nil, 1.5},
}

// diffQueries are the SELECTs checked; each "?" takes a number.
var diffQueries = []string{
	"SELECT id, v FROM t ORDER BY v LIMIT %d",
	"SELECT id, v FROM t ORDER BY v DESC LIMIT %d",
	"SELECT * FROM t ORDER BY v DESC LIMIT %d",
	"SELECT id FROM t WHERE id > ? ORDER BY v LIMIT %d",
	"SELECT id, v FROM t WHERE w = 'x' ORDER BY v DESC LIMIT %d",
	"SELECT id, v FROM t WHERE v + 1 > 0 ORDER BY v LIMIT %d",
	"SELECT id, v FROM t ORDER BY v",
	"SELECT id, v FROM t ORDER BY v DESC",
	"SELECT id FROM t LIMIT %d",
	"SELECT count(*) FROM t",
	"SELECT count(v), min(v), max(v) FROM t",
	"SELECT sum(v), avg(v) FROM t",
	"SELECT min(w), max(w), count(w) FROM t WHERE id > ?",
	"SELECT max(v), id FROM t",
	"SELECT id, max(v) FROM t",
	"SELECT sum(w), count(*) FROM t",
	"SELECT count(*), sum(v) FROM t WHERE v + 1 > 0",
	"SELECT max(id) FROM t WHERE id = ?",
	"SELECT count(*) FROM t WHERE id = ?",
	"SELECT min(v) FROM t WHERE w = 'none'",
	"SELECT avg(v) FROM t WHERE w = 'none'",
}

// TestSelectMatchesReference holds ORDER BY … LIMIT (answered as a
// top-k for small limits) and aggregates (folded into the scan) to the
// collect-sort-cut reference on seeded random tables: ties, NULLs,
// mixed types, DESC, LIMIT 0, 1 and past the row count, and WHERE or
// aggregate errors on some rows.
func TestSelectMatchesReference(t *testing.T) {
	for pool, values := range sortKeyPools {
		for seed := int64(1); seed <= 15; seed++ {
			rng := rand.New(rand.NewSource(seed))
			db := Open()
			mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, v INT, w TEXT)")
			n := rng.Intn(30)
			for i := 0; i < n; i++ {
				w := []any{"x", "y", nil}[rng.Intn(3)]
				if err := db.PutRow("t", fmt.Sprint(i), map[string]any{"id": int64(i), "v": values[rng.Intn(len(values))], "w": w}); err != nil {
					t.Fatal(err)
				}
			}
			limits := []int{0, 1, 2, 3, n - 1, n, n + 3, maxTopK, maxTopK + 1}
			for _, q := range diffQueries {
				for _, k := range limits {
					if k < 0 {
						continue
					}
					query := q
					if strings.Contains(q, "%d") {
						query = fmt.Sprintf(q, k)
					}
					var args []any
					if strings.Contains(q, "?") {
						args = []any{int64(rng.Intn(n + 1))}
					}
					got := renderResult(db.Exec(query, args...))
					want := renderResult(refSelect(db, query, args))
					if got != want {
						t.Fatalf("%s seed %d: %s %v:\ngot  %s\nwant %s", pool, seed, query, args, got, want)
					}
					if !strings.Contains(q, "%d") {
						break
					}
				}
			}
		}
	}
}

// TestTopKFallsBackOnUnorderedKeys pins that keys compareValues cannot
// order take the stable sort, not the top-k.
func TestTopKFallsBackOnUnorderedKeys(t *testing.T) {
	for _, c := range []struct {
		keys []any
		ok   bool
	}{
		{[]any{int64(1), 2.5, true, nil}, true},
		{[]any{"a", nil, "b"}, true},
		{[]any{int64(1), "a"}, false},
		{[]any{math.NaN()}, false},
		{[]any{[]byte("a")}, false},
	} {
		var k keyKinds
		ok := true
		for _, v := range c.keys {
			ok = ok && k.add(v)
		}
		if ok != c.ok {
			t.Errorf("keys %v: comparable = %v, want %v", c.keys, ok, c.ok)
		}
	}
}
