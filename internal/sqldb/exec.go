package sqldb

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// evalExpr evaluates an expression against a row (nil for row-free
// contexts such as INSERT values).
func evalExpr(e expr, row Row, args []any) (any, error) {
	switch x := e.(type) {
	case *litExpr:
		return x.v, nil
	case *colExpr:
		if row == nil {
			return nil, fmt.Errorf("sqldb: column %q referenced outside row context", x.name)
		}
		v, ok := row[x.name]
		if !ok {
			return nil, nil // missing column reads as NULL
		}
		return v, nil
	case *paramExpr:
		if x.idx >= len(args) {
			return nil, fmt.Errorf("sqldb: placeholder %d out of range", x.idx)
		}
		return normalizeArg(args[x.idx])
	case *unExpr:
		v, err := evalExpr(x.e, row, args)
		if err != nil {
			return nil, err
		}
		switch x.op {
		case "not":
			return !truthy(v), nil
		case "-":
			f, ok := toFloat(v)
			if !ok {
				return nil, fmt.Errorf("sqldb: unary minus on non-number %T", v)
			}
			return negatePreservingInt(v, f), nil
		default:
			return nil, fmt.Errorf("sqldb: unknown unary op %q", x.op)
		}
	case *binExpr:
		return evalBin(x, row, args)
	case *callExpr:
		return nil, fmt.Errorf("sqldb: aggregate %s() outside SELECT list", x.fn)
	default:
		return nil, fmt.Errorf("sqldb: unknown expression %T", e)
	}
}

func negatePreservingInt(orig any, f float64) any {
	if _, isInt := orig.(int64); isInt {
		return -orig.(int64)
	}
	return -f
}

// normalizeArg coerces Go argument types to the engine's value set.
func normalizeArg(v any) (any, error) {
	switch x := v.(type) {
	case nil, bool, int64, float64, string, []byte:
		return x, nil
	case int:
		return int64(x), nil
	case int32:
		return int64(x), nil
	case uint64:
		return int64(x), nil
	case float32:
		return float64(x), nil
	default:
		return nil, fmt.Errorf("sqldb: unsupported argument type %T", v)
	}
}

func evalBin(x *binExpr, row Row, args []any) (any, error) {
	l, err := evalExpr(x.l, row, args)
	if err != nil {
		return nil, err
	}
	// Short-circuit logical operators.
	switch x.op {
	case "and":
		if !truthy(l) {
			return false, nil
		}
		r, err := evalExpr(x.r, row, args)
		if err != nil {
			return nil, err
		}
		return truthy(r), nil
	case "or":
		if truthy(l) {
			return true, nil
		}
		r, err := evalExpr(x.r, row, args)
		if err != nil {
			return nil, err
		}
		return truthy(r), nil
	}
	r, err := evalExpr(x.r, row, args)
	if err != nil {
		return nil, err
	}
	switch x.op {
	case "=":
		return valuesEqual(l, r), nil
	case "!=":
		return !valuesEqual(l, r), nil
	case "<", "<=", ">", ">=":
		c, ok := compareValues(l, r)
		if !ok {
			return false, nil // incomparable types are never ordered
		}
		switch x.op {
		case "<":
			return c < 0, nil
		case "<=":
			return c <= 0, nil
		case ">":
			return c > 0, nil
		default:
			return c >= 0, nil
		}
	case "like":
		ls, lok := l.(string)
		rs, rok := r.(string)
		if !lok || !rok {
			return false, nil
		}
		return likeMatch(ls, rs), nil
	case "+", "-", "*", "/", "%":
		return arith(x.op, l, r)
	default:
		return nil, fmt.Errorf("sqldb: unknown operator %q", x.op)
	}
}

func arith(op string, l, r any) (any, error) {
	// String concatenation with +.
	if op == "+" {
		if ls, ok := l.(string); ok {
			if rs, ok := r.(string); ok {
				return ls + rs, nil
			}
		}
	}
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if !lok || !rok {
		return nil, fmt.Errorf("sqldb: arithmetic on non-numbers %T %s %T", l, op, r)
	}
	li, lInt := l.(int64)
	ri, rInt := r.(int64)
	bothInt := lInt && rInt
	switch op {
	case "+":
		if bothInt {
			return li + ri, nil
		}
		return lf + rf, nil
	case "-":
		if bothInt {
			return li - ri, nil
		}
		return lf - rf, nil
	case "*":
		if bothInt {
			return li * ri, nil
		}
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, fmt.Errorf("sqldb: division by zero")
		}
		if bothInt && li%ri == 0 {
			return li / ri, nil
		}
		return lf / rf, nil
	case "%":
		if !bothInt || ri == 0 {
			return nil, fmt.Errorf("sqldb: %% requires nonzero integers")
		}
		return li % ri, nil
	default:
		return nil, fmt.Errorf("sqldb: unknown arithmetic op %q", op)
	}
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

func truthy(v any) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case int64:
		return x != 0
	case float64:
		return x != 0
	case string:
		return x != ""
	case []byte:
		return len(x) > 0
	default:
		return true
	}
}

func valuesEqual(l, r any) bool {
	if l == nil || r == nil {
		return l == nil && r == nil
	}
	if lf, ok := toFloat(l); ok {
		if rf, ok := toFloat(r); ok {
			return lf == rf
		}
		return false
	}
	switch lx := l.(type) {
	case string:
		rx, ok := r.(string)
		return ok && lx == rx
	case []byte:
		rx, ok := r.([]byte)
		if !ok || len(lx) != len(rx) {
			return false
		}
		for i := range lx {
			if lx[i] != rx[i] {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// compareValues orders two values; ok is false for incomparable types.
// NULL orders before everything (SQL-lite semantics sufficient here).
func compareValues(l, r any) (int, bool) {
	if l == nil || r == nil {
		switch {
		case l == nil && r == nil:
			return 0, true
		case l == nil:
			return -1, true
		default:
			return 1, true
		}
	}
	if lf, ok := toFloat(l); ok {
		if rf, ok := toFloat(r); ok {
			switch {
			case lf < rf:
				return -1, true
			case lf > rf:
				return 1, true
			default:
				return 0, true
			}
		}
		return 0, false
	}
	ls, lok := l.(string)
	rs, rok := r.(string)
	if lok && rok {
		return strings.Compare(ls, rs), true
	}
	return 0, false
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single char).
func likeMatch(s, pattern string) bool {
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	if p == "" {
		return s == ""
	}
	switch p[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if likeRec(s[i:], p[1:]) {
				return true
			}
		}
		return false
	case '_':
		return s != "" && likeRec(s[1:], p[1:])
	default:
		return s != "" && s[0] == p[0] && likeRec(s[1:], p[1:])
	}
}

// ---- SELECT ----

// execSelect runs a SELECT. With floats set, every int64 in the result
// is delivered as a float64 (see ExecFloat).
func (db *DB) execSelect(s *selectStmt, args []any, floats bool) (*Result, error) {
	t, err := db.table(s.table)
	if err != nil {
		return nil, err
	}
	if s.aggregate {
		return db.execAggregate(s, t, args, floats)
	}
	if row, found, exact := db.point(t, s.where, args); exact {
		return pointSelect(s, t, row, found, args, floats)
	}
	if s.orderBy != "" && s.limit >= 0 && s.limit <= maxTopK {
		best, ok, err := topK(s, t, args)
		if err != nil {
			return nil, err
		}
		if ok {
			return project(s, t, best, args, floats)
		}
	}

	// Gather matching rows in insertion order, each with its sort key.
	var matched []keyedRow
	for _, key := range t.keyOrder {
		row := t.rows[key]
		ok, err := rowMatches(s.where, row, args)
		if err != nil {
			return nil, err
		}
		if ok {
			kr := keyedRow{row: row}
			if s.orderBy != "" {
				kr.key = row[s.orderBy]
			}
			matched = append(matched, kr)
		}
	}
	if s.orderBy != "" {
		sort.SliceStable(matched, func(i, j int) bool {
			c, _ := compareValues(matched[i].key, matched[j].key)
			if s.orderDsc {
				return c > 0
			}
			return c < 0
		})
	}
	if s.limit >= 0 && len(matched) > s.limit {
		matched = matched[:s.limit]
	}
	return project(s, t, matched, args, floats)
}

// keyedRow is a table row with its ORDER BY value, read once.
type keyedRow struct {
	key any
	row Row
}

// pointResult is a result of at most one row, allocated together with
// the backing array of its Rows.
type pointResult struct {
	res  Result
	rows [1]Row
}

// pointSelect answers a SELECT that can match at most row, the one
// candidate a primary-key lookup found (none when !found). A single row
// is already ordered, so it builds that row straight into the result.
// As on the scan path, the WHERE clause is evaluated before LIMIT
// applies, and the projection only for a row that is returned.
func pointSelect(s *selectStmt, t *tableData, row Row, found bool, args []any, floats bool) (*Result, error) {
	cols := s.resultCols(t)
	if !found {
		return &Result{Cols: cols}, nil
	}
	ok, err := rowMatches(s.where, row, args)
	if err != nil {
		return nil, err
	}
	if !ok || s.limit == 0 {
		return &Result{Cols: cols}, nil
	}
	out, err := projectRow(s, t, row, len(cols), args, floats)
	if err != nil {
		return nil, err
	}
	pr := &pointResult{res: Result{Cols: cols}}
	pr.rows[0] = out
	pr.res.Rows = pr.rows[:]
	return &pr.res, nil
}

// maxTopK is the largest LIMIT that ORDER BY answers by keeping the
// best rows of one scan; a larger one sorts every matching row.
const maxTopK = 64

// topK returns what a stable sort of the rows matching s.where on
// s.orderBy, cut to s.limit, returns: it keeps the s.limit best rows of
// one scan in order, a later row going after the rows it ties with.
// ok is false when the sort keys are not all mutually comparable:
// compareValues then calls some unordered pairs ties, and only the
// stable sort itself says where that puts them.
func topK(s *selectStmt, t *tableData, args []any) (best []keyedRow, ok bool, err error) {
	k := s.limit
	best = make([]keyedRow, 0, k)
	var kinds keyKinds
	for _, key := range t.keyOrder {
		row := t.rows[key]
		match, err := rowMatches(s.where, row, args)
		if err != nil {
			return nil, false, err
		}
		if !match {
			continue
		}
		v := row[s.orderBy]
		if !kinds.add(v) {
			return nil, false, nil
		}
		if len(best) == k {
			if k == 0 || !precedes(v, best[k-1].key, s.orderDsc) {
				continue
			}
			best = best[:k-1]
		}
		i := len(best)
		for i > 0 && precedes(v, best[i-1].key, s.orderDsc) {
			i--
		}
		best = append(best, keyedRow{})
		copy(best[i+1:], best[i:])
		best[i] = keyedRow{key: v, row: row}
	}
	return best, true, nil
}

// precedes reports whether sort key a comes strictly before b.
func precedes(a, b any, desc bool) bool {
	c, _ := compareValues(a, b)
	if desc {
		return c > 0
	}
	return c < 0
}

// keyKinds tracks the sort keys a scan has seen, to tell whether
// compareValues orders every pair of them: NULLs go with anything, and
// numbers (bools among them) or strings with their own kind only. A NaN
// ties with every number, and bytes with nothing but NULL.
type keyKinds struct{ num, str bool }

func (k *keyKinds) add(v any) bool {
	switch x := v.(type) {
	case nil:
		return true
	case int64, bool:
		k.num = true
	case float64:
		if math.IsNaN(x) {
			return false
		}
		k.num = true
	case string:
		k.str = true
	default:
		return false
	}
	return !(k.num && k.str)
}

// project builds the result of a SELECT over rows, in order.
func project(s *selectStmt, t *tableData, rows []keyedRow, args []any, floats bool) (*Result, error) {
	res := &Result{Cols: s.resultCols(t)}
	if len(rows) > 0 {
		res.Rows = make([]Row, 0, len(rows))
	}
	for _, kr := range rows {
		out, err := projectRow(s, t, kr.row, len(res.Cols), args, floats)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// projectRow builds one result row: a fresh map that shares no memory
// with the table, so the caller may modify it in place.
func projectRow(s *selectStmt, t *tableData, row Row, ncols int, args []any, floats bool) (Row, error) {
	out := make(Row, ncols)
	for i, item := range s.items {
		if item.star {
			before := len(out)
			for _, cd := range t.cols {
				if v, ok := row[cd.name]; ok {
					out[cd.name] = resultValue(v, floats)
				}
			}
			if len(out)-before == len(row) {
				continue // every column of the row is declared
			}
			// Include non-declared columns too (schema-free rows).
			for k, v := range row {
				if _, exists := out[k]; !exists {
					out[k] = resultValue(v, floats)
				}
			}
			continue
		}
		v, err := evalExpr(item.ex, row, args)
		if err != nil {
			return nil, err
		}
		out[itemName(s, i)] = resultValue(v, floats)
	}
	return out, nil
}

// resultValue returns v as a result holds it: a []byte copied, so a
// result value never aliases the table's storage, and with floats set
// an int64 as a float64. Other values are immutable.
func resultValue(v any, floats bool) any {
	switch x := v.(type) {
	case []byte:
		return append([]byte(nil), x...)
	case int64:
		if floats {
			return float64(x)
		}
	}
	return v
}

func isAggregate(s *selectStmt) bool {
	for _, item := range s.items {
		if _, ok := item.ex.(*callExpr); ok {
			return true
		}
	}
	return false
}

// resultCols returns s's result column names: fixed by the statement
// unless it selects *, and then by t's schema. The slice is shared by
// every result of s (or of t) and must not be modified.
func (s *selectStmt) resultCols(t *tableData) []string {
	if !s.star {
		return s.cols
	}
	if len(s.items) == 1 {
		return t.colNames
	}
	return selectCols(s, t)
}

// selectCols lists s's result columns, taking those of * from t.
func selectCols(s *selectStmt, t *tableData) []string {
	var cols []string
	for i, item := range s.items {
		if item.star {
			for _, cd := range t.cols {
				cols = append(cols, cd.name)
			}
			continue
		}
		cols = append(cols, itemName(s, i))
	}
	return cols
}

func itemName(s *selectStmt, i int) string {
	item := s.items[i]
	if item.alias != "" {
		return item.alias
	}
	switch x := item.ex.(type) {
	case *colExpr:
		return x.name
	case *callExpr:
		if x.star {
			return x.fn + "(*)"
		}
		if c, ok := x.arg.(*colExpr); ok {
			return x.fn + "(" + c.name + ")"
		}
		return x.fn
	default:
		return fmt.Sprintf("expr%d", i)
	}
}

// execAggregate answers an aggregate SELECT in one scan, folding each
// matching row into every aggregate rather than collecting the rows
// first. Errors come out as a collect-then-aggregate evaluation would
// raise them: a WHERE error on any row first, then the items in order,
// where an item stops at its own first error and a plain column among
// aggregates is an error of its own.
func (db *DB) execAggregate(s *selectStmt, t *tableData, args []any, floats bool) (*Result, error) {
	aggs := make([]aggAcc, 0, len(s.items))
	for _, item := range s.items {
		call, ok := item.ex.(*callExpr)
		if !ok {
			break
		}
		aggs = append(aggs, aggAcc{call: call})
	}
	err := db.eachCandidate(t, s.where, args, func(row Row) {
		for i := range aggs {
			aggs[i].add(row, args)
		}
	})
	if err != nil {
		return nil, err
	}
	out := make(Row, len(s.items))
	for i := range s.items {
		if i == len(aggs) {
			return nil, fmt.Errorf("sqldb: mixing aggregates and plain columns is unsupported")
		}
		v, err := aggs[i].result()
		if err != nil {
			return nil, err
		}
		out[itemName(s, i)] = resultValue(v, floats)
	}
	return &Result{Cols: s.cols, Rows: []Row{out}}, nil
}

// eachCandidate calls f on every row matching where, in table order:
// the one row a primary-key lookup finds, or each row of a scan. It
// stops at the first error evaluating where.
func (db *DB) eachCandidate(t *tableData, where expr, args []any, f func(Row)) error {
	if row, found, exact := db.point(t, where, args); exact {
		if !found {
			return nil
		}
		ok, err := rowMatches(where, row, args)
		if ok {
			f(row)
		}
		return err
	}
	for _, key := range t.keyOrder {
		row := t.rows[key]
		ok, err := rowMatches(where, row, args)
		if err != nil {
			return err
		}
		if ok {
			f(row)
		}
	}
	return nil
}

// aggAcc folds rows into one aggregate call.
type aggAcc struct {
	call  *callExpr
	sum   float64
	count int64
	best  any
	err   error // the first error; later rows are not folded
}

func (a *aggAcc) add(row Row, args []any) {
	call := a.call
	if call.star {
		a.count++
		return
	}
	if a.err != nil {
		return
	}
	v, err := evalExpr(call.arg, row, args)
	if err != nil {
		a.err = err
		return
	}
	if v == nil {
		return
	}
	switch call.fn {
	case "count":
		a.count++
	case "sum", "avg":
		f, ok := toFloat(v)
		if !ok {
			a.err = fmt.Errorf("sqldb: %s over non-numeric value %T", call.fn, v)
			return
		}
		a.sum += f
		a.count++
	case "min":
		if a.best == nil {
			a.best = v
		} else if c, ok := compareValues(v, a.best); ok && c < 0 {
			a.best = v
		}
	case "max":
		if a.best == nil {
			a.best = v
		} else if c, ok := compareValues(v, a.best); ok && c > 0 {
			a.best = v
		}
	default:
		a.err = fmt.Errorf("sqldb: unknown aggregate %q", call.fn)
	}
}

func (a *aggAcc) result() (any, error) {
	call := a.call
	if call.star && call.fn != "count" {
		return nil, fmt.Errorf("sqldb: %s(*) is not valid", call.fn)
	}
	if a.err != nil {
		return nil, a.err
	}
	switch call.fn {
	case "count":
		return a.count, nil
	case "sum":
		return a.sum, nil
	case "avg":
		if a.count == 0 {
			return nil, nil
		}
		return a.sum / float64(a.count), nil
	default: // min, max
		return a.best, nil
	}
}
