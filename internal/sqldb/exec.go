package sqldb

import (
	"fmt"
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

func (db *DB) execSelect(s *selectStmt, args []any) (*Result, error) {
	t, err := db.table(s.table)
	if err != nil {
		return nil, err
	}
	// Gather matching rows in insertion order.
	var matched []Row
	var one [1]string
	for _, key := range db.candidates(t, s.where, args, &one) {
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
		return execAggregate(s, matched, args)
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

	// Each result row is one fresh map that shares no memory with the
	// table, so the caller may modify it in place.
	res := &Result{Cols: selectCols(s, t)}
	if len(matched) > 0 {
		res.Rows = make([]Row, 0, len(matched))
	}
	for _, row := range matched {
		out := make(Row, len(res.Cols))
		for i, item := range s.items {
			if item.star {
				for _, cd := range t.cols {
					if v, ok := row[cd.name]; ok {
						out[cd.name] = ownValue(v)
					}
				}
				// Include non-declared columns too (schema-free rows).
				for k, v := range row {
					if _, exists := out[k]; !exists {
						out[k] = ownValue(v)
					}
				}
				continue
			}
			v, err := evalExpr(item.ex, row, args)
			if err != nil {
				return nil, err
			}
			out[itemName(s, i)] = ownValue(v)
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// ownValue returns v with a []byte copied, so a result value never
// aliases the table's storage. Other values are immutable.
func ownValue(v any) any {
	if b, ok := v.([]byte); ok {
		return append([]byte(nil), b...)
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

func execAggregate(s *selectStmt, rows []Row, args []any) (*Result, error) {
	out := make(Row, len(s.items))
	var cols []string
	for i, item := range s.items {
		call, ok := item.ex.(*callExpr)
		if !ok {
			return nil, fmt.Errorf("sqldb: mixing aggregates and plain columns is unsupported")
		}
		name := itemName(s, i)
		cols = append(cols, name)
		v, err := aggregate(call, rows, args)
		if err != nil {
			return nil, err
		}
		out[name] = ownValue(v)
	}
	return &Result{Cols: cols, Rows: []Row{out}}, nil
}

func aggregate(call *callExpr, rows []Row, args []any) (any, error) {
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
			count++
		case "max":
			if best == nil {
				best = v
			} else if c, ok := compareValues(v, best); ok && c > 0 {
				best = v
			}
			count++
		default:
			return nil, fmt.Errorf("sqldb: unknown aggregate %q", call.fn)
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
	default: // min, max
		return best, nil
	}
}
