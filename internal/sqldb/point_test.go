package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// pkProbes are primary-key probe values chosen where valuesEqual and
// keyString disagree: int vs float spellings (1e+06, -1e+06, and
// 999999 just below where they start to differ), bool↔number,
// negative zero, integers past 2^53, strings that look like numbers,
// NULL and bytes.
var pkProbes = []any{
	int64(5), 5.0, "5", int(7), true, false, int64(0), math.Copysign(0, -1),
	int64(1000000), 1e6, 2.5, "a", "", int64(1) << 53, int64(1)<<53 + 1,
	float64(int64(1) << 53), nil, []byte("a"), int64(-3), -3.0, int64(42),
	int64(999999), 999999.0, int64(-1000000), -1e6,
}

// pkStatements are the statements the differential run draws from;
// each "?" takes a probe.
var pkStatements = []string{
	"SELECT * FROM t WHERE id = ?",
	"SELECT v FROM t WHERE ? = id",
	"SELECT * FROM t WHERE id = ? AND v > 1",
	"SELECT * FROM t WHERE v > 1 AND id = ?",
	"SELECT * FROM t WHERE id = ? AND v + 'x' > 1",
	"SELECT count(*) FROM t WHERE id = ?",
	"SELECT * FROM t WHERE id = ? OR v = 3",
	"SELECT * FROM t WHERE id = 5",
	"SELECT * FROM t WHERE id = 'a'",
	"SELECT * FROM t WHERE id = true",
	"SELECT * FROM t WHERE id = 1000000",
	"SELECT * FROM t WHERE id = 1000000.0",
	"SELECT * FROM u WHERE a = ?",
	"UPDATE t SET v = v + 1 WHERE id = ?",
	"UPDATE t SET v = v + 'x' WHERE id = ?",
	"UPDATE t SET id = ? WHERE id = ?",
	"UPDATE t SET id = id WHERE id = ?",
	"UPDATE t SET id = v + 'x' WHERE id = ?",
	"DELETE FROM t WHERE id = ?",
	"DELETE FROM t WHERE id = ? AND v > 2",
	"DELETE FROM t WHERE v + 'x' > 1",
	"INSERT INTO t (id, v) VALUES (?, 1)",
	"INSERT INTO u (a, b) VALUES (?, 'z')",
	"UPDATE u SET a = ? WHERE a = 1",
	"BEGIN",
	"COMMIT",
	"ROLLBACK",
}

func seedPointTables(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "CREATE TABLE u (a INT, b TEXT)")
	for i, id := range []any{int64(5), int64(1000000), 1e6, 2.5, "a", true, math.Copysign(0, -1),
		int64(1)<<53 + 1, int64(-3), "x", -1e6, 999999.0} {
		mustExec(t, db, "INSERT INTO t (id, v) VALUES (?, ?)", id, int64(i))
		mustExec(t, db, "INSERT INTO u (a, b) VALUES (?, 'y')", int64(i%3))
	}
}

// tableState is everything observable about a table, row order and
// the key-drift bookkeeping included.
func tableState(db *DB) map[string]any {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := map[string]any{}
	for name, t := range db.tables {
		rows := make([]Row, 0, len(t.keyOrder))
		for _, k := range t.keyOrder {
			rows = append(rows, t.rows[k])
		}
		out[name] = []any{append([]string(nil), t.keyOrder...), rows, t.nextID, t.drift}
	}
	return out
}

// TestPointLookupMatchesScan runs seeded random statement sequences on
// two databases, one with primary-key lookups and one forced to scan,
// and requires identical results, errors and table states after every
// statement — including inside open transactions and after rollbacks,
// and with replicated rows applied through PutRow/RemoveRow.
func TestPointLookupMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		fast, scan := Open(), Open()
		scan.scanOnly = true
		seedPointTables(t, fast)
		seedPointTables(t, scan)
		rng := rand.New(rand.NewSource(seed))
		probe := func() any { return pkProbes[rng.Intn(len(pkProbes))] }
		for step := 0; step < 300; step++ {
			var desc string
			var rf, rs *Result
			var ef, es error
			switch rng.Intn(10) {
			case 0: // a replicated row, under its origin's key
				key := fmt.Sprint(probe())
				cols := map[string]any{"id": probe(), "v": int64(step)}
				if rng.Intn(3) == 0 {
					cols["id"] = nil
				}
				desc = fmt.Sprintf("PutRow(t, %q, %v)", key, cols)
				ef, es = fast.PutRow("t", key, cols), scan.PutRow("t", key, cols)
			case 1:
				key := fmt.Sprint(probe())
				desc = fmt.Sprintf("RemoveRow(t, %q)", key)
				fast.RemoveRow("t", key)
				scan.RemoveRow("t", key)
			default:
				q := pkStatements[rng.Intn(len(pkStatements))]
				var args []any
				for i := 0; i < countPlaceholders(q); i++ {
					args = append(args, probe())
				}
				desc = fmt.Sprintf("%s %v", q, args)
				rf, ef = fast.Exec(q, args...)
				rs, es = scan.Exec(q, args...)
			}
			if fmt.Sprint(ef) != fmt.Sprint(es) {
				t.Fatalf("seed %d step %d %s: error %v with lookups, %v scanning", seed, step, desc, ef, es)
			}
			if !reflect.DeepEqual(rf, rs) {
				t.Fatalf("seed %d step %d %s: result\n%+v with lookups\n%+v scanning", seed, step, desc, rf, rs)
			}
			if sf, ss := tableState(fast), tableState(scan); !reflect.DeepEqual(sf, ss) {
				t.Fatalf("seed %d step %d %s: state\n%v with lookups\n%v scanning", seed, step, desc, sf, ss)
			}
			if got, want := fast.tables["t"].drift, recountDrift(fast.tables["t"]); got != want {
				t.Fatalf("seed %d step %d %s: drift count %d, recounted %d", seed, step, desc, got, want)
			}
		}
	}
}

// recountDrift counts the drifted rows of t from scratch.
func recountDrift(t *tableData) int {
	n := 0
	for k, r := range t.rows {
		if t.drifted(k, r) {
			n++
		}
	}
	return n
}

func countPlaceholders(q string) int {
	n := 0
	for _, c := range q {
		if c == '?' {
			n++
		}
	}
	return n
}

// TestPointLookupIsTaken pins when the lookup answers and when it
// defers to the scan.
func TestPointLookupIsTaken(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for i := int64(1); i <= 20; i++ {
		mustExec(t, db, "INSERT INTO t (id, v) VALUES (?, ?)", i, i)
	}
	mustExec(t, db, "INSERT INTO t (id, v) VALUES ('k', 0), (1000000, 0)")
	tbl := db.tables["t"]
	where := func(q string) expr {
		st, err := parse(q)
		if err != nil {
			t.Fatal(err)
		}
		return st.(*selectStmt).where
	}
	cases := []struct {
		q           string
		args        []any
		key         string
		found, exac bool
	}{
		{"SELECT * FROM t WHERE id = ?", []any{7.0}, "7", true, true},
		{"SELECT * FROM t WHERE id = ?", []any{int64(7)}, "7", true, true},
		{"SELECT * FROM t WHERE ? = id AND v > 0", []any{int64(7)}, "7", true, true},
		{"SELECT * FROM t WHERE id = ?", []any{"k"}, "k", true, true},
		{"SELECT * FROM t WHERE id = ?", []any{1e6}, "1000000", true, true},
		{"SELECT * FROM t WHERE id = ?", []any{int64(99)}, "", false, true},
		{"SELECT * FROM t WHERE id = ?", []any{2.5}, "", false, true},
		{"SELECT * FROM t WHERE id = 3", nil, "3", true, true},
		{"SELECT * FROM t WHERE v > 0 AND id = ?", []any{int64(7)}, "", false, false},
		{"SELECT * FROM t WHERE id = ? OR v = 1", []any{int64(7)}, "", false, false},
		{"SELECT * FROM t WHERE id = ?", []any{int64(1) << 53}, "", false, false},
		{"SELECT * FROM t WHERE id = ?", []any{nil}, "", false, false},
		{"SELECT * FROM t WHERE v = ?", []any{int64(7)}, "", false, false},
	}
	for _, c := range cases {
		key, found, exact := tbl.lookupKey(where(c.q), c.args)
		if key != c.key || found != c.found || exact != c.exac {
			t.Errorf("%s %v: lookup = (%q, %v, %v), want (%q, %v, %v)",
				c.q, c.args, key, found, exact, c.key, c.found, c.exac)
		}
	}
	// A replicated key of 1e6 or more arrives as a float but under its
	// origin's integer spelling; the probe set covers it, so it does
	// not drift and the lookup stays on.
	if err := db.PutRow("t", "2000000", map[string]any{"id": 2e6, "v": int64(0)}); err != nil {
		t.Fatal(err)
	}
	if tbl.drift != 0 {
		t.Fatalf("drift = %d after a replicated 2e6 key, want 0", tbl.drift)
	}
	if key, found, exact := tbl.lookupKey(where("SELECT * FROM t WHERE id = 2000000"), nil); key != "2000000" || !found || !exact {
		t.Fatalf("lookup of a replicated 2e6 key = (%q, %v, %v)", key, found, exact)
	}
	if err := db.PutRow("t", "1e+06", map[string]any{"id": 1e6, "v": int64(0)}); err != nil {
		t.Fatal(err)
	}
	if _, _, exact := tbl.lookupKey(where("SELECT * FROM t WHERE id = 1000000"), nil); exact {
		t.Fatal("lookup exact with two rows holding key value 1e6")
	}
	db.RemoveRow("t", "1e+06")
	// Rewriting a key column breaks the key ↔ value correspondence: the
	// table falls back to scans until the row is gone.
	mustExec(t, db, "UPDATE t SET id = 100 WHERE id = 2")
	if _, _, exact := tbl.lookupKey(where("SELECT * FROM t WHERE id = 7"), nil); exact {
		t.Fatal("lookup still exact after a key-column rewrite")
	}
	if res := mustExec(t, db, "SELECT v FROM t WHERE id = 100"); len(res.Rows) != 1 || res.Rows[0]["v"] != int64(2) {
		t.Fatalf("rewritten row = %v", res.Rows)
	}
	mustExec(t, db, "DELETE FROM t WHERE id = 100")
	if _, _, exact := tbl.lookupKey(where("SELECT * FROM t WHERE id = 7"), nil); !exact {
		t.Fatal("lookup still disabled after the rewritten row was deleted")
	}
}

// TestPointLookupInTransaction reads and writes through the lookup
// inside an open transaction and after its rollback.
func TestPointLookupInTransaction(t *testing.T) {
	db := newBooksDB(t)
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "UPDATE books SET stock = 0 WHERE id = ?", 2.0)
	mustExec(t, db, "UPDATE books SET id = 9 WHERE id = 3")
	if res := mustExec(t, db, "SELECT stock FROM books WHERE id = ?", 2); res.Rows[0]["stock"] != int64(0) {
		t.Fatalf("in-transaction read = %v", res.Rows)
	}
	mustExec(t, db, "ROLLBACK")
	if res := mustExec(t, db, "SELECT stock FROM books WHERE id = ?", 2); res.Rows[0]["stock"] != int64(1) {
		t.Fatalf("post-rollback read = %v", res.Rows)
	}
	if res := mustExec(t, db, "SELECT title FROM books WHERE id = 3"); len(res.Rows) != 1 {
		t.Fatalf("rolled-back key rewrite still visible: %v", res.Rows)
	}
	if _, _, exact := db.tables["books"].lookupKey(&binExpr{op: "=", l: &colExpr{"id"}, r: &litExpr{int64(3)}}, nil); !exact {
		t.Fatal("rollback did not restore the table's drift count")
	}
}

// TestPutRowAndRemoveRow pins the direct row API the synchronization
// runtime applies replicated rows with.
func TestPutRowAndRemoveRow(t *testing.T) {
	db := newBooksDB(t)
	var fired int
	db.OnMutation(func(Mutation) { fired++ })
	if err := db.PutRow("books", "2", map[string]any{"id": 2.0, "title": "TAPL 2e", "stock": 5.0}); err != nil {
		t.Fatal(err)
	}
	if err := db.PutRow("books", "8", map[string]any{"id": 8.0, "title": "New", "stock": int(1)}); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, db, "SELECT id, title FROM books")
	got := []any{}
	for _, r := range res.Rows {
		got = append(got, r["title"])
	}
	if want := []any{"SICP", "TAPL 2e", "Go", "New"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("row order = %v, want %v (replaced rows keep their place, new ones append)", got, want)
	}
	if res := mustExec(t, db, "SELECT price FROM books WHERE id = 2"); res.Rows[0]["price"] != nil {
		t.Fatalf("PutRow merged columns instead of replacing the row: %v", res.Rows)
	}
	if res := mustExec(t, db, "SELECT stock FROM books WHERE id = 8"); res.Rows[0]["stock"] != int64(1) {
		t.Fatalf("PutRow did not coerce an int column: %#v", res.Rows[0]["stock"])
	}
	db.RemoveRow("books", "1")
	db.RemoveRow("books", "missing")
	db.RemoveRow("nosuch", "1")
	if n, _ := db.RowCount("books"); n != 3 {
		t.Fatalf("rows after RemoveRow = %d, want 3", n)
	}
	if fired != 0 {
		t.Fatalf("direct row API fired %d mutation hooks", fired)
	}
	if err := db.PutRow("nosuch", "1", nil); err == nil {
		t.Fatal("PutRow into a missing table succeeded")
	}
	if err := db.PutRow("books", "9", map[string]any{"id": struct{}{}}); err == nil {
		t.Fatal("PutRow accepted an unsupported value")
	}

	// Tables without a primary key: a replicated synthetic key moves the
	// row-ID counter, so a local INSERT never overwrites it.
	mustExec(t, db, "CREATE TABLE log (msg TEXT)")
	if err := db.PutRow("log", "_rowid_7", map[string]any{"msg": "remote"}); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, db, "INSERT INTO log (msg) VALUES ('local')")
	if res.LastKey != "_rowid_8" {
		t.Fatalf("local insert after a replicated _rowid_7 got key %q, want _rowid_8", res.LastKey)
	}
	if n, _ := db.RowCount("log"); n != 2 {
		t.Fatalf("log rows = %d, want 2", n)
	}
}

// TestDeleteWhereErrorLeavesTableIntact: a DELETE whose WHERE fails on
// a later row must not have removed earlier rows.
func TestDeleteWhereErrorLeavesTableIntact(t *testing.T) {
	db := newBooksDB(t)
	mustExec(t, db, "INSERT INTO books (id, title, stock, price) VALUES (4, 'Odd', 'many', 1.0)")
	before := db.Dump()
	if _, err := db.Exec("DELETE FROM books WHERE stock - 1 >= 0"); err == nil {
		t.Fatal("arithmetic on a string succeeded")
	}
	if after := db.Dump(); !reflect.DeepEqual(before, after) {
		t.Fatalf("failed DELETE changed the table:\n%v\n%v", before, after)
	}
	if res := mustExec(t, db, "SELECT * FROM books"); len(res.Rows) != 4 {
		t.Fatalf("rows after failed DELETE = %d, want 4", len(res.Rows))
	}
}

// BenchmarkPointSelect is the primary-key point select a db-bound
// service issues per request, at two table sizes: with the key lookup
// its cost does not grow with the table.
func BenchmarkPointSelect(b *testing.B) {
	for _, rows := range []int{500, 5000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			db := Open()
			if _, err := db.Exec("CREATE TABLE books (id INT PRIMARY KEY, title TEXT, stock INT)"); err != nil {
				b.Fatal(err)
			}
			for i := 1; i <= rows; i++ {
				if _, err := db.Exec("INSERT INTO books (id, title, stock) VALUES (?, 'T', 3)", i); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Exec("SELECT * FROM books WHERE id = ?", float64(1+i%rows))
				if err != nil || len(res.Rows) != 1 {
					b.Fatalf("%v %v", res, err)
				}
			}
		})
	}
}

// TestKeyScopeMintsDistinctKeys: a scoped DB mints "_rowid_<n>@scope",
// only its own scope's replicated keys move its counter, and a foreign
// scope's key of the same n is a different row.
func TestKeyScopeMintsDistinctKeys(t *testing.T) {
	db := Open()
	db.SetKeyScope("a")
	mustExec(t, db, "CREATE TABLE log (msg TEXT)")
	if res := mustExec(t, db, "INSERT INTO log (msg) VALUES ('one')"); res.LastKey != "_rowid_1@a" {
		t.Fatalf("first scoped key = %q, want _rowid_1@a", res.LastKey)
	}
	for key, msg := range map[string]string{"_rowid_5@a": "own", "_rowid_9@b": "foreign", "_rowid_7": "unscoped"} {
		if err := db.PutRow("log", key, map[string]any{"msg": msg}); err != nil {
			t.Fatal(err)
		}
	}
	if res := mustExec(t, db, "INSERT INTO log (msg) VALUES ('next')"); res.LastKey != "_rowid_6@a" {
		t.Fatalf("key after replicated _rowid_5@a = %q, want _rowid_6@a", res.LastKey)
	}
	if n, _ := db.RowCount("log"); n != 5 {
		t.Fatalf("log rows = %d, want 5", n)
	}
}

// lookupKey is lookup with the found key spelled out.
func (t *tableData) lookupKey(where expr, args []any) (key string, found, exact bool) {
	var ps probeSet
	i, found, exact := t.lookup(where, args, &ps)
	if found {
		key = ps.key(i)
	}
	return key, found, exact
}
