package sqldb

import (
	"fmt"
	"sync"
	"testing"
)

// cachedStmts counts the entries of db's statement cache.
func cachedStmts(db *DB) int {
	n := 0
	db.stmts.m.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

// TestStmtCacheConcurrentReaders runs many readers of one cached text
// against a writer updating the rows they read. Run it under -race: the
// cached statement is shared by every reader.
func TestStmtCacheConcurrentReaders(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CREATE TABLE books (id INT PRIMARY KEY, stock INT)"); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 8; id++ {
		if _, err := db.Exec("INSERT INTO books (id, stock) VALUES (?, ?)", id, 100); err != nil {
			t.Fatal(err)
		}
	}
	const (
		readers = 8
		reads   = 300
		writes  = 300
	)
	before := StmtsParsed()
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				id := 1 + (r+i)%8
				res, err := db.ExecReadOnly("SELECT id, stock FROM books WHERE id = ?", id)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 1 || res.Rows[0]["id"] != int64(id) {
					errs <- fmt.Errorf("read of id %d returned %v", id, res.Rows)
					return
				}
				// Rows are the caller's: modifying one must not reach the
				// table or another reader.
				res.Rows[0]["stock"] = "scribbled"
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			if _, err := db.Exec("UPDATE books SET stock = stock - 1 WHERE id = ?", 1+i%8); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT sum(stock) FROM books")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Rows[0]["sum(stock)"], float64(8*100-writes); got != want {
		t.Fatalf("sum(stock) = %v, want %v", got, want)
	}
	// Readers that miss together may each parse; after that every call
	// is a hit.
	if n := StmtsParsed() - before; n > readers+2 {
		t.Fatalf("%d parses for %d distinct texts", n, 2)
	}
}

// TestStmtCacheBounded runs more distinct texts than the cache holds and
// checks that every answer stays right, the cache stays within its
// bound, and a text that fails to parse is never cached.
func TestStmtCacheBounded(t *testing.T) {
	db := newLogsDB(t)
	for i := 0; i < 3*stmtCacheSize+7; i++ {
		id := 1 + i%2
		q := fmt.Sprintf("SELECT msg FROM logs WHERE id = %d AND %d = %d", id, i, i)
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if want := []string{"a", "b"}[id-1]; len(res.Rows) != 1 || res.Rows[0]["msg"] != want {
			t.Fatalf("%s: rows = %v, want msg %q", q, res.Rows, want)
		}
		if n := cachedStmts(db); n > stmtCacheSize {
			t.Fatalf("cache holds %d statements, bound %d", n, stmtCacheSize)
		}
	}

	const bad = "SELECT FROM WHERE"
	before := StmtsParsed()
	_, err1 := db.ExecReadOnly(bad)
	_, err2 := db.ExecReadOnly(bad)
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("errors = %v, %v; want the same parse error twice", err1, err2)
	}
	if _, ok := db.stmts.m.Load(bad); ok {
		t.Fatal("a text that failed to parse was cached")
	}
	if n := StmtsParsed() - before; n != 2 {
		t.Fatalf("failing text parsed %d times in two calls, want 2", n)
	}
}

// TestSelectRowsOwnTheirBytes checks that a result row shares no memory
// with the table: the caller may modify what it gets back.
func TestSelectRowsOwnTheirBytes(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CREATE TABLE blobs (id INT PRIMARY KEY, data BLOB)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO blobs (id, data) VALUES (?, ?)", 1, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"SELECT * FROM blobs", "SELECT data FROM blobs", "SELECT max(data) FROM blobs"} {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Rows[0] {
			if b, ok := v.([]byte); ok {
				b[0] = 'X'
			}
		}
		again, err := db.Exec("SELECT data FROM blobs")
		if err != nil {
			t.Fatal(err)
		}
		if got := string(again.Rows[0]["data"].([]byte)); got != "abc" {
			t.Fatalf("%s: writing to the result changed the table to %q", q, got)
		}
	}
}
