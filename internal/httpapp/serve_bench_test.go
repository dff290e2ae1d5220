package httpapp_test

import (
	"fmt"
	"net/http"
	"testing"

	"repro/internal/httpapp"
)

// BenchmarkServeRead serves GET /books/:id on the bookworm app with 500
// books, as an edge serves a read (cluster.Server.Invoke): resolve the
// route once, classify the match, then run it on a write-guarded reader
// through the VM and sqldb, and encode the JSON response.
func BenchmarkServeRead(b *testing.B) {
	const books = 500
	app := newBookworm(b, books)
	reqs := make([]*httpapp.Request, books)
	for i := range reqs {
		reqs[i] = &httpapp.Request{Method: "GET", Path: fmt.Sprintf("/books/%d", i+1)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveRead(b, app, reqs[i%books])
	}
}

// serveRead serves req as cluster.Server.Invoke serves a read: one
// route walk into a Match, the classification of that match, and the
// read-only invocation of it.
func serveRead(b *testing.B, app *httpapp.App, req *httpapp.Request) {
	var m httpapp.Match
	if err := app.Resolve(req, &m); err != nil {
		b.Fatalf("%s %s: %v", req.Method, req.Path, err)
	}
	if !app.MatchReadOnly(req, &m) {
		b.Fatalf("%s %s is not classified read-only", req.Method, req.Path)
	}
	resp, _, err := app.InvokeReadMatch(req, &m)
	if err != nil || resp.Status != http.StatusOK || len(resp.Body) == 0 {
		b.Fatalf("%s: status %d, %v", req.Path, resp.Status, err)
	}
}

// BenchmarkServePopular serves GET /popular on the same 500 books, whose
// loan counts spread over 0..100 with ties: SELECT title, loans ... ORDER
// BY loans DESC LIMIT 3 scans every row and keeps the top three.
func BenchmarkServePopular(b *testing.B) {
	const books = 500
	app := newBookworm(b, books)
	if _, err := app.DB().Exec("UPDATE books SET loans = (id * 37) % 101"); err != nil {
		b.Fatal(err)
	}
	req := &httpapp.Request{Method: "GET", Path: "/popular"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveRead(b, app, req)
	}
}
