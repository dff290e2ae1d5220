package httpapp_test

import (
	"fmt"
	"net/http"
	"testing"

	"repro/internal/httpapp"
	"repro/internal/workload"
)

// BenchmarkServeRead serves GET /books/:id on the bookworm app with 500
// books, as an edge serves a read: classify the request, then run it on
// a write-guarded reader through the VM and sqldb, and encode the JSON
// response.
func BenchmarkServeRead(b *testing.B) {
	const books = 500
	sub := workload.Bookworm()
	app, err := httpapp.New(sub.Name, sub.Source, sub.Routes())
	if err != nil {
		b.Fatal(err)
	}
	for id := 6; id <= books; id++ {
		if _, err := app.DB().Exec("INSERT INTO books (id, title, author, stock, loans) VALUES (?, ?, ?, ?, 0)",
			id, fmt.Sprintf("Book %d", id), fmt.Sprintf("Author %d", id%37), 1000); err != nil {
			b.Fatal(err)
		}
	}
	reqs := make([]*httpapp.Request, books)
	for i := range reqs {
		reqs[i] = &httpapp.Request{Method: "GET", Path: fmt.Sprintf("/books/%d", i+1)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := reqs[i%books]
		if !app.RequestReadOnly(req) {
			b.Fatalf("%s %s is not classified read-only", req.Method, req.Path)
		}
		resp, _, err := app.InvokeRead(req)
		if err != nil || resp.Status != http.StatusOK || len(resp.Body) == 0 {
			b.Fatalf("%s: status %d, %v", req.Path, resp.Status, err)
		}
	}
}
