package httpapp_test

import (
	"fmt"
	"net/http"
	"testing"

	"repro/internal/httpapp"
	"repro/internal/workload"
)

// newBookworm returns the bookworm app with books 1..n, each with stock
// to spare.
func newBookworm(tb testing.TB, n int) *httpapp.App {
	tb.Helper()
	sub := workload.Bookworm()
	app, err := httpapp.New(sub.Name, sub.Source, sub.Routes())
	if err != nil {
		tb.Fatal(err)
	}
	for id := 6; id <= n; id++ {
		if _, err := app.DB().Exec("INSERT INTO books (id, title, author, stock, loans) VALUES (?, ?, ?, ?, 0)",
			id, fmt.Sprintf("Book %d", id), fmt.Sprintf("Author %d", id%37), 1000); err != nil {
			tb.Fatal(err)
		}
	}
	return app
}

// TestPointReadAllocs pins what one bookworm GET /books/:id allocates
// through App.InvokeRead: the req and res objects, the param and
// number boxes, the one result row with its list, and the JSON body.
func TestPointReadAllocs(t *testing.T) {
	app := newBookworm(t, 500)
	req := &httpapp.Request{Method: "GET", Path: "/books/321"}
	allocs := testing.AllocsPerRun(100, func() {
		resp, _, err := app.InvokeRead(req)
		if err != nil || resp.Status != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", req.Path, resp.Status, err)
		}
	})
	// 37 before req and res shared their method tables, the route was
	// walked once and sqldb answered point selects directly.
	if want := 13.0; allocs > want {
		t.Fatalf("GET /books/:id through InvokeRead allocated %.0f times, want ≤ %.0f", allocs, want)
	}
}

// TestCheckoutAllocs pins what one bookworm POST /checkout allocates
// through App.Invoke, JSON body decoding and the UPDATE's mutation
// record included.
func TestCheckoutAllocs(t *testing.T) {
	app := newBookworm(t, 500)
	req := &httpapp.Request{Method: "POST", Path: "/checkout", Body: []byte(`{"id": 321}`)}
	allocs := testing.AllocsPerRun(100, func() {
		resp, _, err := app.Invoke(req)
		if err != nil || resp.Status != http.StatusOK {
			t.Fatalf("POST %s: status %d, %v", req.Path, resp.Status, err)
		}
	})
	if want := 30.0; allocs > want { // 50 before
		t.Fatalf("POST /checkout through Invoke allocated %.0f times, want ≤ %.0f", allocs, want)
	}
}
