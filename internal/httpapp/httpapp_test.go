package httpapp

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

const bookSrc = `
var hits = 0

func init() any {
	db.exec("CREATE TABLE books (id INT PRIMARY KEY, title TEXT, stock INT)")
	db.exec("INSERT INTO books (id, title, stock) VALUES (1, 'SICP', 3), (2, 'TAPL', 1)")
	fs.write("motd.txt", "welcome")
	return nil
}

func listBooks(req any, res any) any {
	hits = hits + 1
	rows := db.query("SELECT * FROM books ORDER BY id")
	res.send(rows)
	return nil
}

func getBook(req any, res any) any {
	id := req.param("id")
	rows := db.query("SELECT * FROM books WHERE id = ?", num(id))
	if len(rows) == 0 {
		res.status(404)
		res.send("not found")
		return nil
	}
	res.send(rows[0])
	return nil
}

func buyBook(req any, res any) any {
	body := req.json()
	id := body["id"]
	db.exec("UPDATE books SET stock = stock - 1 WHERE id = ?", id)
	rows := db.query("SELECT stock FROM books WHERE id = ?", id)
	res.send(rows[0])
	return nil
}

func motd(req any, res any) any {
	res.send(bytes.toString(fs.read("motd.txt")))
	return nil
}

func boom(req any, res any) any {
	return fail("service exploded")
}`

var bookRoutes = []Route{
	{Method: "GET", Path: "/books", Handler: "listBooks"},
	{Method: "GET", Path: "/books/:id", Handler: "getBook"},
	{Method: "POST", Path: "/buy", Handler: "buyBook"},
	{Method: "GET", Path: "/motd", Handler: "motd"},
	{Method: "GET", Path: "/boom", Handler: "boom"},
}

func newBookApp(t *testing.T) *App {
	t.Helper()
	app, err := New("bookworm", bookSrc, bookRoutes)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestInvokeList(t *testing.T) {
	app := newBookApp(t)
	resp, cost, err := app.Invoke(&Request{Method: "GET", Path: "/books"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	if cost <= 0 {
		t.Fatalf("cost = %v, want > 0", cost)
	}
	var rows []map[string]any
	if err := json.Unmarshal(resp.Body, &rows); err != nil {
		t.Fatalf("body %q: %v", resp.Body, err)
	}
	if len(rows) != 2 || rows[0]["title"] != "SICP" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestPathParams(t *testing.T) {
	app := newBookApp(t)
	resp, _, err := app.Invoke(&Request{Method: "GET", Path: "/books/2"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Body), "TAPL") {
		t.Fatalf("body = %s", resp.Body)
	}
	resp, _, err = app.Invoke(&Request{Method: "GET", Path: "/books/99"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 404 {
		t.Fatalf("status = %d, want 404", resp.Status)
	}
}

func TestPostJSONBodyMutatesState(t *testing.T) {
	app := newBookApp(t)
	resp, _, err := app.Invoke(&Request{
		Method: "POST", Path: "/buy", Body: []byte(`{"id": 1}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Body), "2") {
		t.Fatalf("body = %s", resp.Body)
	}
	n, err := app.DB().RowCount("books")
	if err != nil || n != 2 {
		t.Fatalf("RowCount = %d, %v", n, err)
	}
}

func TestFilesystemHandler(t *testing.T) {
	app := newBookApp(t)
	resp, _, err := app.Invoke(&Request{Method: "GET", Path: "/motd"})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != `"welcome"` {
		t.Fatalf("body = %s", resp.Body)
	}
}

func TestHandlerErrorGives500(t *testing.T) {
	app := newBookApp(t)
	resp, _, err := app.Invoke(&Request{Method: "GET", Path: "/boom"})
	if err == nil {
		t.Fatal("handler error not surfaced")
	}
	if resp.Status != 500 {
		t.Fatalf("status = %d, want 500", resp.Status)
	}
}

func TestNoRoute(t *testing.T) {
	app := newBookApp(t)
	_, _, err := app.Invoke(&Request{Method: "GET", Path: "/nope"})
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
	_, _, err = app.Invoke(&Request{Method: "DELETE", Path: "/books"})
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("method mismatch err = %v, want ErrNoRoute", err)
	}
}

func TestGlobalStatePersistsAcrossInvocations(t *testing.T) {
	app := newBookApp(t)
	for i := 0; i < 3; i++ {
		if _, _, err := app.Invoke(&Request{Method: "GET", Path: "/books"}); err != nil {
			t.Fatal(err)
		}
	}
	v, _ := app.Interp().GetGlobal("hits")
	if v != 3.0 {
		t.Fatalf("hits = %v, want 3", v)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	app := newBookApp(t)
	if _, _, err := app.Invoke(&Request{Method: "POST", Path: "/buy", Body: []byte(`{"id": 1}`)}); err != nil {
		t.Fatal(err)
	}
	clone, err := app.Clone()
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := clone.Invoke(&Request{Method: "GET", Path: "/books/1"})
	if err != nil {
		t.Fatal(err)
	}
	// Clone re-ran init: stock back at 3.
	if !strings.Contains(string(resp.Body), `"stock":3`) {
		t.Fatalf("clone body = %s", resp.Body)
	}
}

func TestUnknownHandlerRejectedAtConstruction(t *testing.T) {
	_, err := New("x", `func f(req any, res any) any { return nil }`, []Route{
		{Method: "GET", Path: "/", Handler: "missing"},
	})
	if err == nil {
		t.Fatal("unknown handler accepted")
	}
}

func TestServeHTTP(t *testing.T) {
	app := newBookApp(t)
	srv := httptest.NewServer(app)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/books/1?verbose=yes")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Error(err)
		}
	}()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var row map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&row); err != nil {
		t.Fatal(err)
	}
	if row["title"] != "SICP" {
		t.Fatalf("row = %v", row)
	}

	nf, err := srv.Client().Get(srv.URL + "/ghost")
	if err != nil {
		t.Fatal(err)
	}
	if err := nf.Body.Close(); err != nil {
		t.Error(err)
	}
	if nf.StatusCode != 404 {
		t.Fatalf("status = %d, want 404", nf.StatusCode)
	}
}

// abortWriter models a client that hangs up before reading the response
// body: headers go through, the body write fails.
type abortWriter struct {
	hdr    http.Header
	status int
}

func (w *abortWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}
func (w *abortWriter) WriteHeader(code int)      { w.status = code }
func (w *abortWriter) Write([]byte) (int, error) { return 0, errors.New("client hung up") }

func TestServeHTTPWriteErrorCounted(t *testing.T) {
	app := newBookApp(t)
	if got := app.WriteErrors(); got != 0 {
		t.Fatalf("fresh app WriteErrors = %d", got)
	}

	w := &abortWriter{}
	app.ServeHTTP(w, httptest.NewRequest("GET", "/books/1", nil))
	if w.status != 200 {
		t.Fatalf("handler status = %d, want 200", w.status)
	}
	if got := app.WriteErrors(); got != 1 {
		t.Fatalf("WriteErrors after aborted write = %d, want 1", got)
	}

	// A successful write does not count.
	rec := httptest.NewRecorder()
	app.ServeHTTP(rec, httptest.NewRequest("GET", "/books/1", nil))
	if rec.Code != 200 {
		t.Fatalf("recorder status = %d", rec.Code)
	}
	if got := app.WriteErrors(); got != 1 {
		t.Fatalf("WriteErrors after clean write = %d, want 1", got)
	}
}

func TestRequestSizeAndClone(t *testing.T) {
	req := &Request{Method: "POST", Path: "/x", Query: map[string]string{"a": "b"}, Body: []byte("123")}
	if req.Size() <= 0 {
		t.Fatal("Size = 0")
	}
	cp := req.Clone()
	cp.Body[0] = 'X'
	cp.Query["a"] = "z"
	if req.Body[0] != '1' || req.Query["a"] != "b" {
		t.Fatal("Clone shares state")
	}
}

// TestMatchPath pins route matching: slashes at either end are ignored,
// the segment counts must agree, and ":name" captures one segment, empty
// included.
func TestMatchPath(t *testing.T) {
	cases := []struct {
		pattern, path string
		ok            bool
		params        map[string]string
	}{
		{"/books", "/books", true, map[string]string{}},
		{"/books", "/books/", true, map[string]string{}},
		{"/books/", "books", true, map[string]string{}},
		{"//books//", "/books", true, map[string]string{}},
		{"/books", "/book", false, nil},
		{"/", "/", true, map[string]string{}},
		{"/", "", true, map[string]string{}},
		{"", "/", true, map[string]string{}},
		{"/books", "", false, nil},
		{"/books/:id", "/books/17", true, map[string]string{"id": "17"}},
		{"/books/:id", "/books/17/", true, map[string]string{"id": "17"}},
		{"/books/:id", "/books", false, nil},
		{"/books/:id", "/books/17/loans", false, nil},
		{"/books/:id/loans", "/books/17", false, nil},
		{"/:id", "/", true, map[string]string{"id": ""}},
		{"/a/:x/b/:y", "/a/1/b/2", true, map[string]string{"x": "1", "y": "2"}},
		{"/a/:x/b/:y", "/a/1/c/2", false, nil},
		{"/a/:x", "/a//", false, nil},
		{"/a/:x/c", "/a//c", true, map[string]string{"x": ""}},
		{"/a/b", "/a//b", false, nil},
		{"/x/:id", "/x/a:b", true, map[string]string{"id": "a:b"}},
		{"/:", "/v", true, map[string]string{"": "v"}},
		{"/:a/:b/:c/:d/:e/:a", "/1/2/3/4/5/6", true, map[string]string{"a": "6", "b": "2", "c": "3", "d": "4", "e": "5"}},
	}
	for _, c := range cases {
		params, ok := matchPath(c.pattern, c.path)
		if ok != c.ok {
			t.Errorf("matchPath(%q, %q) ok = %v, want %v", c.pattern, c.path, ok, c.ok)
			continue
		}
		if len(params) != len(c.params) || (params == nil) != (c.params == nil) {
			t.Errorf("matchPath(%q, %q) = %v, want %v", c.pattern, c.path, params, c.params)
			continue
		}
		for k, v := range c.params {
			if params[k] != v {
				t.Errorf("matchPath(%q, %q)[%q] = %q, want %q", c.pattern, c.path, k, params[k], v)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { matchPath("/books/:id/loans", "/books/17") }); n != 0 {
		t.Errorf("a route that does not match allocates %v times, want 0", n)
	}
}

func BenchmarkInvoke(b *testing.B) {
	app, err := New("bookworm", bookSrc, bookRoutes)
	if err != nil {
		b.Fatal(err)
	}
	req := &Request{Method: "GET", Path: "/books"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := app.Invoke(req); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRequestObjectSurface(t *testing.T) {
	src := `
func echo(req any, res any) any {
	tv := map[string]any{
		"method": req.method(),
		"path":   req.path(),
		"q":      req.query(),
		"text":   req.text(),
	}
	res.send(tv)
	return nil
}`
	app, err := New("e", src, []Route{{Method: "POST", Path: "/echo", Handler: "echo"}})
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := app.Invoke(&Request{
		Method: "POST", Path: "/echo",
		Query: map[string]string{"a": "1"},
		Body:  []byte("hello"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(resp.Body, &got); err != nil {
		t.Fatal(err)
	}
	if got["method"] != "POST" || got["path"] != "/echo" || got["text"] != "hello" {
		t.Fatalf("got = %v", got)
	}
	if q, ok := got["q"].(map[string]any); !ok || q["a"] != "1" {
		t.Fatalf("q = %v", got["q"])
	}
}

func TestBadJSONBodyErrors(t *testing.T) {
	src := `
func f(req any, res any) any {
	res.send(req.json())
	return nil
}`
	app, err := New("j", src, []Route{{Method: "POST", Path: "/f", Handler: "f"}})
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := app.Invoke(&Request{Method: "POST", Path: "/f", Body: []byte("{broken")})
	if err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if resp.Status != 500 {
		t.Fatalf("status = %d", resp.Status)
	}
}

func TestSendBytesRaw(t *testing.T) {
	src := `
func f(req any, res any) any {
	res.sendBytes(bytes.fromString("raw-payload"))
	return nil
}
func g(req any, res any) any {
	res.sendBytes("not bytes")
	return nil
}`
	app, err := New("b", src, []Route{
		{Method: "GET", Path: "/f", Handler: "f"},
		{Method: "GET", Path: "/g", Handler: "g"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := app.Invoke(&Request{Method: "GET", Path: "/f"})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "raw-payload" {
		t.Fatalf("body = %q (sendBytes must skip JSON encoding)", resp.Body)
	}
	if _, _, err := app.Invoke(&Request{Method: "GET", Path: "/g"}); err == nil {
		t.Fatal("sendBytes of non-bytes accepted")
	}
}

func TestFSListBuiltin(t *testing.T) {
	src := `
func init() any {
	fs.write("a/1.txt", "x")
	fs.write("a/2.txt", "y")
	fs.write("b/3.txt", "z")
	return nil
}
func f(req any, res any) any {
	res.send(fs.list("a/"))
	return nil
}`
	app, err := New("l", src, []Route{{Method: "GET", Path: "/f", Handler: "f"}})
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := app.Invoke(&Request{Method: "GET", Path: "/f"})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != `["a/1.txt","a/2.txt"]` {
		t.Fatalf("body = %s", resp.Body)
	}
}

func TestDBErrorPropagatesToHandler(t *testing.T) {
	src := `
func f(req any, res any) any {
	res.send(db.query("SELECT * FROM missing_table"))
	return nil
}`
	app, err := New("d", src, []Route{{Method: "GET", Path: "/f", Handler: "f"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := app.Invoke(&Request{Method: "GET", Path: "/f"}); err == nil {
		t.Fatal("SQL error did not propagate")
	}
}

func TestInitFailureRejectsApp(t *testing.T) {
	src := `
func init() any {
	return fail("boom at init")
}
func f(req any, res any) any { res.send(1); return nil }`
	if _, err := New("bad", src, []Route{{Method: "GET", Path: "/f", Handler: "f"}}); err == nil {
		t.Fatal("app with failing init accepted")
	}
	if _, err := New("unparsable", "func {", nil); err == nil {
		t.Fatal("unparsable source accepted")
	}
}
