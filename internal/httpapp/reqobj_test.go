package httpapp_test

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/httpapp"
)

const keepReqSrc = `
func init() any {
	db.exec("CREATE TABLE kv (k TEXT PRIMARY KEY, v INT)")
	db.exec("INSERT INTO kv (k, v) VALUES ('a', 1)")
	return nil
}

func show(req any, res any) any {
	r := req
	f := req.param
	n := depth(3)
	rows := db.query("SELECT v FROM kv WHERE k = ?", f("k"))
	res.status(201)
	res.send(map[string]any{"k": r.param("k"), "q": r.param("q"), "n": n, "rows": rows, "path": r.path()})
	return nil
}

func depth(n any) any {
	if n <= 0 {
		return 0
	}
	return 1 + depth(n-1)
}
`

// TestHandlerKeepsReqPastNestedCall keeps req, and a method value of
// it, in locals across a nested script call and a db call, then sets
// the status before sending — on the write path and the read path, and
// on both evaluators.
func TestHandlerKeepsReqPastNestedCall(t *testing.T) {
	const want = `{"k":"a","n":3,"path":"/kv/a","q":"x","rows":[{"v":1}]}`
	for _, ref := range []bool{false, true} {
		app, err := httpapp.New("keep", keepReqSrc, []httpapp.Route{{Method: "GET", Path: "/kv/:k", Handler: "show"}})
		if err != nil {
			t.Fatal(err)
		}
		app.Interp().SetReferenceEval(ref)
		req := &httpapp.Request{Method: "GET", Path: "/kv/a", Query: map[string]string{"q": "x"}}
		for name, invoke := range map[string]func(*httpapp.Request) (*httpapp.Response, float64, error){
			"Invoke": app.Invoke, "InvokeRead": app.InvokeRead,
		} {
			resp, _, err := invoke(req)
			if err != nil {
				t.Fatalf("%s (reference eval %v): %v", name, ref, err)
			}
			if resp.Status != 201 || string(resp.Body) != want {
				t.Fatalf("%s (reference eval %v): %d %s, want 201 %s", name, ref, resp.Status, resp.Body, want)
			}
		}
	}
}

// TestConcurrentReadsKeepTheirOwnRequest runs point reads of distinct
// books on concurrent readers: the req and res method tables are
// shared, so each answer must still be its own request's.
func TestConcurrentReadsKeepTheirOwnRequest(t *testing.T) {
	const books, workers, reads = 50, 4, 200
	app := newBookworm(t, books)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				id := 1 + (w*reads+i)%books
				resp, _, err := app.InvokeRead(&httpapp.Request{Method: "GET", Path: fmt.Sprintf("/books/%d", id)})
				if err == nil && (resp.Status != http.StatusOK || !strings.Contains(string(resp.Body), fmt.Sprintf(`"id":%d,`, id))) {
					err = fmt.Errorf("GET /books/%d: %d %s", id, resp.Status, resp.Body)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestParamsPastInline reads :params past the four a Match holds
// inline, a repeated name answering with its last capture.
func TestParamsPastInline(t *testing.T) {
	src := `func h(req any, res any) any {
	res.send(req.param("a") + req.param("b") + req.param("e") + req.param("f"))
	return nil
}`
	app, err := httpapp.New("many", src, []httpapp.Route{{Method: "GET", Path: "/:a/:b/:c/:d/:e/:f/:a", Handler: "h"}})
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := app.Invoke(&httpapp.Request{Method: "GET", Path: "/1/2/3/4/5/6/7"})
	if err != nil || string(resp.Body) != `"7256"` {
		t.Fatalf("got %s, %v; want \"7256\"", resp.Body, err)
	}
}
