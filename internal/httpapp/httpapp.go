// Package httpapp is a small Express-like framework for services written
// in the script dialect. A service App binds HTTP routes (verb + path
// pattern) to script handler functions and provides the native objects
// the paper's Node.js services rely on: req/res for unmarshaling and
// marshaling, db for SQL state, and fs for file state.
//
// Apps can be driven two ways: in-process via Invoke (used by the
// simulator and by the EdgStr analysis pipeline) and over real HTTP via
// ServeHTTP (used by the live traffic-capture step).
package httpapp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/script"
	"repro/internal/sqldb"
	"repro/internal/vfs"
)

// ErrNoRoute is returned when no route matches a request.
var ErrNoRoute = errors.New("httpapp: no matching route")

// ErrWriteGuard is script.ErrWriteGuard re-exported: an InvokeRead
// error wraps it when the handler attempted a shared-state write, and
// the caller must re-run the request through Invoke.
var ErrWriteGuard = script.ErrWriteGuard

// Route binds an HTTP method and path pattern to a script function.
// Path patterns support ":name" parameter segments ("/books/:id").
type Route struct {
	Method string `json:"method"`
	Path   string `json:"path"`
	// Handler names the script function invoked as handler(req, res).
	Handler string `json:"handler"`
}

// String renders "GET /path".
func (r Route) String() string { return r.Method + " " + r.Path }

// Request is an in-process HTTP request.
type Request struct {
	Method string
	Path   string
	// Query holds query/form parameters.
	Query map[string]string
	// Body is the raw request payload.
	Body []byte
}

// Size returns the request's approximate wire size in bytes.
func (r *Request) Size() int {
	n := len(r.Method) + len(r.Path) + len(r.Body)
	for k, v := range r.Query {
		n += len(k) + len(v) + 2
	}
	return n
}

// Clone returns an independent copy of the request.
func (r *Request) Clone() *Request {
	cp := &Request{Method: r.Method, Path: r.Path, Query: make(map[string]string, len(r.Query))}
	for k, v := range r.Query {
		cp.Query[k] = v
	}
	cp.Body = append([]byte(nil), r.Body...)
	return cp
}

// Response is an in-process HTTP response.
type Response struct {
	Status int
	// Body is the marshaled payload (JSON encoding of Value, or raw
	// bytes for SendBytes).
	Body []byte
	// Value is the script value passed to res.send, before marshaling.
	Value any
}

// Size returns the response's approximate wire size in bytes.
func (r *Response) Size() int { return len(r.Body) }

// App is one service instance: a script program with its routes and
// native state (database, filesystem). Mutating handler invocations are
// serialized, mirroring the single-threaded Node.js event loop;
// invocations classified as read-only may run concurrently through
// InvokeRead, which holds the app lock in shared mode.
type App struct {
	name   string
	source string
	routes []Route
	// routeKeys holds Route.String() of each route, the key of the
	// read-only classification maps.
	routeKeys []string
	// patterns holds each route's path pattern without its outer
	// slashes, and paramNames its :param names, in pattern order.
	patterns   []string
	paramNames [][]string

	mu     sync.RWMutex
	prog   *script.Program
	interp *script.Interp
	db     *sqldb.DB
	fs     *vfs.FS

	// readOnly is the analysis-derived per-route classification keyed by
	// Route.String(); staticReadOnly is the construction-time fallback
	// derived from the program text. Both are written before serving
	// starts and read-only afterwards.
	readOnly       map[string]bool
	staticReadOnly map[string]bool

	// readers pools write-guarded reader forks for InvokeRead.
	readerMu sync.Mutex
	readers  []*script.Interp

	// writeErrors counts ServeHTTP responses whose body write failed
	// (typically a client that hung up before reading) — those requests
	// executed but were never actually served.
	writeErrors atomic.Int64
}

// WriteErrors reports how many ServeHTTP response bodies failed to reach
// the client.
func (a *App) WriteErrors() int64 { return a.writeErrors.Load() }

// Option configures an App.
type Option func(*App)

// WithDB installs an existing database instead of a fresh one.
func WithDB(db *sqldb.DB) Option { return func(a *App) { a.db = db } }

// WithFS installs an existing filesystem instead of a fresh one.
func WithFS(fs *vfs.FS) Option { return func(a *App) { a.fs = fs } }

// New parses source, installs the native objects, and evaluates the
// app's init step (global declarations, then the optional init()
// function, which typically creates tables and seeds files).
func New(name, source string, routes []Route, opts ...Option) (*App, error) {
	prog, err := script.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("httpapp %q: %w", name, err)
	}
	for _, rt := range routes {
		if _, ok := prog.Funcs[rt.Handler]; !ok {
			return nil, fmt.Errorf("httpapp %q: route %s names unknown handler %q", name, rt, rt.Handler)
		}
	}
	a := &App{name: name, source: source, routes: append([]Route(nil), routes...), prog: prog}
	a.routeKeys = make([]string, len(a.routes))
	a.patterns = make([]string, len(a.routes))
	a.paramNames = make([][]string, len(a.routes))
	for i, rt := range a.routes {
		a.routeKeys[i] = rt.String()
		a.patterns[i] = strings.Trim(rt.Path, "/")
		a.paramNames[i] = paramNames(rt.Path)
	}
	for _, opt := range opts {
		opt(a)
	}
	if a.db == nil {
		a.db = sqldb.Open()
	}
	if a.fs == nil {
		a.fs = vfs.New()
	}
	a.interp = script.New(prog)
	a.interp.Register("db", DBObject(a.db))
	a.interp.Register("fs", FSObject(a.fs))
	if err := a.interp.RunInit(); err != nil {
		return nil, fmt.Errorf("httpapp %q: init: %w", name, err)
	}
	if _, ok := prog.Funcs["init"]; ok {
		if _, err := a.interp.Call("init"); err != nil {
			return nil, fmt.Errorf("httpapp %q: init(): %w", name, err)
		}
	}
	a.staticReadOnly = classifyRoutes(prog, a.routes)
	return a, nil
}

// Name returns the app's name.
func (a *App) Name() string { return a.name }

// Source returns the script source.
func (a *App) Source() string { return a.source }

// Routes returns the app's routes.
func (a *App) Routes() []Route { return append([]Route(nil), a.routes...) }

// Program returns the parsed program.
func (a *App) Program() *script.Program { return a.prog }

// Interp exposes the interpreter (for analysis hooks and state capture).
// Callers must not invoke it concurrently with Invoke.
func (a *App) Interp() *script.Interp { return a.interp }

// DB returns the app's database.
func (a *App) DB() *sqldb.DB { return a.db }

// FS returns the app's filesystem.
func (a *App) FS() *vfs.FS { return a.fs }

// Clone builds a fresh instance of the same app (own interpreter, own
// database, own filesystem), re-running initialization — the starting
// point for an edge replica before state is loaded into it.
func (a *App) Clone() (*App, error) {
	return New(a.name, a.source, a.routes)
}

// Lookup finds the route matching method and path and returns it with
// any extracted path parameters.
func (a *App) Lookup(method, path string) (Route, map[string]string, error) {
	var m Match
	if err := a.Resolve(&Request{Method: method, Path: path}, &m); err != nil {
		return Route{}, nil, err
	}
	return a.routes[m.route], m.paramMap(a.paramNames[m.route]), nil
}

// inlineParams is how many :param captures a Match holds without
// allocating.
const inlineParams = 4

// Match is a request resolved to its route: which route matched, and
// the values its :param segments captured, in pattern order. Resolve
// fills it with one walk of the route table; InvokeMatch,
// InvokeReadMatch and MatchReadOnly take it instead of walking again.
// The zero Match resolves nothing.
type Match struct {
	app   *App
	route int
	n     int
	vals  [inlineParams]string
	more  []string // captures past inlineParams
}

// reset empties m. It drops rather than reuses more, which a req
// object built from m may still hold.
func (m *Match) reset() {
	m.app, m.n, m.more = nil, 0, nil
}

func (m *Match) capture(v string) {
	if m.n < inlineParams {
		m.vals[m.n] = v
	} else {
		m.more = append(m.more, v)
	}
	m.n++
}

func (m *Match) param(i int) string {
	if i < inlineParams {
		return m.vals[i]
	}
	return m.more[i-inlineParams]
}

// named returns the capture of the route's :name segment (the last
// one, if the name repeats).
func (m *Match) named(name string) (string, bool) {
	names := m.app.paramNames[m.route]
	for i := len(names) - 1; i >= 0; i-- {
		if names[i] == name {
			return m.param(i), true
		}
	}
	return "", false
}

// paramMap returns the captures keyed by names, the route's :param
// names in pattern order; a repeated name keeps its last capture.
func (m *Match) paramMap(names []string) map[string]string {
	params := make(map[string]string, m.n)
	for i, name := range names {
		params[name] = m.param(i)
	}
	return params
}

// Resolve finds the first route matching req's method and path and
// fills m with it and its captured parameters. It allocates nothing
// unless it fails or the route has more than four parameters.
func (a *App) Resolve(req *Request, m *Match) error {
	path := strings.Trim(req.Path, "/")
	for i, rt := range a.routes {
		if m.n > 0 {
			m.reset()
		}
		if strings.EqualFold(rt.Method, req.Method) && walkPath(a.patterns[i], path, m) {
			m.app, m.route = a, i
			return nil
		}
	}
	m.reset()
	return noRoute(req)
}

func noRoute(req *Request) error {
	return fmt.Errorf("%w: %s %s", ErrNoRoute, req.Method, req.Path)
}

// paramNames lists the :param names of a route pattern, in order.
func paramNames(pattern string) []string {
	var names []string
	for _, seg := range strings.Split(strings.Trim(pattern, "/"), "/") {
		if name, ok := strings.CutPrefix(seg, ":"); ok {
			names = append(names, name)
		}
	}
	return names
}

// matchPath matches a ":param" pattern against a concrete path and
// returns the captured parameters. Leading and trailing slashes are
// ignored on both sides; the pattern and the path must have the same
// number of segments.
func matchPath(pattern, path string) (map[string]string, bool) {
	var m Match
	if !walkPath(strings.Trim(pattern, "/"), strings.Trim(path, "/"), &m) {
		return nil, false
	}
	return m.paramMap(paramNames(pattern)), true
}

// walkPath compares pattern and path, both without outer slashes,
// segment by segment, capturing the value of each ":name" segment into
// m. It allocates nothing for up to inlineParams captures.
func walkPath(ps, xs string, m *Match) bool {
	for {
		p, pRest, pMore := strings.Cut(ps, "/")
		x, xRest, xMore := strings.Cut(xs, "/")
		if strings.HasPrefix(p, ":") {
			m.capture(x)
		} else if p != x {
			return false
		}
		if pMore != xMore {
			return false
		}
		if !pMore {
			return true
		}
		ps, xs = pRest, xRest
	}
}

// Invoke dispatches an in-process request to the matching handler and
// returns the response along with the metered compute cost of the
// execution (in abstract ops). Handler script errors surface as the
// returned error with a 500 response, which is what lets edge replicas
// detect failures and forward them to the cloud master.
func (a *App) Invoke(req *Request) (*Response, float64, error) {
	var m Match
	if err := a.Resolve(req, &m); err != nil {
		return &Response{Status: http.StatusNotFound}, 0, err
	}
	return a.InvokeMatch(req, &m)
}

// InvokeMatch is Invoke for a request that Resolve already matched to
// m.
func (a *App) InvokeMatch(req *Request, m *Match) (*Response, float64, error) {
	if m.app != a {
		return &Response{Status: http.StatusNotFound}, 0, noRoute(req)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.call(a.interp, req, m)
}

// InvokeRead dispatches a request that analysis classified as read-only.
// It holds the app lock in shared mode, so any number of InvokeRead
// calls proceed concurrently with each other (but never with Invoke),
// each on a pooled write-guarded interpreter fork. If the handler turns
// out to mutate shared state after all, the fork aborts before the
// write lands and the returned error wraps ErrWriteGuard — the caller
// re-runs the request through Invoke.
func (a *App) InvokeRead(req *Request) (*Response, float64, error) {
	var m Match
	if err := a.Resolve(req, &m); err != nil {
		return &Response{Status: http.StatusNotFound}, 0, err
	}
	return a.InvokeReadMatch(req, &m)
}

// InvokeReadMatch is InvokeRead for a request that Resolve already
// matched to m.
func (a *App) InvokeReadMatch(req *Request, m *Match) (*Response, float64, error) {
	if m.app != a {
		return &Response{Status: http.StatusNotFound}, 0, noRoute(req)
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	in := a.acquireReader()
	resp, cost, err := a.call(in, req, m)
	a.releaseReader(in)
	return resp, cost, err
}

// call runs m's handler on in with fresh req and res objects and
// marshals the response. The caller holds a.mu.
func (a *App) call(in *script.Interp, req *Request, m *Match) (*Response, float64, error) {
	rq := newRequestState(req, m)
	rs := newResponseState()
	before := in.Meter().Ops()
	_, err := in.Call(a.routes[m.route].Handler, &rq.obj, &rs.obj)
	cost := in.Meter().Ops() - before
	if err != nil {
		return &Response{Status: http.StatusInternalServerError}, cost, fmt.Errorf("httpapp %q: %s: %w", a.name, a.routes[m.route], err)
	}
	resp := &rs.resp
	if resp.Body == nil && resp.Value != nil {
		if err := marshalValue(resp); err != nil {
			return &Response{Status: http.StatusInternalServerError}, cost, err
		}
	}
	return resp, cost, nil
}

// acquireReader pops a pooled reader fork, minting one when the pool is
// empty. Forking is safe here because callers hold a.mu (shared or
// exclusive), which excludes concurrent global definition.
func (a *App) acquireReader() *script.Interp {
	a.readerMu.Lock()
	if n := len(a.readers); n > 0 {
		in := a.readers[n-1]
		a.readers = a.readers[:n-1]
		a.readerMu.Unlock()
		return in
	}
	a.readerMu.Unlock()
	return a.interp.ReadOnlyFork()
}

func (a *App) releaseReader(in *script.Interp) {
	a.readerMu.Lock()
	a.readers = append(a.readers, in)
	a.readerMu.Unlock()
}

// SetReadOnlyRoutes installs the analysis-derived route classification
// (keyed by Route.String()), overriding the static fallback computed at
// construction. Call before serving starts.
func (a *App) SetReadOnlyRoutes(ro map[string]bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.readOnly = ro
}

// RequestReadOnly reports whether req resolves to a route classified as
// read-only, i.e. safe for InvokeRead. Unroutable requests report false.
func (a *App) RequestReadOnly(req *Request) bool {
	var m Match
	if a.Resolve(req, &m) != nil {
		return false
	}
	return a.MatchReadOnly(req, &m)
}

// MatchReadOnly reports whether the route of m, a request Resolve
// matched on this app, is classified as read-only. It reads nothing of
// req; it takes one so it can serve as cluster.Server.ReadOnly.
func (a *App) MatchReadOnly(req *Request, m *Match) bool {
	return m.app == a && a.routeReadOnly(a.routeKeys[m.route])
}

// routeReadOnly reports the effective classification of the route whose
// Route.String() is key.
func (a *App) routeReadOnly(key string) bool {
	if a.readOnly != nil {
		if ro, ok := a.readOnly[key]; ok {
			return ro
		}
	}
	return a.staticReadOnly[key]
}

// ReadOnlyRoutes returns the effective classification for every route.
func (a *App) ReadOnlyRoutes() map[string]bool {
	out := make(map[string]bool, len(a.routes))
	for _, key := range a.routeKeys {
		out[key] = a.routeReadOnly(key)
	}
	return out
}

func marshalValue(resp *Response) error {
	b, err := appendJSON(make([]byte, 0, 128), resp.Value)
	if err != nil {
		return fmt.Errorf("httpapp: marshaling response: %w", err)
	}
	resp.Body = b
	return nil
}

// requestState is one request's script-visible req object together with
// what its methods read, in a single allocation. The method table is
// shared; each method finds its request through Call.Recv.
type requestState struct {
	obj   script.Object
	req   *Request
	match Match
}

func newRequestState(req *Request, m *Match) *requestState {
	rq := &requestState{req: req, match: *m}
	rq.obj = script.Object{Name: "req", Methods: reqMethods, Recv: rq}
	return rq
}

func recvRequest(c *script.Call) *requestState { return c.Recv.(*requestState) }

// reqMethods are the methods of every req object. They are the
// unmarshaling points the analysis identifies as service entry points.
var reqMethods = map[string]script.Builtin{
	"method": func(c *script.Call) (any, error) { return recvRequest(c).req.Method, nil },
	"path":   func(c *script.Call) (any, error) { return recvRequest(c).req.Path, nil },
	"param": func(c *script.Call) (any, error) {
		rq, name := recvRequest(c), c.StringArg(0)
		if v, ok := rq.match.named(name); ok {
			return v, nil
		}
		if v, ok := rq.req.Query[name]; ok {
			return v, nil
		}
		return nil, nil
	},
	"query": func(c *script.Call) (any, error) {
		q := recvRequest(c).req.Query
		m := make(map[string]any, len(q))
		for k, v := range q {
			m[k] = v
		}
		return m, nil
	},
	"body": func(c *script.Call) (any, error) {
		return append([]byte(nil), recvRequest(c).req.Body...), nil
	},
	"text": func(c *script.Call) (any, error) { return string(recvRequest(c).req.Body), nil },
	"json": func(c *script.Call) (any, error) {
		var v any
		if err := json.Unmarshal(recvRequest(c).req.Body, &v); err != nil {
			return nil, fmt.Errorf("req.json: %w", err)
		}
		return script.FromJSONValue(v), nil
	},
}

// responseState is one request's script-visible res object together
// with the Response it fills, in a single allocation.
type responseState struct {
	obj  script.Object
	resp Response
}

func newResponseState() *responseState {
	rs := &responseState{resp: Response{Status: http.StatusOK}}
	rs.obj = script.Object{Name: "res", Methods: resMethods, Recv: rs}
	return rs
}

func recvResponse(c *script.Call) *Response { return &c.Recv.(*responseState).resp }

// resMethods are the methods of every res object. Its send methods are
// the marshaling points the analysis identifies as service exit points.
var resMethods = map[string]script.Builtin{
	"status": func(c *script.Call) (any, error) {
		recvResponse(c).Status = int(c.NumArg(0))
		return nil, nil
	},
	"send": func(c *script.Call) (any, error) {
		resp := recvResponse(c)
		resp.Value = c.Arg(0)
		return nil, marshalValue(resp)
	},
	"sendBytes": func(c *script.Call) (any, error) {
		b, ok := c.Arg(0).([]byte)
		if !ok {
			return nil, fmt.Errorf("res.sendBytes: argument must be bytes, got %T", c.Arg(0))
		}
		resp := recvResponse(c)
		resp.Value = b
		resp.Body = append([]byte(nil), b...)
		return nil, nil
	},
}

// DBObject wraps a database as the script-visible db object.
func DBObject(db *sqldb.DB) *script.Object {
	return script.NewObject("db", map[string]script.Builtin{
		// exec runs any SQL statement; SELECT returns a list of row maps.
		"exec": func(c *script.Call) (any, error) {
			return dbExec(db, c)
		},
		"query": func(c *script.Call) (any, error) {
			return dbExec(db, c)
		},
	})
}

func dbExec(db *sqldb.DB, c *script.Call) (any, error) {
	q := c.StringArg(0)
	// The statement runs within this call, so it may read the VM's
	// argument slice directly.
	var args []any
	if len(c.Args) > 1 {
		args = c.Args[1:]
	}
	// Rows come back with integers already as the script's one number
	// type, as fresh maps the script may own.
	guarded := c.Interp.WriteGuarded()
	res, err := db.ExecFloat(q, guarded, args...)
	if guarded && errors.Is(err, sqldb.ErrMutation) {
		return nil, fmt.Errorf("%w: %v", script.ErrWriteGuard, err)
	}
	if err != nil {
		return nil, err
	}
	if res.Cols == nil {
		// Non-SELECT statements return their affected-row count.
		return float64(res.Affected), nil
	}
	lst := script.NewList()
	if len(res.Rows) > 0 {
		lst.Elems = make([]any, len(res.Rows))
	}
	for i, row := range res.Rows {
		lst.Elems[i] = map[string]any(row)
	}
	return lst, nil
}

// FSObject wraps a filesystem as the script-visible fs object.
func FSObject(fs *vfs.FS) *script.Object {
	return script.NewObject("fs", map[string]script.Builtin{
		"read": func(c *script.Call) (any, error) {
			return fs.Read(c.StringArg(0))
		},
		"write": func(c *script.Call) (any, error) {
			if c.Interp.WriteGuarded() {
				return nil, fmt.Errorf("%w: fs.write", script.ErrWriteGuard)
			}
			content, ok := c.Arg(1).([]byte)
			if !ok {
				content = []byte(c.StringArg(1))
			}
			return nil, fs.Write(c.StringArg(0), content)
		},
		"exists": func(c *script.Call) (any, error) {
			return fs.Exists(c.StringArg(0)), nil
		},
		"remove": func(c *script.Call) (any, error) {
			if c.Interp.WriteGuarded() {
				return nil, fmt.Errorf("%w: fs.remove", script.ErrWriteGuard)
			}
			return nil, fs.Remove(c.StringArg(0))
		},
		"list": func(c *script.Call) (any, error) {
			paths := fs.List(c.StringArg(0))
			lst := script.NewList()
			for _, p := range paths {
				lst.Elems = append(lst.Elems, p)
			}
			return lst, nil
		},
	})
}

// ServeHTTP adapts the app to net/http so live traffic can be captured
// by a recording proxy.
func (a *App) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req := &Request{
		Method: r.Method,
		Path:   r.URL.Path,
		Query:  flattenQuery(r.URL.Query()),
		Body:   body,
	}
	resp, _, err := a.Invoke(req)
	if err != nil {
		if errors.Is(err, ErrNoRoute) {
			http.NotFound(w, r)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.Status)
	if n, err := w.Write(resp.Body); err != nil || n < len(resp.Body) {
		// An aborted client connection is not a served response; count it
		// so serve-path metrics stay truthful.
		a.writeErrors.Add(1)
	}
}

func flattenQuery(q url.Values) map[string]string {
	m := make(map[string]string, len(q))
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if vs := q[k]; len(vs) > 0 {
			m[k] = vs[0]
		}
	}
	return m
}
