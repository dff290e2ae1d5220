package statesync

import (
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/crdt"
	"repro/internal/httpapp"
	"repro/internal/netem"
	"repro/internal/simclock"
)

func crdtActor(s string) crdt.ActorID { return crdt.ActorID(s) }

func newState(t *testing.T, actor string) *ReplicaState {
	t.Helper()
	s, err := NewReplicaState(crdtActor(actor))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestReplicaStateForkAndDelta(t *testing.T) {
	master := newState(t, "cloud")
	if err := master.JSON.PutScalar("root", "v", 1); err != nil {
		t.Fatal(err)
	}
	if err := master.Tables.EnsureTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := master.Tables.UpsertRow("t", "1", map[string]any{"id": 1.0}); err != nil {
		t.Fatal(err)
	}
	if err := master.Files.Write("f.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}

	edge, err := master.Fork("edge1")
	if err != nil {
		t.Fatal(err)
	}
	if !master.Converged(edge) {
		t.Fatal("fork not converged with master")
	}

	// Edge mutates; master delta picks it up.
	if err := edge.Files.Write("out.txt", []byte("edge result")); err != nil {
		t.Fatal(err)
	}
	d := edge.Delta(master.Heads())
	if d.Empty() || d.Changes() == 0 {
		t.Fatal("delta empty after edge mutation")
	}
	if err := master.Apply(d); err != nil {
		t.Fatal(err)
	}
	if !master.Converged(edge) {
		t.Fatal("not converged after applying delta")
	}
	// Idempotent re-application.
	if err := master.Apply(d); err != nil {
		t.Fatal(err)
	}
	if !master.Converged(edge) {
		t.Fatal("duplicate delta broke convergence")
	}
}

func TestDeltaEncodeDecode(t *testing.T) {
	s := newState(t, "a")
	if err := s.JSON.PutScalar("root", "k", "v"); err != nil {
		t.Fatal(err)
	}
	d := s.Delta(nil)
	b, err := EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDelta(b)
	if err != nil {
		t.Fatal(err)
	}
	fresh := newState(t, "b")
	if err := fresh.Apply(back); err != nil {
		t.Fatal(err)
	}
	v, ok := fresh.JSON.MapGet("root", "k")
	if !ok || v.Str != "v" {
		t.Fatalf("k = %v, %v", v, ok)
	}
	if _, err := DecodeDelta([]byte("junk")); err == nil {
		t.Fatal("junk accepted")
	}
}

const counterSrc = `
var counter = 0
var tags = []any{}

func init() any {
	db.exec("CREATE TABLE events (id INT PRIMARY KEY, kind TEXT)")
	fs.write("latest.txt", "none")
	return nil
}

func record(req any, res any) any {
	counter = counter + 1
	push(tags, req.param("kind"))
	db.exec("INSERT INTO events (id, kind) VALUES (?, ?)", counter, req.param("kind"))
	fs.write("latest.txt", req.param("kind"))
	res.send(counter)
	return nil
}

func total(req any, res any) any {
	res.send(counter)
	return nil
}`

var counterRoutes = []httpapp.Route{
	{Method: "POST", Path: "/record", Handler: "record"},
	{Method: "GET", Path: "/total", Handler: "total"},
}

func counterUnits() analysis.StateUnits {
	return analysis.StateUnits{
		Tables:       []string{"events"},
		Files:        []string{"latest.txt"},
		Globals:      []string{"counter", "tags"},
		GlobalWrites: []string{"counter", "tags"},
	}
}

func recordReq(kind string) *httpapp.Request {
	return &httpapp.Request{Method: "POST", Path: "/record", Query: map[string]string{"kind": kind}}
}

func TestBindingMirrorsOutbound(t *testing.T) {
	app, err := httpapp.New("ctr", counterSrc, counterRoutes)
	if err != nil {
		t.Fatal(err)
	}
	state := newState(t, "cloud")
	b, err := Bind(app, state, counterUnits())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := app.Invoke(recordReq("warn")); err != nil {
		t.Fatal(err)
	}
	if err := b.MirrorGlobals(); err != nil {
		t.Fatal(err)
	}
	// SQL insert mirrored.
	row, ok := state.Tables.Row("events", "1")
	if !ok || row["kind"] != "warn" {
		t.Fatalf("row = %v, %v", row, ok)
	}
	// File write mirrored.
	content, ok := state.Files.Read("latest.txt")
	if !ok || string(content) != "warn" {
		t.Fatalf("file = %q, %v", content, ok)
	}
	// Global mirrored.
	v, ok := state.JSON.MapGet("root", "g:counter")
	if !ok || v.Num != 1 {
		t.Fatalf("g:counter = %v, %v", v, ok)
	}
}

func TestBindingAppliesInbound(t *testing.T) {
	cloudApp, err := httpapp.New("ctr", counterSrc, counterRoutes)
	if err != nil {
		t.Fatal(err)
	}
	cloudState := newState(t, "cloud")
	cloudBind, err := Bind(cloudApp, cloudState, counterUnits())
	if err != nil {
		t.Fatal(err)
	}

	// Edge replica: fresh app instance + forked state.
	edgeApp, err := cloudApp.Clone()
	if err != nil {
		t.Fatal(err)
	}
	edgeState, err := cloudState.Fork("edge1")
	if err != nil {
		t.Fatal(err)
	}
	edgeBind, err := BindReplica(edgeApp, edgeState, counterUnits())
	if err != nil {
		t.Fatal(err)
	}

	// Cloud serves two requests; edge pulls the changes.
	for _, k := range []string{"a", "b"} {
		if _, _, err := cloudApp.Invoke(recordReq(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cloudBind.MirrorGlobals(); err != nil {
		t.Fatal(err)
	}
	delta := cloudState.Delta(edgeState.Heads())
	if err := edgeBind.ApplyRemote(delta); err != nil {
		t.Fatal(err)
	}

	// The edge app now sees the cloud's state.
	resp, _, err := edgeApp.Invoke(&httpapp.Request{Method: "GET", Path: "/total"})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "2" {
		t.Fatalf("edge total = %s, want 2", resp.Body)
	}
	n, err := edgeApp.DB().RowCount("events")
	if err != nil || n != 2 {
		t.Fatalf("edge rows = %d, %v", n, err)
	}
	content, err := edgeApp.FS().Read("latest.txt")
	if err != nil || string(content) != "b" {
		t.Fatalf("edge file = %q, %v", content, err)
	}
}

func TestBindingNoEchoOnInbound(t *testing.T) {
	app, err := httpapp.New("ctr", counterSrc, counterRoutes)
	if err != nil {
		t.Fatal(err)
	}
	state := newState(t, "edge")
	b, err := Bind(app, state, counterUnits())
	if err != nil {
		t.Fatal(err)
	}
	// Remote delta from a peer.
	peer := newState(t, "cloud")
	if err := peer.Tables.EnsureTable("events"); err != nil {
		t.Fatal(err)
	}
	if err := peer.Tables.UpsertRow("events", "9", map[string]any{"id": 9.0, "kind": "remote"}); err != nil {
		t.Fatal(err)
	}
	if err := b.ApplyRemote(peer.Delta(nil)); err != nil {
		t.Fatal(err)
	}
	// Applying inbound state must not create new local changes to ship.
	d := state.Delta(mergeHeads(state.Heads(), nil))
	if !d.Empty() {
		t.Fatalf("inbound apply echoed %d changes", d.Changes())
	}
}

func TestManagerConvergesOverEmulatedWAN(t *testing.T) {
	clock := simclock.New()
	master := newState(t, "cloud")
	if err := master.JSON.PutScalar("root", "seed", 1); err != nil {
		t.Fatal(err)
	}

	mgr, err := NewManager(clock, &Endpoint{Name: "cloud", State: master}, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var edges []*ReplicaState
	for i := 0; i < 3; i++ {
		edge, err := master.Fork(crdtActor("edge" + string(rune('0'+i))))
		if err != nil {
			t.Fatal(err)
		}
		edges = append(edges, edge)
		link, err := netem.NewDuplex(clock, netem.LimitedWAN(500, 100), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.AddEdge(&Endpoint{Name: "edge", State: edge}, link); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Start()

	// Concurrent mutations at different replicas.
	if err := edges[0].JSON.PutScalar("root", "from0", 10); err != nil {
		t.Fatal(err)
	}
	if err := edges[1].Files.Write("r1.txt", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := master.JSON.PutScalar("root", "fromCloud", 42); err != nil {
		t.Fatal(err)
	}

	clock.RunUntil(20 * time.Second)
	mgr.Stop()
	clock.Run()

	if !mgr.Converged() {
		t.Fatal("replicas did not converge")
	}
	// Edge 2 learned edge 0's change via the cloud master (star topology).
	v, ok := edges[2].JSON.MapGet("root", "from0")
	if !ok || v.Num != 10 {
		t.Fatalf("edge2 from0 = %v, %v", v, ok)
	}
	st := mgr.Stats()
	if st.EdgeStateBytes == 0 || st.CloudStateBytes == 0 || st.Messages == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Errors != 0 {
		t.Fatalf("sync errors: %+v", st)
	}
}

func TestManagerQuiescentSendsNothing(t *testing.T) {
	clock := simclock.New()
	master := newState(t, "cloud")
	mgr, err := NewManager(clock, &Endpoint{Name: "cloud", State: master}, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := master.Fork("edge")
	if err != nil {
		t.Fatal(err)
	}
	link, err := netem.NewDuplex(clock, netem.FastWAN, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.AddEdge(&Endpoint{Name: "e", State: edge}, link); err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	clock.RunUntil(5 * time.Second)
	mgr.Stop()
	clock.Run()
	// After initial catch-up (fork shares history, so deltas are empty),
	// no messages flow.
	if got := mgr.Stats().TotalBytes(); got != 0 {
		t.Fatalf("quiescent sync moved %d bytes", got)
	}
}

// TestManagerNoEcho pins the pair protocol's reverse-cursor rule under
// Manager: a change that crossed the link in one direction is never
// shipped back to the replica that made it.
func TestManagerNoEcho(t *testing.T) {
	for _, tc := range []struct {
		name     string
		edgeSide bool // which replica writes
	}{{"edge-writes", true}, {"cloud-writes", false}} {
		t.Run(tc.name, func(t *testing.T) {
			clock := simclock.New()
			master := newState(t, "cloud")
			mgr, err := NewManager(clock, &Endpoint{Name: "cloud", State: master}, 100*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			edge, err := master.Fork("edge")
			if err != nil {
				t.Fatal(err)
			}
			link, err := netem.NewDuplex(clock, netem.LimitedWAN(500, 100), 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := mgr.AddEdge(&Endpoint{Name: "e", State: edge}, link); err != nil {
				t.Fatal(err)
			}
			mgr.Start()
			writer := master
			if tc.edgeSide {
				writer = edge
			}
			if err := writer.JSON.PutScalar("root", "v", 1); err != nil {
				t.Fatal(err)
			}
			clock.RunUntil(5 * time.Second)
			mgr.Stop()
			clock.Run()
			if !mgr.Converged() {
				t.Fatal("replicas did not converge")
			}
			st := mgr.Stats()
			shipped, echoed := st.EdgeStateBytes, st.CloudStateBytes
			if !tc.edgeSide {
				shipped, echoed = echoed, shipped
			}
			if shipped == 0 || echoed != 0 {
				t.Fatalf("shipped %d bytes, echoed %d back: %+v", shipped, echoed, st)
			}
			if st.Messages != 1 || st.AckRoundTrips != 1 {
				t.Fatalf("want exactly one delta, delivered: %+v", st)
			}
		})
	}
}

// TestManagerIdleSkipAndWake pins the consolidated-ticker idle test:
// once a scan finds an edge clean, later ticks resolve it with a pair
// of version loads (EdgesSkipped) instead of delta construction — and a
// master write invalidates the skip, so the edge still converges.
func TestManagerIdleSkipAndWake(t *testing.T) {
	clock := simclock.New()
	master := newState(t, "cloud")
	mgr, err := NewManager(clock, &Endpoint{Name: "cloud", State: master}, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var edges []*ReplicaState
	for i := 0; i < 3; i++ {
		edge, err := master.Fork(crdtActor("edge" + string(rune('0'+i))))
		if err != nil {
			t.Fatal(err)
		}
		edges = append(edges, edge)
		link, err := netem.NewDuplex(clock, netem.FastWAN, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.AddEdge(&Endpoint{Name: "e", State: edge}, link); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Start()

	// Forks share history, so the very first scan finds every edge clean;
	// 5 s of idle ticks must then be resolved by the skip path.
	clock.RunUntil(5 * time.Second)
	st := mgr.Stats()
	if st.EdgesSkipped == 0 {
		t.Fatalf("idle edges were never skipped: %+v", st)
	}
	if st.EdgesSkipped < st.EdgesScanned {
		t.Fatalf("idle period did mostly full scans: skipped=%d scanned=%d",
			st.EdgesSkipped, st.EdgesScanned)
	}

	// A master write bumps the version the idle test watches: the next
	// tick must do real work again and replicate the change everywhere.
	if err := master.JSON.PutScalar("root", "wake", 7); err != nil {
		t.Fatal(err)
	}
	scannedBefore := st.EdgesScanned
	clock.RunUntil(10 * time.Second)
	mgr.Stop()
	clock.Run()
	if !mgr.Converged() {
		t.Fatal("edges did not reconverge after wake")
	}
	for i, e := range edges {
		if v, ok := e.JSON.MapGet("root", "wake"); !ok || v.Num != 7 {
			t.Fatalf("edge %d missed the wake write: %v, %v", i, v, ok)
		}
	}
	st = mgr.Stats()
	if st.EdgesScanned <= scannedBefore {
		t.Fatalf("wake write did not trigger a real scan: %d -> %d",
			scannedBefore, st.EdgesScanned)
	}
	if st.Errors != 0 {
		t.Fatalf("sync errors: %+v", st)
	}
}

func TestManagerValidation(t *testing.T) {
	clock := simclock.New()
	if _, err := NewManager(clock, &Endpoint{State: newState(t, "m")}, 0); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := NewManager(clock, nil, time.Second); err == nil {
		t.Fatal("nil master accepted")
	}
	mgr, err := NewManager(clock, &Endpoint{State: newState(t, "m")}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.AddEdge(nil, nil); err == nil {
		t.Fatal("nil edge accepted")
	}
}

func TestEndToEndReplicaSync(t *testing.T) {
	// Full loop: cloud app + edge app, both bound, syncing over WAN on
	// virtual time. Edge handles requests locally; the cloud learns the
	// state changes in the background.
	clock := simclock.New()
	cloudApp, err := httpapp.New("ctr", counterSrc, counterRoutes)
	if err != nil {
		t.Fatal(err)
	}
	cloudState := newState(t, "cloud")
	cloudBind, err := Bind(cloudApp, cloudState, counterUnits())
	if err != nil {
		t.Fatal(err)
	}
	edgeApp, err := cloudApp.Clone()
	if err != nil {
		t.Fatal(err)
	}
	edgeState, err := cloudState.Fork("edge1")
	if err != nil {
		t.Fatal(err)
	}
	edgeBind, err := BindReplica(edgeApp, edgeState, counterUnits())
	if err != nil {
		t.Fatal(err)
	}

	mgr, err := NewManager(clock, &Endpoint{Name: "cloud", State: cloudState, Binding: cloudBind}, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	link, err := netem.NewDuplex(clock, netem.LimitedWAN(1000, 200), 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.AddEdge(&Endpoint{Name: "edge1", State: edgeState, Binding: edgeBind}, link); err != nil {
		t.Fatal(err)
	}
	mgr.Start()

	// Edge serves three client requests.
	for _, k := range []string{"x", "y", "z"} {
		if _, _, err := edgeApp.Invoke(recordReq(k)); err != nil {
			t.Fatal(err)
		}
	}
	clock.RunUntil(30 * time.Second)
	mgr.Stop()
	clock.Run()

	// Cloud converged: its own app now reports the edge's counter.
	resp, _, err := cloudApp.Invoke(&httpapp.Request{Method: "GET", Path: "/total"})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "3" {
		t.Fatalf("cloud total = %s, want 3", resp.Body)
	}
	n, err := cloudApp.DB().RowCount("events")
	if err != nil || n != 3 {
		t.Fatalf("cloud rows = %d, %v", n, err)
	}
	if !mgr.Converged() {
		t.Fatal("states diverged")
	}
}
