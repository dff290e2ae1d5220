package statesync

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/crdt"
	"repro/internal/httpapp"
	"repro/internal/netem"
	"repro/internal/script"
	"repro/internal/simclock"
	"repro/internal/sqldb"
)

const ledgerSrc = `
var counter = 0
var tags = []any{"seed"}
var cfg = map[string]any{"mode": "init"}

func init() any {
	db.exec("CREATE TABLE events (id INT PRIMARY KEY, kind TEXT, n INT)")
	db.exec("CREATE TABLE notes (msg TEXT)")
	db.exec("INSERT INTO events (id, kind, n) VALUES (1, 'boot', 0), (2, 'boot', 0)")
	fs.write("spool/init.txt", "init")
	return nil
}

func total(req any, res any) any {
	res.send(counter)
	return nil
}`

var ledgerRoutes = []httpapp.Route{{Method: "GET", Path: "/total", Handler: "total"}}

func ledgerUnits() analysis.StateUnits {
	return analysis.StateUnits{
		Tables:       []string{"events", "extra", "notes"},
		Files:        []string{"spool/"},
		Globals:      []string{"cfg", "counter", "tags"},
		GlobalWrites: []string{"cfg", "counter", "tags"},
	}
}

// node is one bound replica: its app, CRDT state and binding.
type node struct {
	name  string
	app   *httpapp.App
	state *ReplicaState
	bind  *Binding
}

// ledgerNodes boots a cloud (Bind, seeding the CRDT from its app) and
// edges forked from its snapshot (BindReplica).
func ledgerNodes(t *testing.T, edges int) []*node {
	t.Helper()
	cloudApp, err := httpapp.New("ledger", ledgerSrc, ledgerRoutes)
	if err != nil {
		t.Fatal(err)
	}
	cloudState := newState(t, "cloud")
	cloudBind, err := Bind(cloudApp, cloudState, ledgerUnits())
	if err != nil {
		t.Fatal(err)
	}
	nodes := []*node{{"cloud", cloudApp, cloudState, cloudBind}}
	for i := 1; i <= edges; i++ {
		name := fmt.Sprintf("edge%d", i)
		app, err := cloudApp.Clone()
		if err != nil {
			t.Fatal(err)
		}
		st, err := cloudState.Fork(crdtActor(name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := BindReplica(app, st, ledgerUnits())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &node{name, app, st, b})
	}
	return nodes
}

// appView is an app's replicated state in comparable form: tables from
// DB.Dump (numbers as float64, as the CRDT stores them), every file,
// and every synced global that is defined.
type appView struct {
	Tables  map[string][]map[string]any
	Files   map[string]string
	Globals map[string]any
}

func viewOf(app *httpapp.App, units analysis.StateUnits) appView {
	v := appView{Tables: map[string][]map[string]any{}, Files: map[string]string{}, Globals: map[string]any{}}
	for name, rows := range app.DB().Dump() {
		out := make([]map[string]any, len(rows))
		for i, r := range rows {
			out[i] = map[string]any{}
			for c, x := range r {
				if n, ok := x.(int64); ok {
					x = float64(n)
				}
				out[i][c] = x
			}
		}
		v.Tables[name] = out
	}
	for _, p := range app.FS().List("") {
		b, _ := app.FS().Read(p)
		v.Files[p] = string(b)
	}
	for _, g := range units.GlobalsToSync() {
		if x, ok := app.Interp().GetGlobal(g); ok {
			v.Globals[g] = x
		}
	}
	return v
}

func (v appView) diff(o appView) string {
	if !reflect.DeepEqual(v.Tables, o.Tables) {
		return fmt.Sprintf("tables\n%v\n%v", v.Tables, o.Tables)
	}
	if !reflect.DeepEqual(v.Files, o.Files) {
		return fmt.Sprintf("files\n%v\n%v", v.Files, o.Files)
	}
	if len(v.Globals) != len(o.Globals) {
		return fmt.Sprintf("globals\n%v\n%v", v.Globals, o.Globals)
	}
	for g, x := range v.Globals {
		if y, ok := o.Globals[g]; !ok || !script.Equal(x, y) {
			return fmt.Sprintf("global %s: %v vs %v", g, x, y)
		}
	}
	return ""
}

// oracleView materializes n's CRDT state into a fresh app with the full
// PushIntoApp that binds a replica.
func oracleView(t *testing.T, n *node) appView {
	t.Helper()
	fresh, err := httpapp.New("ledger", ledgerSrc, ledgerRoutes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BindReplica(fresh, n.state, ledgerUnits()); err != nil {
		t.Fatal(err)
	}
	return viewOf(fresh, ledgerUnits())
}

// localOp performs one random app-level mutation at n: row writes go
// through SQL and files through the vfs, so the binding's hooks mirror
// them; globals are set in the interpreter and mirrored, or deleted or
// edited in place in the CRDT and pushed back into the app.
func localOp(t *testing.T, rng *rand.Rand, n *node) {
	t.Helper()
	db, fs := n.app.DB(), n.app.FS()
	id := float64(1 + rng.Intn(8))
	var err error
	switch rng.Intn(12) {
	case 0:
		_, err = db.Exec("INSERT INTO events (id, kind, n) VALUES (?, ?, ?)", id, n.name, float64(rng.Intn(100)))
		if errors.Is(err, sqldb.ErrDuplicateKey) {
			err = nil
		}
	case 1, 2:
		_, err = db.Exec("UPDATE events SET n = ?, kind = ? WHERE id = ?", float64(rng.Intn(100)), n.name, id)
	case 3:
		_, err = db.Exec("DELETE FROM events WHERE id = ?", id)
	case 4:
		_, err = db.Exec("INSERT INTO notes (msg) VALUES (?)", n.name)
	case 5:
		if _, err = db.Exec("CREATE TABLE IF NOT EXISTS extra (id INT PRIMARY KEY, v TEXT)"); err == nil {
			_, err = db.Exec("DELETE FROM extra WHERE id = ?", id)
		}
		if err == nil {
			_, err = db.Exec("INSERT INTO extra (id, v) VALUES (?, ?)", id, n.name)
		}
	case 6:
		err = fs.Write(fmt.Sprintf("spool/%d.txt", rng.Intn(4)), []byte(fmt.Sprint(n.name, rng.Intn(100))))
	case 7:
		p := fmt.Sprintf("spool/%d.txt", rng.Intn(4))
		if rng.Intn(4) == 0 {
			p = "spool/init.txt"
		}
		if fs.Exists(p) {
			err = fs.Remove(p)
		}
	case 8, 9:
		in := n.app.Interp()
		switch rng.Intn(3) {
		case 0:
			in.SetGlobal("counter", float64(rng.Intn(1000)))
		case 1:
			in.SetGlobal("tags", script.NewList(n.name, float64(rng.Intn(10))))
		default:
			in.SetGlobal("cfg", map[string]any{"mode": n.name, "level": float64(rng.Intn(5))})
		}
		err = n.bind.MirrorGlobals()
	case 10:
		g := []string{"counter", "tags", "cfg"}[rng.Intn(3)]
		if _, ok := n.state.JSON.MapGet("root", globalPrefix+g); ok {
			if err = n.state.JSON.Delete("root", globalPrefix+g); err == nil {
				err = n.bind.PushIntoApp()
			}
		}
	case 11:
		// Edit a container global inside its CRDT object, without
		// relinking it: the touched set must resolve the nested op.
		if v, ok := n.state.JSON.MapGet("root", globalPrefix+"cfg"); ok && v.Kind == crdt.ValObj {
			err = n.state.JSON.PutScalar(v.Obj, "level", float64(rng.Intn(5)))
		} else if v, ok := n.state.JSON.MapGet("root", globalPrefix+"tags"); ok && v.Kind == crdt.ValObj {
			err = n.state.JSON.ListAppend(v.Obj, n.name)
		}
		if err == nil {
			err = n.bind.PushIntoApp()
		}
	}
	if err != nil {
		t.Fatal(err)
	}
}

// partialDelta returns a shuffled random subset of each component's
// changes, so the receiver parks changes whose dependencies are missing
// and integrates them when a later delta fills the gap.
func partialDelta(rng *rand.Rand, d Delta) Delta {
	out := Delta{}
	for comp, chs := range d {
		var keep []crdt.Change
		for _, ch := range chs {
			if rng.Intn(3) > 0 {
				keep = append(keep, ch)
			}
		}
		rng.Shuffle(len(keep), func(i, j int) { keep[i], keep[j] = keep[j], keep[i] })
		out[comp] = keep
	}
	return out
}

// TestApplyRemoteMatchesFullPush is the differential test of the
// touched-key inbound apply: seeded random local mutations at a cloud
// and two edges (row insert/update/delete with concurrent writes to the
// same rows, rows in a table without a primary key, a table created
// concurrently at several replicas, file write/remove, global
// set/delete/in-place edit), exchanged as partial, shuffled deltas so
// changes park and un-park. After every apply, the receiving app must
// hold exactly what a full PushIntoApp of the same CRDT state gives a
// fresh app; at the end, every app must hold the same state.
func TestApplyRemoteMatchesFullPush(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := ledgerNodes(t, 2)
		for step := 0; step < 150; step++ {
			if rng.Intn(2) == 0 {
				localOp(t, rng, nodes[rng.Intn(len(nodes))])
				continue
			}
			src, dst := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
			if src == dst {
				continue
			}
			d := src.state.Delta(dst.state.Heads())
			if rng.Intn(2) == 0 {
				d = partialDelta(rng, d)
			}
			if _, err := dst.bind.ApplyRemoteCount(d); err != nil {
				t.Fatalf("seed %d step %d: apply %s→%s: %v", seed, step, src.name, dst.name, err)
			}
			if diff := viewOf(dst.app, ledgerUnits()).diff(oracleView(t, dst)); diff != "" {
				t.Fatalf("seed %d step %d: %s after applying %s's delta differs from a full push: %s",
					seed, step, dst.name, src.name, diff)
			}
		}
		// Anti-entropy to convergence: every app must then agree.
		for round := 0; round < 3; round++ {
			for _, src := range nodes {
				for _, dst := range nodes {
					if src != dst {
						if _, err := dst.bind.ApplyRemoteCount(src.state.Delta(dst.state.Heads())); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
		want := viewOf(nodes[0].app, ledgerUnits())
		for _, n := range nodes {
			if n.state.JSON.Parked()+n.state.Tables.Doc().Parked()+n.state.Files.Doc().Parked() != 0 {
				t.Fatalf("seed %d: %s still has parked changes", seed, n.name)
			}
			if !nodes[0].state.Converged(n.state) {
				t.Fatalf("seed %d: %s's CRDT state did not converge", seed, n.name)
			}
			if diff := viewOf(n.app, ledgerUnits()).diff(want); diff != "" {
				t.Fatalf("seed %d: %s's app differs from the cloud's after convergence: %s", seed, n.name, diff)
			}
		}
	}
}

// TestApplyRemoteEmptyDeltaLeavesAppAlone: a delta that integrates
// nothing must not touch the app — not even a rebuild that reorders
// rows.
func TestApplyRemoteEmptyDeltaLeavesAppAlone(t *testing.T) {
	nodes := ledgerNodes(t, 1)
	edge := nodes[1]
	if _, err := edge.app.DB().Exec("INSERT INTO events (id, kind, n) VALUES (10, 'local', 1)"); err != nil {
		t.Fatal(err)
	}
	before, err := edge.app.DB().Exec("SELECT * FROM events")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Delta{{}, nodes[0].state.Delta(nil)} {
		n, err := edge.bind.ApplyRemoteCount(d)
		if err != nil || n != 0 {
			t.Fatalf("applied %d, %v; want 0", n, err)
		}
	}
	after, err := edge.app.DB().Exec("SELECT * FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Rows, after.Rows) {
		t.Fatalf("rows changed:\n%v\n%v", before.Rows, after.Rows)
	}
}

// TestRemoteRowsAppendInArrivalOrder pins the row-order contract: a
// remote-created row is appended like a local INSERT, and an updated
// row keeps its place.
func TestRemoteRowsAppendInArrivalOrder(t *testing.T) {
	nodes := ledgerNodes(t, 1)
	cloud, edge := nodes[0], nodes[1]
	for _, q := range []string{
		"INSERT INTO events (id, kind, n) VALUES (30, 'c', 0)",
		"INSERT INTO events (id, kind, n) VALUES (4, 'c', 0)",
		"UPDATE events SET n = 9 WHERE id = 1",
	} {
		if _, err := cloud.app.DB().Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := edge.bind.ApplyRemoteCount(cloud.state.Delta(edge.state.Heads())); err != nil {
		t.Fatal(err)
	}
	res, err := edge.app.DB().Exec("SELECT id, n FROM events")
	if err != nil {
		t.Fatal(err)
	}
	var ids []any
	for _, r := range res.Rows {
		ids = append(ids, r["id"])
	}
	if want := []any{1.0, 2.0, 30.0, 4.0}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("edge row order = %v, want %v", ids, want)
	}
	if res.Rows[0]["n"] != 9.0 {
		t.Fatalf("updated row = %v", res.Rows[0])
	}
}

// managerRig runs a cloud and two edges under the virtual-time Manager.
func managerRig(t *testing.T) ([]*node, *simclock.Clock, *Manager) {
	t.Helper()
	nodes := ledgerNodes(t, 2)
	clock := simclock.New()
	mgr, err := NewManager(clock, &Endpoint{Name: "cloud", State: nodes[0].state, Binding: nodes[0].bind}, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes[1:] {
		link, err := netem.NewDuplex(clock, netem.LimitedWAN(1000, 20), int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.AddEdge(&Endpoint{Name: n.name, State: n.state, Binding: n.bind}, link); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Start()
	t.Cleanup(mgr.Stop)
	return nodes, clock, mgr
}

func settle(t *testing.T, clock *simclock.Clock, mgr *Manager) {
	t.Helper()
	clock.RunUntil(clock.Now() + 5*time.Second)
	if !mgr.Converged() {
		t.Fatal("replicas did not converge")
	}
}

// TestUpdateShipsChangedColumnsOnly: an UPDATE of one cell of a
// three-column row costs one CRDT op, not one per column.
func TestUpdateShipsChangedColumnsOnly(t *testing.T) {
	cloud := ledgerNodes(t, 0)[0]
	since := cloud.state.Heads()
	if _, err := cloud.app.DB().Exec("UPDATE events SET n = 5 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	d := cloud.state.Delta(since)
	ops := 0
	for _, chs := range d {
		for _, ch := range chs {
			ops += len(ch.Ops)
		}
	}
	if d.Changes() != 1 || ops != 1 {
		t.Fatalf("UPDATE of one cell shipped %d changes with %d ops, want 1 and 1", d.Changes(), ops)
	}
}

// TestConcurrentColumnUpdatesBothSurvive: two replicas update different
// columns of one row before they sync, and every replica keeps both
// edits — neither UPDATE rewrites the column it left alone.
func TestConcurrentColumnUpdatesBothSurvive(t *testing.T) {
	nodes, clock, mgr := managerRig(t)
	if _, err := nodes[1].app.DB().Exec("UPDATE events SET n = 7 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[2].app.DB().Exec("UPDATE events SET kind = 'edited' WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	settle(t, clock, mgr)
	for _, n := range nodes {
		res, err := n.app.DB().Exec("SELECT kind, n FROM events WHERE id = 1")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0]["kind"] != "edited" || fmt.Sprint(res.Rows[0]["n"]) != "7" {
			t.Errorf("%s holds %v, want kind=edited n=7", n.name, res.Rows)
		}
	}
}

// TestRemoteDeletionsReachSiblingApps: a file removed on one edge, a
// row deleted on one edge and a global deleted at the cloud disappear
// from the other replicas' apps, not only from their CRDT state.
func TestRemoteDeletionsReachSiblingApps(t *testing.T) {
	nodes, clock, mgr := managerRig(t)
	cloud, e1, e2 := nodes[0], nodes[1], nodes[2]
	if err := e1.app.FS().Write("spool/a.txt", []byte("a")); err != nil {
		t.Fatal(err)
	}
	settle(t, clock, mgr)
	for _, n := range nodes {
		if !n.app.FS().Exists("spool/a.txt") || !n.app.FS().Exists("spool/init.txt") {
			t.Fatalf("%s is missing a file before the removals", n.name)
		}
	}

	if err := e1.app.FS().Remove("spool/a.txt"); err != nil {
		t.Fatal(err)
	}
	if err := e1.app.FS().Remove("spool/init.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.app.DB().Exec("DELETE FROM events WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if err := cloud.state.JSON.Delete("root", globalPrefix+"cfg"); err != nil {
		t.Fatal(err)
	}
	settle(t, clock, mgr)

	for _, n := range nodes {
		for _, p := range []string{"spool/a.txt", "spool/init.txt"} {
			if n.app.FS().Exists(p) {
				t.Errorf("%s still holds removed file %s", n.name, p)
			}
		}
		res, err := n.app.DB().Exec("SELECT * FROM events WHERE id = 2")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Errorf("%s still holds deleted row 2: %v", n.name, res.Rows)
		}
		if n == cloud {
			continue // the deletion was made in the cloud's CRDT state directly
		}
		if v, ok := n.app.Interp().GetGlobal("cfg"); ok {
			t.Errorf("%s still defines deleted global cfg = %v", n.name, v)
		}
	}
	// The deleted global stays deleted: nothing is mirrored back out.
	for _, n := range []*node{e1, e2} {
		if err := n.bind.MirrorGlobals(); err != nil {
			t.Fatal(err)
		}
		if _, ok := n.state.JSON.MapGet("root", globalPrefix+"cfg"); ok {
			t.Errorf("%s resurrected the deleted global", n.name)
		}
	}
}

// TestDeletedGlobalReadsAsUndefined: once a remote deletion lands, a
// script that reads the global fails as it would for any undefined name,
// on the compiled path whose global lookups are cached.
func TestDeletedGlobalReadsAsUndefined(t *testing.T) {
	nodes := ledgerNodes(t, 1)
	cloud, edge := nodes[0], nodes[1]
	req := &httpapp.Request{Method: "GET", Path: "/total"}
	if _, _, err := edge.app.Invoke(req); err != nil {
		t.Fatal(err)
	}
	if err := cloud.state.JSON.Delete("root", globalPrefix+"counter"); err != nil {
		t.Fatal(err)
	}
	if _, err := edge.bind.ApplyRemoteCount(cloud.state.Delta(edge.state.Heads())); err != nil {
		t.Fatal(err)
	}
	if _, _, err := edge.app.Invoke(req); err == nil {
		t.Fatal("reading a deleted global succeeded")
	}
	edge.app.Interp().SetGlobal("counter", 7.0)
	resp, _, err := edge.app.Invoke(req)
	if err != nil || string(resp.Body) != "7" {
		t.Fatalf("after redefining: %v, %v", resp, err)
	}
}

// BenchmarkApplyRemote times Binding.ApplyRemoteCount of a delta of 1,
// 10 or 100 row-update changes into an app holding 100, 1 000 or 5 000
// rows. With the touched-key apply the cost follows the delta: a
// one-change delta costs about the same at every table size.
func BenchmarkApplyRemote(b *testing.B) {
	for _, rows := range []int{100, 1000, 5000} {
		for _, changes := range []int{1, 10, 100} {
			b.Run(fmt.Sprintf("rows=%d/changes=%d", rows, changes), func(b *testing.B) {
				benchApplyRemote(b, rows, changes)
			})
		}
	}
}

func benchApplyRemote(b *testing.B, rows, changes int) {
	units := analysis.StateUnits{Tables: []string{"events"}}
	cloudApp, err := httpapp.New("ledger", ledgerSrc, ledgerRoutes)
	if err != nil {
		b.Fatal(err)
	}
	for i := 3; i <= rows; i++ {
		if _, err := cloudApp.DB().Exec("INSERT INTO events (id, kind, n) VALUES (?, 'k', 0)", i); err != nil {
			b.Fatal(err)
		}
	}
	cloudState, err := NewReplicaState("cloud")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Bind(cloudApp, cloudState, units); err != nil {
		b.Fatal(err)
	}
	edgeApp, err := cloudApp.Clone()
	if err != nil {
		b.Fatal(err)
	}
	edgeState, err := cloudState.Fork("edge")
	if err != nil {
		b.Fatal(err)
	}
	edgeBind, err := BindReplica(edgeApp, edgeState, units)
	if err != nil {
		b.Fatal(err)
	}
	// Build deltas of `changes` one-row updates in batches, off the
	// clock, and time only their application. Every update writes a new
	// value: an update to the value a cell already holds is no change.
	rng := rand.New(rand.NewSource(1))
	written := 0
	next := func() Delta {
		since := cloudState.Heads()
		for c := 0; c < changes; c++ {
			written++
			if _, err := cloudApp.DB().Exec("UPDATE events SET n = ? WHERE id = ?", written, 1+rng.Intn(rows)); err != nil {
				b.Fatal(err)
			}
			cloudState.Tables.Doc().Commit("")
		}
		return cloudState.Delta(since)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		batch := make([]Delta, min(b.N-done, 256))
		for i := range batch {
			batch[i] = next()
		}
		// The edge applies everything built so far: drop it from the
		// cloud's log so building the next batch stays O(batch).
		cloudState.Compact(cloudState.Heads())
		b.StartTimer()
		for _, d := range batch {
			if n, err := edgeBind.ApplyRemoteCount(d); err != nil || n != changes {
				b.Fatalf("applied %d of %d: %v", n, changes, err)
			}
		}
		done += len(batch)
	}
}

// TestConcurrentKeylessInsertsKeepBothRows: one INSERT into a table
// without a primary key at each of two edges, before they sync, leaves
// both rows on every node — each replica mints its keys in its own
// scope, so last-writer-wins never merges them.
func TestConcurrentKeylessInsertsKeepBothRows(t *testing.T) {
	nodes, clock, mgr := managerRig(t)
	for _, n := range nodes[1:] {
		if _, err := n.app.DB().Exec("INSERT INTO notes (msg) VALUES (?)", n.name); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, clock, mgr)
	for _, n := range nodes {
		res, err := n.app.DB().Exec("SELECT msg FROM notes")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 {
			t.Errorf("%s holds %d notes %v, want 2 (one per edge)", n.name, len(res.Rows), res.Rows)
		}
	}
}
