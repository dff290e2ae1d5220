package statesync

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/faultnet"
	"repro/internal/netem"
	"repro/internal/simclock"
)

// durableEdge builds an edge endpoint whose state is WAL-backed: every
// applied delta is persisted before the transport acks, and handshakes
// declare the durable heads rather than the in-memory ones.
func durableEdge(t *testing.T, name string, st *ReplicaState, dir string) (*Endpoint, *durable.Store) {
	t.Helper()
	store, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPersister(store, 0)
	return &Endpoint{Name: name, State: st, Persist: p, HeadsSource: p.Heads}, store
}

func TestPersisterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := newState(t, "cloud")
	if err := st.JSON.PutScalar("root", "v", 7); err != nil {
		t.Fatal(err)
	}
	if err := st.Tables.EnsureTable("users"); err != nil {
		t.Fatal(err)
	}
	if err := st.Tables.UpsertRow("users", "1", map[string]any{"id": 1.0}); err != nil {
		t.Fatal(err)
	}
	if err := st.Files.Write("a.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	p := NewPersister(store, 0)
	if err := p.Sync(st); err != nil {
		t.Fatal(err)
	}
	// Idempotent: nothing new → nothing appended.
	before := store.Stats().Appends
	if err := p.Sync(st); err != nil {
		t.Fatal(err)
	}
	if store.Stats().Appends != before {
		t.Fatal("second Sync with no new changes appended frames")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = store2.Close() }()
	rec := store2.Recovery()
	if rec.Empty() {
		t.Fatal("recovery empty after persisted traffic")
	}
	st2, err := RecoverReplicaState("cloud", rec)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged(st2) {
		t.Fatal("recovered state does not match the persisted one")
	}
	// The recovered replica keeps its actor identity: new local writes
	// continue the sequence instead of forking a second history.
	if err := st2.JSON.PutScalar("root", "v", 8); err != nil {
		t.Fatal(err)
	}
	if NewPersister(store2, 0).Heads()[CompJSON]["cloud/j"] == 0 {
		t.Fatal("watermark did not resume from recovery")
	}
}

// TestPersisterRetriesFailedAppend: a Sync whose append fails records
// nothing, so the next Sync, with the state unchanged since, appends
// the same changes instead of taking the unchanged components for
// persisted.
func TestPersisterRetriesFailedAppend(t *testing.T) {
	store, err := durable.Open(t.TempDir(), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = store.Close() }()
	closed, err := durable.Open(t.TempDir(), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	st := newState(t, "edge")
	p := NewPersister(store, 0)
	if err := p.Sync(st); err != nil {
		t.Fatal(err)
	}
	if err := st.JSON.PutScalar("root", "v", 1); err != nil {
		t.Fatal(err)
	}
	p.store = closed
	if err := p.Sync(st); err == nil {
		t.Fatal("Sync into a closed store succeeded")
	}
	p.store = store
	before := store.Stats().Appends
	if err := p.Sync(st); err != nil {
		t.Fatal(err)
	}
	if got := store.Stats().Appends - before; got != 1 {
		t.Fatalf("the Sync after a failed append appended %d records, want 1", got)
	}
	if p.Heads()[CompJSON]["edge/j"] == 0 {
		t.Fatal("the retried change is not in the persisted heads")
	}
}

// TestPersisterNoopSyncAllocatesNothing: a Sync that finds the state's
// components where the last one left them returns without computing a
// delta, and allocates nothing; a change in any component is still
// appended.
func TestPersisterNoopSyncAllocatesNothing(t *testing.T) {
	store, err := durable.Open(t.TempDir(), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = store.Close() }()
	st := newState(t, "edge")
	p := NewPersister(store, 0)
	if err := p.Sync(st); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := p.Sync(st); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a no-op Sync allocated %.0f times, want 0", allocs)
	}
	writes := []func() error{
		func() error { return st.JSON.PutScalar("root", "v", 2) },
		func() error { return st.Tables.EnsureTable("users") },
		func() error { return st.Files.Write("a.txt", []byte("x")) },
	}
	for i, write := range writes {
		if err := write(); err != nil {
			t.Fatal(err)
		}
		before := store.Stats().Appends
		if err := p.Sync(st); err != nil {
			t.Fatal(err)
		}
		if store.Stats().Appends != before+1 {
			t.Fatalf("write %d: Sync appended %d records, want 1", i, store.Stats().Appends-before)
		}
	}
}

// TestTCPKillRestartResync is the durability acceptance scenario and the
// regression test for re-handshaking from in-memory heads only: kill an
// edge mid-deployment, restart it from disk, and verify the re-handshake
// ships exactly the delta the disk is missing — zero duplicate applies,
// full convergence.
func TestTCPKillRestartResync(t *testing.T) {
	master := newState(t, "cloud")
	srv, err := ServeMasterConfig("127.0.0.1:0", &Endpoint{Name: "cloud", State: master}, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	st, err := master.Fork("edge1")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ep, _ := durableEdge(t, "edge1", st, dir)
	edge, err := DialEdgeConfig(srv.Addr(), ep, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Both sides mutate; wait for live convergence.
	srv.Do(func() {
		for i := 1; i <= 5; i++ {
			if err := master.JSON.PutScalar("root", "k", float64(i)); err != nil {
				t.Error(err)
			}
		}
	})
	edge.Do(func() {
		if err := st.JSON.PutScalar("root", "edgeLocal", 42); err != nil {
			t.Error(err)
		}
	})
	if !waitFor(t, 5*time.Second, func() bool {
		ok := false
		srv.Do(func() { edge.Do(func() { ok = master.Converged(st) }) })
		return ok
	}) {
		t.Fatal("no convergence before the kill")
	}

	// Kill -9: the connection dies and the in-memory replica is gone.
	// The store is deliberately NOT closed — a killed process never
	// closes anything — and the restart below sees exactly what fsync
	// put on disk.
	_ = edge.Close()

	// The cloud keeps serving while the edge is down.
	srv.Do(func() {
		if err := master.JSON.PutScalar("root", "whileDown", 9); err != nil {
			t.Error(err)
		}
		if err := master.Files.Write("down.txt", []byte("cloud")); err != nil {
			t.Error(err)
		}
	})

	// Restart: recover the replica from disk.
	store2, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = store2.Close() }()
	rec := store2.Recovery()
	if rec.Empty() {
		t.Fatal("nothing recovered from the edge's data dir")
	}
	st2, err := RecoverReplicaState("edge1", rec)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := st2.JSON.MapGet("root", "k"); !ok || v.Num != 5 {
		t.Fatalf("recovered k=%v, want 5", v.Num)
	}
	if v, ok := st2.JSON.MapGet("root", "edgeLocal"); !ok || v.Num != 42 {
		t.Fatalf("recovered edgeLocal=%v, want 42", v.Num)
	}

	p2 := NewPersister(store2, 0)
	// Exactly the while-down delta should flow edge-ward on reconnect.
	var expectMissing int
	srv.Do(func() { expectMissing = master.Delta(p2.Heads()).Changes() })
	if expectMissing == 0 {
		t.Fatal("test needs a non-empty missing delta")
	}

	ep2 := &Endpoint{Name: "edge1", State: st2, Persist: p2, HeadsSource: p2.Heads}
	edge2, err := DialEdgeConfig(srv.Addr(), ep2, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = edge2.Close() }()

	if !waitFor(t, 5*time.Second, func() bool {
		ok := false
		srv.Do(func() { edge2.Do(func() { ok = master.Converged(st2) }) })
		return ok
	}) {
		t.Fatal("no convergence after restart")
	}

	es := edge2.Stats()
	if es.ChangesRecv != es.ChangesApplied {
		t.Fatalf("edge received %d changes but applied %d — duplicates crossed the restart",
			es.ChangesRecv, es.ChangesApplied)
	}
	if es.ChangesRecv != int64(expectMissing) {
		t.Fatalf("edge received %d changes, want exactly the missing %d", es.ChangesRecv, expectMissing)
	}
	ms := srv.Stats()
	if ms.ChangesRecv != ms.ChangesApplied {
		t.Fatalf("master received %d changes but applied %d — the restarted edge resent known state",
			ms.ChangesRecv, ms.ChangesApplied)
	}
	// The while-down state reached the recovered replica and disk.
	if v, ok := st2.JSON.MapGet("root", "whileDown"); !ok || v.Num != 9 {
		t.Fatalf("whileDown=%v after resync, want 9", v.Num)
	}
}

// TestTCPFreshDurableEdgeReceivesNothingKnown: a durable edge forked
// from the master but not yet synced to disk persists before it
// declares its heads, so the master does not reship the fork-point
// history the edge already holds.
func TestTCPFreshDurableEdgeReceivesNothingKnown(t *testing.T) {
	master := newState(t, "cloud")
	if err := master.JSON.PutScalar("root", "k", 1); err != nil {
		t.Fatal(err)
	}
	srv, err := ServeMasterConfig("127.0.0.1:0", &Endpoint{Name: "cloud", State: master}, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	st, err := master.Fork("edge1")
	if err != nil {
		t.Fatal(err)
	}
	ep, _ := durableEdge(t, "edge1", st, t.TempDir())
	edge, err := DialEdgeConfig(srv.Addr(), ep, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.Do(func() {
		if err := master.JSON.PutScalar("root", "k", 2); err != nil {
			t.Error(err)
		}
	})
	if !waitFor(t, 5*time.Second, func() bool {
		ok := false
		srv.Do(func() { edge.Do(func() { ok = master.Converged(st) }) })
		return ok
	}) {
		t.Fatal("no convergence")
	}
	_ = edge.Close()
	if es := edge.Stats(); es.ChangesRecv != 1 || es.ChangesApplied != 1 {
		t.Fatalf("edge received %d changes and applied %d, want only the new one", es.ChangesRecv, es.ChangesApplied)
	}
}

// tearLastSegment truncates n bytes off the newest non-empty WAL
// segment in dir — the on-disk signature of a write torn by a crash.
func tearLastSegment(t *testing.T, dir string, n int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	for i := len(segs) - 1; i >= 0; i-- {
		fi, err := os.Stat(segs[i])
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > n {
			if err := os.Truncate(segs[i], fi.Size()-n); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("no segment large enough to tear")
}

// TestTCPCrashTornFrameResync combines deterministic fault injection
// with a torn-write corrupter: the edge's link is severed mid-sync, the
// process "dies" leaving a torn final WAL frame, and the restarted
// replica must recover the valid prefix (never corrupted state) and
// converge through resync with zero duplicate applies.
func TestTCPCrashTornFrameResync(t *testing.T) {
	master := newState(t, "cloud")
	srv, err := ServeMasterConfig("127.0.0.1:0", &Endpoint{Name: "cloud", State: master}, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	st, err := master.Fork("edge1")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ep, _ := durableEdge(t, "edge1", st, dir)
	ctrl := faultnet.NewController()
	cfg := fastTCPConfig()
	cfg.Dialer = ctrl.Dialer()
	edge, err := DialEdgeConfig(srv.Addr(), ep, cfg)
	if err != nil {
		t.Fatal(err)
	}

	srv.Do(func() {
		for i := 1; i <= 8; i++ {
			if err := master.JSON.PutScalar("root", "k", float64(i)); err != nil {
				t.Error(err)
			}
		}
	})
	if !waitFor(t, 5*time.Second, func() bool {
		ok := false
		srv.Do(func() { edge.Do(func() { ok = master.Converged(st) }) })
		return ok
	}) {
		t.Fatal("no convergence before the crash")
	}

	// Sever the link mid-sync, then crash: the torn write chops the tail
	// of the last WAL frame, exactly what a power loss leaves behind.
	ctrl.Sever()
	_ = edge.Close()
	tearLastSegment(t, dir, 3)

	store2, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = store2.Close() }()
	rec := store2.Recovery()
	if !rec.Torn {
		t.Fatal("torn frame not detected on recovery")
	}
	// Recover() never returns corrupted state: the valid prefix loads
	// cleanly even though the tail was destroyed.
	st2, err := RecoverReplicaState("edge1", rec)
	if err != nil {
		t.Fatalf("recovered state is corrupt: %v", err)
	}

	p2 := NewPersister(store2, 0)
	ep2 := &Endpoint{Name: "edge1", State: st2, Persist: p2, HeadsSource: p2.Heads}
	edge2, err := DialEdgeConfig(srv.Addr(), ep2, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = edge2.Close() }()

	if !waitFor(t, 5*time.Second, func() bool {
		ok := false
		srv.Do(func() { edge2.Do(func() { ok = master.Converged(st2) }) })
		return ok
	}) {
		t.Fatal("no convergence after torn-frame recovery")
	}
	es := edge2.Stats()
	if es.ChangesRecv != es.ChangesApplied {
		t.Fatalf("edge received %d changes but applied %d — duplicates after torn recovery",
			es.ChangesRecv, es.ChangesApplied)
	}
	if es.ChangesApplied == 0 {
		t.Fatal("resync shipped nothing despite the torn tail")
	}
	if v, ok := st2.JSON.MapGet("root", "k"); !ok || v.Num != 8 {
		t.Fatalf("k=%v after resync, want 8", v.Num)
	}
}

// TestManagerDurableEndpoints runs the virtual-time transport with a
// WAL-backed edge: durability is a property of the Endpoint, not of the
// TCP transport.
func TestManagerDurableEndpoints(t *testing.T) {
	clock := simclock.New()
	master := newState(t, "cloud")
	mgr, err := NewManager(clock, &Endpoint{Name: "cloud", State: master}, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	st, err := master.Fork("edge1")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPersister(store, 0)
	link, err := netem.NewDuplex(clock, netem.FastWAN, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.AddEdge(&Endpoint{Name: "edge1", State: st, Persist: p}, link); err != nil {
		t.Fatal(err)
	}

	if err := master.JSON.PutScalar("root", "x", 3); err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	clock.RunUntil(10 * time.Second)
	mgr.Stop()
	clock.Run()
	if !master.Converged(st) {
		t.Fatal("virtual transport did not converge")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = store2.Close() }()
	st2, err := RecoverReplicaState("edge1", store2.Recovery())
	if err != nil {
		t.Fatal(err)
	}
	if !master.Converged(st2) {
		t.Fatal("recovered virtual edge does not match the master")
	}
}
