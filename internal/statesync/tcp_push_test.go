package statesync

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/crdt"
	"repro/internal/faultnet"
	"repro/internal/obs"
)

// TestTCPEdgePushesCommitPaced: with both ticks an hour away, an edge
// commit reaches the master on its wake alone, within the pace plus
// scheduling slack, and a burst of commits inside one pace window
// rides at most two pushes — the deferred one, and one more only if
// the burst outlasted the window.
func TestTCPEdgePushesCommitPaced(t *testing.T) {
	const slack = 250 * time.Millisecond
	master := newState(t, "cloud")
	srv, err := ServeMasterConfig("127.0.0.1:0", &Endpoint{Name: "cloud", State: master}, DefaultTCPConfig(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	st, err := master.Fork("paced-edge")
	if err != nil {
		t.Fatal(err)
	}
	edge, err := DialEdgeConfig(srv.Addr(), &Endpoint{Name: "edge", State: st}, DefaultTCPConfig(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = edge.Close() }()
	atMaster := func(key string, within time.Duration) bool {
		return waitFor(t, within, func() bool {
			ok := false
			srv.Do(func() { ok = hasKey(master, key) })
			return ok
		})
	}

	edge.Do(func() { putKey(t, st, "first", 1) })
	if !atMaster("first", edgePace+slack) {
		t.Fatalf("an edge commit did not reach the master within %v with both ticks an hour away", edgePace+slack)
	}

	before := edge.Stats()
	const burst = 50
	start := time.Now()
	for i := 0; i < burst; i++ {
		edge.Do(func() {
			putKey(t, st, fmt.Sprint("burst-", i), i)
			st.JSON.Commit("")
		})
	}
	took := time.Since(start)
	if !atMaster(fmt.Sprint("burst-", burst-1), edgePace+slack) {
		t.Fatalf("the burst's last commit did not reach the master within %v of the burst's end", edgePace+slack)
	}
	after := edge.Stats()
	pushes := after.WokenPushes - before.WokenPushes
	// Each pace window the burst spans can hold one deferred push.
	most := int64(2) + int64(took/edgePace)
	if pushes > most || after.PacedPushes == before.PacedPushes {
		t.Fatalf("a burst of %d commits in %v made %d pushes (%d paced), want at most %d and one paced",
			burst, took, pushes, after.PacedPushes-before.PacedPushes, most)
	}
	if ms := srv.Stats(); ms.ChangesApplied != burst+1 || ms.ChangesRecv != ms.ChangesApplied {
		t.Fatalf("the master received %d changes and applied %d, want %d each", ms.ChangesRecv, ms.ChangesApplied, burst+1)
	}
}

// TestTCPSeverResetsDictionaries severs a live session whose
// dictionaries already hold every key, actor and component name, and
// keeps writing the same keys on both sides. The reconnect's hello
// starts both directions' dictionaries afresh, so the new session's
// frames carry those strings in full again and decode: the replicas
// converge, no frame fails to decode, and nothing is applied twice.
func TestTCPSeverResetsDictionaries(t *testing.T) {
	o := obs.New()
	master := newState(t, "cloud")
	srv, err := ServeMasterConfig("127.0.0.1:0", &Endpoint{Name: "cloud", State: master}, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	srv.SetObs(o)
	var mu sync.Mutex
	var frameErrs []error
	record := func(err error) {
		if errors.Is(err, errFrameFormat) {
			mu.Lock()
			frameErrs = append(frameErrs, err)
			mu.Unlock()
		}
	}
	srv.SetErrorHandler(record)

	st, err := master.Fork("dict-edge")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := faultnet.NewController()
	cfg := fastTCPConfig()
	cfg.Dialer = ctrl.Dialer()
	edge, err := DialEdgeConfig(srv.Addr(), &Endpoint{Name: "dict-edge", State: st}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = edge.Close() }()
	edge.SetObs(o)
	edge.SetErrorHandler(record)

	write := func(round int) {
		for i := 0; i < 10; i++ {
			edge.Do(func() { putKey(t, st, fmt.Sprint("edge-key-", i), round) })
			srv.Do(func() { putKey(t, master, fmt.Sprint("cloud-key-", i%3), round) })
			time.Sleep(time.Millisecond)
		}
	}
	converged := func() bool {
		ok := false
		srv.Do(func() { edge.Do(func() { ok = master.Converged(st) }) })
		return ok
	}
	for round := 0; round < 3; round++ {
		write(round)
	}
	if !waitFor(t, 5*time.Second, converged) {
		t.Fatal("no convergence before the sever")
	}
	ctrl.Sever()
	for round := 3; round < 6; round++ {
		write(round)
	}
	if !waitFor(t, 10*time.Second, func() bool { return converged() && edge.Status().Reconnects >= 1 }) {
		t.Fatalf("no convergence after the sever: status=%+v", edge.Status())
	}
	var got any
	srv.Do(func() { got = master.JSON.ToGo()["edge-key-9"] })
	if got != float64(5) {
		t.Fatalf("edge-key-9 = %v at the master, want the last round's 5", got)
	}
	if n := o.Counter("statesync.duplicate_applies").Value(); n != 0 {
		t.Errorf("statesync.duplicate_applies = %d across the reconnect, want 0", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(frameErrs) > 0 {
		t.Errorf("%d frames failed to decode, first: %v", len(frameErrs), frameErrs[0])
	}
}

// TestTCPSeverResetsDependencyMemory severs one of two edges while all
// three replicas keep committing, so every change depends on entries
// that move: each direction's dependency memory holds the vectors of
// every author it carried, the edge's own among them, when the link
// drops. The reconnect's hello starts both of the severed session's
// memories afresh, so its first frames list their dependencies in
// full, while the other edge's session keeps its memories: the
// replicas converge, no frame fails to decode, and nothing is applied
// twice.
func TestTCPSeverResetsDependencyMemory(t *testing.T) {
	o := obs.New()
	master := newState(t, "cloud")
	srv, err := ServeMasterConfig("127.0.0.1:0", &Endpoint{Name: "cloud", State: master}, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	srv.SetObs(o)
	var mu sync.Mutex
	var frameErrs []error
	record := func(err error) {
		if errors.Is(err, errFrameFormat) || errors.Is(err, crdt.ErrBinaryFormat) {
			mu.Lock()
			frameErrs = append(frameErrs, err)
			mu.Unlock()
		}
	}
	srv.SetErrorHandler(record)

	ctrl := faultnet.NewController()
	type edgeNode struct {
		st   *ReplicaState
		edge *TCPEdge
	}
	var edges []edgeNode
	for i, name := range []string{"severed", "steady"} {
		st, err := master.Fork(crdt.ActorID(name))
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastTCPConfig()
		if i == 0 {
			cfg.Dialer = ctrl.Dialer()
		}
		edge, err := DialEdgeConfig(srv.Addr(), &Endpoint{Name: name, State: st}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = edge.Close() }()
		edge.SetObs(o)
		edge.SetErrorHandler(record)
		edges = append(edges, edgeNode{st, edge})
	}

	write := func(round int) {
		for i := 0; i < 10; i++ {
			for _, e := range edges {
				e.edge.Do(func() { putKey(t, e.st, fmt.Sprint(e.edge.ep.Name, "-", i%4), round) })
			}
			srv.Do(func() { putKey(t, master, fmt.Sprint("cloud-", i%3), round) })
			time.Sleep(time.Millisecond)
		}
	}
	converged := func() bool {
		ok := true
		for _, e := range edges {
			srv.Do(func() { e.edge.Do(func() { ok = ok && master.Converged(e.st) }) })
		}
		return ok
	}
	for round := 0; round < 3; round++ {
		write(round)
	}
	if !waitFor(t, 5*time.Second, converged) {
		t.Fatal("no convergence before the sever")
	}
	ctrl.Sever()
	for round := 3; round < 6; round++ {
		write(round)
	}
	severed := edges[0].edge
	if !waitFor(t, 10*time.Second, func() bool { return converged() && severed.Status().Reconnects >= 1 }) {
		t.Fatalf("no convergence after the sever: status=%+v", severed.Status())
	}
	for _, key := range []string{"severed-3", "steady-3", "cloud-2"} {
		for i, e := range edges {
			var got any
			e.edge.Do(func() { got = e.st.JSON.ToGo()[key] })
			if got != float64(5) {
				t.Fatalf("%s = %v at edge %d, want the last round's 5", key, got, i)
			}
		}
	}
	if n := o.Counter("statesync.duplicate_applies").Value(); n != 0 {
		t.Errorf("statesync.duplicate_applies = %d across the reconnect, want 0", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(frameErrs) > 0 {
		t.Errorf("%d frames failed to decode, first: %v", len(frameErrs), frameErrs[0])
	}
}
