package statesync

import (
	"fmt"
	"testing"
	"time"
)

// hub is a master whose own tick never fires within a test (one hour)
// and two edges that push every 20 ms, so anything that reaches an
// edge within a second was forwarded on an event, not on the master's
// tick.
type hub struct {
	srv    *TCPMaster
	master *ReplicaState
	edges  [2]*TCPEdge
	states [2]*ReplicaState
}

func startHub(t *testing.T) *hub {
	t.Helper()
	h := &hub{master: newState(t, "cloud")}
	srv, err := ServeMasterConfig("127.0.0.1:0", &Endpoint{Name: "cloud", State: h.master}, DefaultTCPConfig(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	h.srv = srv
	t.Cleanup(func() { _ = srv.Close() })
	for i := range h.edges {
		st, err := h.master.Fork(crdtActor(fmt.Sprintf("hub-edge%d", i+1)))
		if err != nil {
			t.Fatal(err)
		}
		e, err := DialEdgeConfig(srv.Addr(), &Endpoint{Name: fmt.Sprintf("edge%d", i+1), State: st}, DefaultTCPConfig(20*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = e.Close() })
		h.edges[i], h.states[i] = e, st
	}
	return h
}

// reaches reports whether key arrives at edge i within a second.
func (h *hub) reaches(t *testing.T, i int, key string) bool {
	t.Helper()
	return waitFor(t, time.Second, func() bool {
		ok := false
		h.edges[i].Do(func() { ok = hasKey(h.states[i], key) })
		return ok
	})
}

// checkNoDuplicates asserts every node integrated every change it
// received, and that edge 1 received exactly wantEdge1 changes — none of
// them its own.
func (h *hub) checkNoDuplicates(t *testing.T, wantEdge1 int64) {
	t.Helper()
	// Leave room for an echo to arrive: several edge ticks.
	time.Sleep(100 * time.Millisecond)
	stats := map[string]TCPStats{"master": h.srv.Stats(), "edge1": h.edges[0].Stats(), "edge2": h.edges[1].Stats()}
	for name, st := range stats {
		if st.ChangesRecv != st.ChangesApplied {
			t.Errorf("%s received %d changes but applied %d", name, st.ChangesRecv, st.ChangesApplied)
		}
	}
	if got := stats["edge1"].ChangesRecv; got != wantEdge1 {
		t.Errorf("edge1 received %d changes, want %d: its own change came back", got, wantEdge1)
	}
	if stats["master"].WokenPushes == 0 {
		t.Error("the master forwarded without a woken push")
	}
	// Edges keep their tick: with the window never full, nothing wakes
	// an edge's pusher.
	for i, e := range h.edges {
		if got := e.Stats().WokenPushes; got != 0 {
			t.Errorf("edge%d made %d woken pushes, want 0", i+1, got)
		}
	}
}

// TestTCPMasterForwardsOnReceipt: an edge's write reaches its sibling
// as soon as the master has applied it.
func TestTCPMasterForwardsOnReceipt(t *testing.T) {
	h := startHub(t)
	h.edges[0].Do(func() { putKey(t, h.states[0], "from-edge1", 1) })
	if !h.reaches(t, 1, "from-edge1") {
		t.Fatal("edge1's write did not reach edge2 within 1s")
	}
	h.checkNoDuplicates(t, 0)
}

// TestTCPMasterPushesCloudCommit: a commit through the master's Do
// reaches every edge at once — including the edge whose own change the
// master already holds, which must not get that change back.
func TestTCPMasterPushesCloudCommit(t *testing.T) {
	h := startHub(t)
	h.edges[0].Do(func() { putKey(t, h.states[0], "from-edge1", 1) })
	if !h.reaches(t, 1, "from-edge1") {
		t.Fatal("edge1's write did not reach edge2 within 1s")
	}
	h.srv.Do(func() { putKey(t, h.master, "from-cloud", 2) })
	for i := range h.edges {
		if !h.reaches(t, i, "from-cloud") {
			t.Fatalf("the cloud commit did not reach edge%d within 1s", i+1)
		}
	}
	h.checkNoDuplicates(t, 1)
}

// TestTCPAckWakesStalledPusher: with a one-frame window, a push ships
// one change and stalls; each ack that frees the window wakes the
// pusher for the next, so the master's hour-long tick never matters.
func TestTCPAckWakesStalledPusher(t *testing.T) {
	mcfg := DefaultTCPConfig(time.Hour)
	mcfg.MaxInFlight, mcfg.MaxBatchChanges = 1, 1
	ecfg := mcfg
	ecfg.Interval = 20 * time.Millisecond
	srv, master, edge, st := startPair(t, mcfg, ecfg)
	// One Do, one wake: only acks can carry the other nine frames.
	srv.Do(func() {
		for i := 0; i < 10; i++ {
			putKey(t, master, fmt.Sprintf("c%d", i), float64(i))
			master.JSON.Commit("")
		}
	})
	if !waitFor(t, time.Second, func() bool {
		n := 0
		edge.Do(func() { n = len(st.JSON.ToGo()) })
		return n == 10
	}) {
		t.Fatal("10 cloud commits did not reach the edge within 1s")
	}
	if ms := srv.Stats(); ms.WindowStalls == 0 || ms.WokenPushes < 10 {
		t.Fatalf("master stalls %d, woken pushes %d: want stalls > 0 and ≥ 10 woken pushes",
			ms.WindowStalls, ms.WokenPushes)
	}
}

// TestWireConnAckWakesOnlyAfterStall pins the wake rule: an ack wakes
// the pusher once after a reservation the window cut short, and never
// after one it granted in full.
func TestWireConnAckWakesOnlyAfterStall(t *testing.T) {
	w := newWireConn(nil, TCPConfig{MaxInFlight: 2}, &frame{Window: 2})
	if got := w.reserveUpTo(2); got != 2 {
		t.Fatalf("granted %d of 2 on an empty window", got)
	}
	if w.ackRecv(2) {
		t.Fatal("an ack after a full grant woke the pusher")
	}
	if got := w.reserveUpTo(3); got != 2 {
		t.Fatalf("granted %d of 3 with 2 free slots, want 2", got)
	}
	if !w.ackRecv(1) {
		t.Fatal("the ack after a cut-short push did not wake the pusher")
	}
	if w.ackRecv(1) {
		t.Fatal("a second ack woke the pusher again")
	}
}
