package statesync

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/crdt"
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
	// An edge's pusher wakes on its own commits and nothing else: edge1
	// committed once, so it made at most one woken push (none if its
	// tick shipped the change first), and edge2, which only received,
	// made none.
	for i, most := range []int64{1, 0} {
		if got := h.edges[i].Stats().WokenPushes; got > most {
			t.Errorf("edge%d made %d woken pushes, want at most %d", i+1, got, most)
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

// TestTCPAckWakesStalledPusher: the ack that resumes a stalled pusher
// is TCP's own. A single wake starts a push of three writes' worth of
// one-change frames into net.Pipe, whose writes block until the peer
// reads; the pusher stays stalled inside its first write while the
// peer reads nothing, and finishes the push, with no second wake and
// its hour-long tick unfired, once the peer reads.
func TestTCPAckWakesStalledPusher(t *testing.T) {
	const commits = 3 * maxFramesPerWrite
	cfg := DefaultTCPConfig(time.Hour)
	cfg.MaxBatchChanges = 1
	// The peer below is a bare frame reader: it sends nothing, so the
	// session must neither expect its heartbeats nor send its own.
	cfg.ReadTimeout, cfg.Heartbeat = 0, 0
	st := newState(t, "stalled")
	known := st.Heads()
	for i := 0; i < commits; i++ {
		putKey(t, st, fmt.Sprintf("s%d", i), float64(i))
		st.JSON.Commit("")
	}
	side := &tcpSide{ep: &Endpoint{Name: "stalled", State: st}, cfg: cfg}
	wake := make(chan struct{}, 1)
	wake <- struct{}{}
	s := &tcpSession{tcpSide: side, known: &known, peer: "pipe peer", wake: wake}
	conn, peer := net.Pipe()
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		s.run(conn, bufio.NewReader(conn))
	}()
	defer func() {
		_ = conn.Close()
		_ = peer.Close()
		done.Wait()
		side.wg.Wait()
	}()

	// FramesSent is credited before the write, so it reads one chunk
	// while that chunk's write is blocked on the silent peer.
	if !waitFor(t, time.Second, func() bool { return side.Stats().FramesSent == maxFramesPerWrite }) {
		t.Fatalf("FramesSent = %d, want the first chunk of %d", side.Stats().FramesSent, maxFramesPerWrite)
	}
	time.Sleep(50 * time.Millisecond)
	if got := side.Stats().FramesSent; got != maxFramesPerWrite {
		t.Fatalf("FramesSent = %d with the peer reading nothing, want %d (stalled)", got, maxFramesPerWrite)
	}

	got := make(chan int64, 1)
	go func() {
		r := bufio.NewReader(peer)
		var dict crdt.StringDict
		var n int64
		for n < commits {
			f, _, err := readFrame(r, &dict)
			if err != nil {
				break
			}
			n += int64(f.Delta.Changes())
		}
		got <- n
	}()
	select {
	case n := <-got:
		if n != commits {
			t.Fatalf("peer read %d changes, want %d", n, commits)
		}
	case <-time.After(time.Second):
		t.Fatalf("the stalled push did not finish within 1s of the peer reading")
	}
	if ss := side.Stats(); ss.WokenPushes != 1 || ss.WindowStalls != 1 || ss.FramesSent != commits {
		t.Fatalf("woken pushes %d, stalls %d, frames sent %d: want 1, 1 and %d",
			ss.WokenPushes, ss.WindowStalls, ss.FramesSent, commits)
	}
}

// TestTCPMasterCreditsBeforeEdgeHolds pins the order of the master's
// sent-side stats: a push is credited before its frames are written, so
// once an edge holds a cloud commit, the master's FramesSent and
// BytesSent already include the frames that carried it — never trailing
// what the edges have received.
func TestTCPMasterCreditsBeforeEdgeHolds(t *testing.T) {
	const commits = 200
	h := startHub(t)
	for i := 0; i < commits; i++ {
		key := fmt.Sprint("cloud-", i)
		before := h.srv.Stats()
		h.srv.Do(func() { putKey(t, h.master, key, i) })
		for e := range h.edges {
			deadline := time.Now().Add(2 * time.Second)
			for held := false; !held; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("commit %d did not reach edge%d within 2s", i, e+1)
				}
				h.edges[e].Do(func() { held = hasKey(h.states[e], key) })
			}
		}
		var recv TCPStats
		for _, e := range h.edges {
			st := e.Stats()
			recv.FramesRecv += st.FramesRecv
			recv.BytesReceived += st.BytesReceived
		}
		sent := h.srv.Stats()
		if sent.FramesSent < recv.FramesRecv || sent.BytesSent < recv.BytesReceived {
			t.Fatalf("commit %d: the master credits %d frames, %d B; the edges already received %d frames, %d B",
				i, sent.FramesSent, sent.BytesSent, recv.FramesRecv, recv.BytesReceived)
		}
		if states := (sent.FramesSent - sent.HeartbeatsSent) - (before.FramesSent - before.HeartbeatsSent); states < int64(len(h.edges)) {
			t.Fatalf("commit %d reached both edges, but the master credits %d state frames for it, want ≥ %d", i, states, len(h.edges))
		}
	}
}
