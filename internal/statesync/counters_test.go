package statesync

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// forgetfulEdge forks an edge from a master holding two changes and
// makes it declare empty heads on handshake, so the master reships
// changes the edge already holds.
func forgetfulEdge(t *testing.T) (master *ReplicaState, edge *Endpoint) {
	t.Helper()
	master = newState(t, "cloud")
	for _, k := range []string{"a", "b"} {
		if err := master.JSON.PutScalar("root", k, 1); err != nil {
			t.Fatal(err)
		}
	}
	st, err := master.Fork("edge")
	if err != nil {
		t.Fatal(err)
	}
	return master, &Endpoint{Name: "edge", State: st, HeadsSource: func() Heads { return Heads{} }}
}

// TestManagerCountsDuplicateApplies pins that the duplicate-apply
// invariant is measured, not assumed: an edge that under-declares its
// heads receives changes it holds, and Manager counts them in Stats and
// in statesync.duplicate_applies.
func TestManagerCountsDuplicateApplies(t *testing.T) {
	clock := simclock.New()
	master, edge := forgetfulEdge(t)
	mgr, err := NewManager(clock, &Endpoint{Name: "cloud", State: master}, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	mgr.SetObs(o)
	link, err := netem.NewDuplex(clock, netem.FastWAN, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.AddEdge(edge, link); err != nil {
		t.Fatal(err)
	}
	if err := master.JSON.PutScalar("root", "c", 1); err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	clock.RunUntil(3 * time.Second)
	mgr.Stop()
	clock.Run()
	if !mgr.Converged() {
		t.Fatal("replicas did not converge")
	}
	st := mgr.Stats()
	if st.AppliedChanges == 0 || st.DuplicateApplies == 0 {
		t.Fatalf("applied %d, duplicates %d; want both > 0", st.AppliedChanges, st.DuplicateApplies)
	}
	if got := o.Counter("statesync.duplicate_applies").Value(); got != st.DuplicateApplies {
		t.Fatalf("statesync.duplicate_applies = %d, want %d", got, st.DuplicateApplies)
	}
	if got := o.Counter("statesync.applied_changes").Value(); got != st.AppliedChanges {
		t.Fatalf("statesync.applied_changes = %d, want %d", got, st.AppliedChanges)
	}
}

// TestTCPCountsDuplicateApplies is the same check over TCP: the edge
// credits received-minus-applied to statesync.duplicate_applies.
func TestTCPCountsDuplicateApplies(t *testing.T) {
	master, edge := forgetfulEdge(t)
	srv, err := ServeMasterConfig("127.0.0.1:0", &Endpoint{Name: "cloud", State: master}, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	o := obs.New()
	srv.SetObs(o)
	e, err := DialEdgeConfig(srv.Addr(), edge, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	e.SetObs(o)
	if !waitFor(t, 5*time.Second, func() bool {
		st := e.Stats()
		return st.ChangesRecv > st.ChangesApplied
	}) {
		t.Fatal("master never reshipped the under-declared changes")
	}
	st := e.Stats()
	if got := o.Counter("statesync.duplicate_applies").Value(); got != st.ChangesRecv-st.ChangesApplied {
		t.Fatalf("statesync.duplicate_applies = %d, want %d", got, st.ChangesRecv-st.ChangesApplied)
	}
}

// stallConn passes every Write through to the peer and then, while
// armed, blocks until released — the window in which the peer already
// holds the frames but the writer has not returned.
type stallConn struct {
	net.Conn
	armed   *atomic.Bool
	release <-chan struct{}
}

func (c *stallConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if c.armed.Load() {
		<-c.release
	}
	return n, err
}

// TestTCPStatsCreditedBeforeWrite pins the send-side ordering: a frame
// the master has received is already in the edge's FramesSent, even
// while the edge's write has not returned.
func TestTCPStatsCreditedBeforeWrite(t *testing.T) {
	master := newState(t, "cloud")
	srv, err := ServeMasterConfig("127.0.0.1:0", &Endpoint{Name: "cloud", State: master}, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	st, err := master.Fork("edge")
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { armed.Store(false); close(release) }) }
	cfg := fastTCPConfig()
	cfg.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &stallConn{Conn: c, armed: &armed, release: release}, nil
	}
	edge, err := DialEdgeConfig(srv.Addr(), &Endpoint{Name: "edge", State: st}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A stalled writer must be released before Close can join it.
	defer func() { unblock(); _ = edge.Close() }()

	// From here on, every edge write stalls once its bytes are out, so
	// the master can receive a frame beyond the k-1 already credited.
	armed.Store(true)
	k := edge.Stats().FramesSent + 1
	edge.Do(func() {
		if err := st.JSON.PutScalar("root", "v", 1); err != nil {
			t.Error(err)
		}
	})
	if !waitFor(t, 5*time.Second, func() bool { return srv.Stats().FramesRecv >= k }) {
		t.Fatal("master never received the stalled write")
	}
	if got := edge.Stats().FramesSent; got < k {
		t.Fatalf("edge FramesSent = %d while the master holds %d frames", got, k)
	}
}
