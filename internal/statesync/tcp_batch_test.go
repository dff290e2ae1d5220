package statesync

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// startPair boots a master and one forked edge with the given configs
// and registers cleanup. The master's config gets the listener address
// filled implicitly; both intervals must already be set.
func startPair(t *testing.T, mcfg, ecfg TCPConfig) (*TCPMaster, *ReplicaState, *TCPEdge, *ReplicaState) {
	t.Helper()
	master := newState(t, "cloud")
	srv, err := ServeMasterConfig("127.0.0.1:0", &Endpoint{Name: "cloud", State: master}, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	st, err := master.Fork("batch-edge")
	if err != nil {
		t.Fatal(err)
	}
	edge, err := DialEdgeConfig(srv.Addr(), &Endpoint{Name: "edge", State: st}, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = edge.Close() })
	return srv, master, edge, st
}

// waitConverged polls until master and edge hold identical state.
func waitConverged(t *testing.T, srv *TCPMaster, master *ReplicaState, edge *TCPEdge, st *ReplicaState) {
	t.Helper()
	ok := waitFor(t, 5*time.Second, func() bool {
		conv := false
		srv.Do(func() { edge.Do(func() { conv = master.Converged(st) }) })
		return conv
	})
	if !ok {
		t.Fatal("replicas did not converge")
	}
}

// TestTCPChunkedDeltaWithAcks pushes a delta far larger than the
// per-frame change cap and verifies it arrives chunked (many state
// frames in one push) and the replicas still converge exactly.
func TestTCPChunkedDeltaWithAcks(t *testing.T) {
	cfg := DefaultTCPConfig(10 * time.Millisecond)
	cfg.MaxBatchChanges = 4
	srv, master, edge, st := startPair(t, cfg, cfg)

	edge.Do(func() {
		// Commit per write: each becomes its own change, so the delta
		// carries 40 changes and must chunk at 4 per frame.
		for i := 0; i < 40; i++ {
			if err := st.JSON.PutScalar("root", fmt.Sprintf("k%d", i), float64(i)); err != nil {
				t.Error(err)
			}
			st.JSON.Commit("")
		}
	})
	waitConverged(t, srv, master, edge, st)

	es, ms := edge.Stats(), srv.Stats()
	// 40+ changes at 4 per frame: the push must have been chunked.
	if es.FramesSent < 10 {
		t.Fatalf("edge sent %d frames, want ≥ 10 (chunking)", es.FramesSent)
	}
	if ms.ChangesRecv != ms.ChangesApplied {
		t.Fatalf("duplicates slipped through chunking: recv %d / applied %d", ms.ChangesRecv, ms.ChangesApplied)
	}
}

// TestTCPCompressionNegotiated verifies that each sender compresses
// by its own Compression setting alone, whatever the peer's, and that
// large CRDT-Files payloads arrive intact both ways.
func TestTCPCompressionNegotiated(t *testing.T) {
	up := []byte(strings.Repeat("edgstr highly compressible edge state ", 512))
	down := []byte(strings.Repeat("edgstr highly compressible cloud state ", 512))
	for _, tc := range []struct{ masterOn, edgeOn bool }{{true, false}, {false, true}} {
		mcfg := DefaultTCPConfig(10 * time.Millisecond)
		mcfg.Compression = tc.masterOn
		ecfg := DefaultTCPConfig(10 * time.Millisecond)
		ecfg.Compression = tc.edgeOn
		srv, master, edge, st := startPair(t, mcfg, ecfg)
		edge.Do(func() {
			if err := st.Files.Write("up.bin", up); err != nil {
				t.Error(err)
			}
		})
		srv.Do(func() {
			if err := master.Files.Write("down.bin", down); err != nil {
				t.Error(err)
			}
		})
		waitConverged(t, srv, master, edge, st)
		var gotUp, gotDown []byte
		srv.Do(func() { gotUp, _ = master.Files.Read("up.bin") })
		edge.Do(func() { gotDown, _ = st.Files.Read("down.bin") })
		if string(gotUp) != string(up) || string(gotDown) != string(down) {
			t.Fatalf("master %v, edge %v: payload corrupted in transit (%d and %d bytes arrived)",
				tc.masterOn, tc.edgeOn, len(gotUp), len(gotDown))
		}
		for _, side := range []struct {
			name string
			on   bool
			n    int64
		}{{"master", tc.masterOn, srv.Stats().CompressedFrames}, {"edge", tc.edgeOn, edge.Stats().CompressedFrames}} {
			if side.on != (side.n > 0) {
				t.Errorf("master %v, edge %v: %s compressed %d frames with its Compression %v",
					tc.masterOn, tc.edgeOn, side.name, side.n, side.on)
			}
		}
	}
}

// TestTCPCoalescingElidesOverwrites drives hot-key overwrite traffic
// and verifies the pusher's coalescer drops the eclipsed ops while the
// surviving batch still converges to the final value.
func TestTCPCoalescingElidesOverwrites(t *testing.T) {
	cfg := DefaultTCPConfig(20 * time.Millisecond)
	srv, master, edge, st := startPair(t, cfg, cfg)
	edge.Do(func() {
		for i := 0; i < 50; i++ {
			if err := st.JSON.PutScalar("root", "hot", float64(i)); err != nil {
				t.Error(err)
			}
		}
	})
	waitConverged(t, srv, master, edge, st)
	if got := edge.Stats().OpsElided; got == 0 {
		t.Fatal("50 overwrites of one key in one push elided nothing")
	}
	var v float64
	srv.Do(func() {
		if val, ok := master.JSON.MapGet("root", "hot"); ok {
			v = val.Num
		}
	})
	if v != 49 {
		t.Fatalf("master hot = %v, want 49 (last write)", v)
	}
}

// TestTCPWokenPushShipsWholeDelta: one cloud Do commits far more
// one-change frames than one write carries, on a master whose own tick
// never fires within the test. The single push that Do wakes ships them
// all, in several writes that TCP paces, within a second.
func TestTCPWokenPushShipsWholeDelta(t *testing.T) {
	const commits = 4*maxFramesPerWrite - 8
	mcfg := DefaultTCPConfig(time.Hour)
	mcfg.MaxBatchChanges = 1
	ecfg := mcfg
	ecfg.Interval = 20 * time.Millisecond
	srv, master, edge, st := startPair(t, mcfg, ecfg)
	srv.Do(func() {
		for i := 0; i < commits; i++ {
			putKey(t, master, fmt.Sprintf("c%d", i), float64(i))
			master.JSON.Commit("")
		}
	})
	if !waitFor(t, time.Second, func() bool {
		n := 0
		edge.Do(func() { n = len(st.JSON.ToGo()) })
		return n == commits
	}) {
		t.Fatalf("%d cloud commits did not reach the edge within 1s", commits)
	}
	if ms := srv.Stats(); ms.WindowStalls < 1 || ms.WokenPushes != 1 {
		t.Fatalf("master multi-write pushes %d, woken pushes %d: want ≥ 1 and exactly 1",
			ms.WindowStalls, ms.WokenPushes)
	}
}

// TestTCPWindowBoundsInflight gives the edge one push of twice as many
// frames as one write carries and verifies the pusher cuts it into
// writes of at most maxFramesPerWrite frames (what it holds encoded at
// once stays bounded), counts the push as a stall, and still drains
// the whole delta.
func TestTCPWindowBoundsInflight(t *testing.T) {
	const changes = 4 * maxFramesPerWrite
	cfg := DefaultTCPConfig(10 * time.Millisecond)
	cfg.MaxBatchChanges = 2
	srv, master, edge, st := startPair(t, cfg, cfg)
	o := obs.New()
	edge.SetObs(o)
	edge.Do(func() {
		for i := 0; i < changes; i++ {
			if err := st.JSON.PutScalar("root", fmt.Sprintf("w%d", i), float64(i)); err != nil {
				t.Error(err)
			}
			st.JSON.Commit("")
		}
	})
	waitConverged(t, srv, master, edge, st)
	if got := edge.Stats().WindowStalls; got == 0 {
		t.Fatalf("%d changes at 2/frame in one push never stalled", changes)
	}
	perWrite := o.Histogram("statesync.tcp.edge.edge.batch.frames_per_write")
	if n, most := perWrite.Count(), perWrite.Quantile(100); n < 2 || most > maxFramesPerWrite {
		t.Fatalf("%d state writes of at most %v frames: want ≥ 2 writes of ≤ %d",
			n, most, maxFramesPerWrite)
	}
}

// TestTCPSessionsPushBothWaysOverPipe runs two sessions over net.Pipe,
// whose writes block until the peer reads, and has each push a
// 1000-frame delta at the other at once. Both readers must keep reading
// while both pushers are blocked writing; a reader that also writes (an
// ack through a lock its blocked pusher holds) deadlocks the pair.
func TestTCPSessionsPushBothWaysOverPipe(t *testing.T) {
	const commits = 1000
	cfg := DefaultTCPConfig(time.Hour)
	cfg.MaxBatchChanges = 1
	a := newState(t, "pipe-a")
	b, err := a.Fork("pipe-b")
	if err != nil {
		t.Fatal(err)
	}
	forked := a.Heads()
	for i, st := range []*ReplicaState{a, b} {
		for j := 0; j < commits; j++ {
			putKey(t, st, fmt.Sprintf("s%d-k%d", i, j), float64(j))
			st.JSON.Commit("")
		}
	}
	sides := [2]*tcpSide{
		{ep: &Endpoint{Name: "a", State: a}, cfg: cfg},
		{ep: &Endpoint{Name: "b", State: b}, cfg: cfg},
	}
	var conns [2]net.Conn
	conns[0], conns[1] = net.Pipe()
	var done sync.WaitGroup
	for i, side := range sides {
		known := mergeHeads(nil, forked)
		// Both pushers start at once, on a wake; the hour-long tick
		// never fires.
		wake := make(chan struct{}, 1)
		wake <- struct{}{}
		s := &tcpSession{tcpSide: side, known: &known, peer: "pipe peer", wake: wake}
		done.Add(1)
		go func() {
			defer done.Done()
			s.run(conns[i], bufio.NewReader(conns[i]))
		}()
	}
	converged := waitFor(t, 5*time.Second, func() bool {
		conv := false
		sides[0].Do(func() { sides[1].Do(func() { conv = a.Converged(b) }) })
		return conv
	})
	for _, c := range conns {
		_ = c.Close()
	}
	done.Wait()
	for _, side := range sides {
		side.wg.Wait()
	}
	if !converged {
		t.Fatal("two sessions pushing at each other over a pipe did not converge within 5s")
	}
	for i, side := range sides {
		if st := side.Stats(); st.ChangesRecv != commits || st.ChangesApplied != commits {
			t.Errorf("side %d received %d and applied %d changes, want %d of each",
				i, st.ChangesRecv, st.ChangesApplied, commits)
		}
	}
}

// TestBuildStateFramesChunking pins the chunker: order preserved,
// change counts respected, every change shipped exactly once.
func TestBuildStateFramesChunking(t *testing.T) {
	st := newState(t, "chunk")
	for i := 0; i < 10; i++ {
		if err := st.JSON.PutScalar("root", fmt.Sprintf("k%d", i), float64(i)); err != nil {
			t.Fatal(err)
		}
		st.JSON.Commit("")
	}
	if err := st.Files.Write("f.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	delta := st.Delta(nil)
	total := delta.Changes()
	frames, _ := buildStateFrames(delta, 3, false)
	if len(frames) < 4 {
		t.Fatalf("%d changes at 3 per frame yielded %d frames", total, len(frames))
	}
	sum := 0
	for _, f := range frames {
		n := f.Delta.Changes()
		if n == 0 || n > 3 {
			t.Fatalf("frame carries %d changes, want 1..3", n)
		}
		sum += n
	}
	if sum != total {
		t.Fatalf("chunker shipped %d changes, delta had %d", sum, total)
	}
	// Replaying the chunks in order must land the same state as
	// replaying the whole delta at once. (Both targets are fresh states
	// with their own independently created component roots, so compare
	// them to each other, not to the source.)
	whole := newState(t, "replay")
	if err := whole.Apply(delta); err != nil {
		t.Fatal(err)
	}
	chunked := newState(t, "replay") // same actor: identical tiebreaks
	for _, f := range frames {
		if err := chunked.Apply(f.Delta); err != nil {
			t.Fatal(err)
		}
	}
	if !whole.Converged(chunked) {
		t.Fatal("chunked replay diverged from whole-delta replay")
	}
}

// BenchmarkBuildStateFrames measures the pusher's per-tick frame
// construction — coalescing plus chunking — over a 256-change delta
// with a hot key (half the writes coalesce away).
func BenchmarkBuildStateFrames(b *testing.B) {
	st, err := NewReplicaState("bench")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		key := "hot"
		if i%2 == 0 {
			key = fmt.Sprintf("k%d", i)
		}
		if err := st.JSON.PutScalar("root", key, float64(i)); err != nil {
			b.Fatal(err)
		}
		st.JSON.Commit("")
	}
	delta := st.Delta(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frames, _ := buildStateFrames(delta, 64, true)
		if len(frames) == 0 {
			b.Fatal("no frames built")
		}
	}
}
