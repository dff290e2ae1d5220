package statesync

import (
	"fmt"
	"strings"
	"testing"
	"time"
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
// frames in one push), the receiver acknowledges via watermark acks,
// and the replicas still converge exactly.
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

	// Convergence only proves the master applied everything; its ack
	// frames may still be in flight back to the edge, so poll for parity
	// before asserting on it.
	waitFor(t, 5*time.Second, func() bool {
		return edge.Stats().AcksRecv == srv.Stats().AcksSent
	})
	es, ms := edge.Stats(), srv.Stats()
	// 40+ changes at 4 per frame: the push must have been chunked.
	if es.FramesSent < 10 {
		t.Fatalf("edge sent %d frames, want ≥ 10 (chunking)", es.FramesSent)
	}
	if ms.AcksSent == 0 {
		t.Fatalf("master sent no acks for %d received frames", ms.FramesRecv)
	}
	if es.AcksRecv != ms.AcksSent {
		t.Fatalf("ack mismatch: master sent %d, edge saw %d", ms.AcksSent, es.AcksRecv)
	}
	if ms.ChangesRecv != ms.ChangesApplied {
		t.Fatalf("duplicates slipped through chunking: recv %d / applied %d", ms.ChangesRecv, ms.ChangesApplied)
	}
}

// TestTCPCompressionNegotiated verifies flate compression engages when
// both sides enable it, stays off when only one side does, and never
// corrupts large CRDT-Files payloads.
func TestTCPCompressionNegotiated(t *testing.T) {
	payload := []byte(strings.Repeat("edgstr highly compressible state ", 512))
	run := func(masterOn, edgeOn bool) (TCPStats, TCPStats) {
		mcfg := DefaultTCPConfig(10 * time.Millisecond)
		mcfg.Compression = masterOn
		ecfg := DefaultTCPConfig(10 * time.Millisecond)
		ecfg.Compression = edgeOn
		srv, master, edge, st := startPair(t, mcfg, ecfg)
		edge.Do(func() {
			if err := st.Files.Write("big.bin", payload); err != nil {
				t.Error(err)
			}
		})
		waitConverged(t, srv, master, edge, st)
		var got []byte
		srv.Do(func() { got, _ = master.Files.Read("big.bin") })
		if string(got) != string(payload) {
			t.Fatalf("payload corrupted in transit (%d bytes arrived)", len(got))
		}
		return edge.Stats(), srv.Stats()
	}

	es, _ := run(true, true)
	if es.CompressedFrames == 0 {
		t.Fatal("both sides enabled compression but no frame was compressed")
	}
	es, ms := run(false, true)
	if es.CompressedFrames != 0 || ms.CompressedFrames != 0 {
		t.Fatalf("one-sided compression engaged: edge %d, master %d compressed frames",
			es.CompressedFrames, ms.CompressedFrames)
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

// TestTCPWindowBoundsInflight shrinks the window below what one large
// push needs and verifies the pusher stalls (bounded in-flight) yet the
// delta still drains over subsequent ticks.
func TestTCPWindowBoundsInflight(t *testing.T) {
	cfg := DefaultTCPConfig(10 * time.Millisecond)
	cfg.MaxBatchChanges = 2
	cfg.MaxInFlight = 4
	srv, master, edge, st := startPair(t, cfg, cfg)
	edge.Do(func() {
		for i := 0; i < 60; i++ {
			if err := st.JSON.PutScalar("root", fmt.Sprintf("w%d", i), float64(i)); err != nil {
				t.Error(err)
			}
			st.JSON.Commit("")
		}
	})
	waitConverged(t, srv, master, edge, st)
	if got := edge.Stats().WindowStalls; got == 0 {
		t.Fatal("60 changes at 2/frame with a 4-frame window never stalled")
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
