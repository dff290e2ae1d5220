package statesync

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/obs"
)

// fastTCPConfig returns aggressive timings so fault scenarios play out
// within a few hundred milliseconds even under the race detector.
func fastTCPConfig() TCPConfig {
	return TCPConfig{
		Interval:    5 * time.Millisecond,
		DialTimeout: 250 * time.Millisecond,
		ReadTimeout: 150 * time.Millisecond,
		Heartbeat:   25 * time.Millisecond,
		Backoff: BackoffConfig{
			Min:        5 * time.Millisecond,
			Max:        40 * time.Millisecond,
			Multiplier: 2,
			Jitter:     0.2,
		},
		Seed: 7,
	}
}

// TestTCPPartitionHealConverges is the acceptance scenario: sever the
// edge↔master connection mid-sync, let both sides mutate during the
// partition, and verify the supervised reconnect re-handshakes from the
// CRDT heads — full convergence, no duplicate op application, no
// endpoint restart.
func TestTCPPartitionHealConverges(t *testing.T) {
	master := newState(t, "cloud")
	srv, err := ServeMasterConfig("127.0.0.1:0", &Endpoint{Name: "cloud", State: master}, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	st, err := master.Fork("fault-edge")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := faultnet.NewController()
	cfg := fastTCPConfig()
	cfg.Dialer = ctrl.Dialer()
	edge, err := DialEdgeConfig(srv.Addr(), &Endpoint{Name: "edge", State: st}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = edge.Close() }()

	// Pre-partition traffic establishes a live sync.
	edge.Do(func() {
		if err := st.JSON.PutScalar("root", "before", 1); err != nil {
			t.Error(err)
		}
	})
	if !waitFor(t, 5*time.Second, func() bool {
		ok := false
		srv.Do(func() { edge.Do(func() { ok = master.Converged(st) }) })
		return ok
	}) {
		t.Fatal("no convergence before the partition")
	}

	// Sever mid-sync and mutate both sides while partitioned.
	ctrl.Sever()
	edge.Do(func() {
		if err := st.JSON.PutScalar("root", "edgeSide", 2); err != nil {
			t.Error(err)
		}
		if err := st.Files.Write("partition.txt", []byte("edge")); err != nil {
			t.Error(err)
		}
	})
	srv.Do(func() {
		if err := master.JSON.PutScalar("root", "cloudSide", 3); err != nil {
			t.Error(err)
		}
	})

	// The supervisor reconnects through the (healed) dialer and both
	// sides converge without either endpoint restarting.
	if !waitFor(t, 10*time.Second, func() bool {
		ok := false
		srv.Do(func() { edge.Do(func() { ok = master.Converged(st) }) })
		return ok && edge.Status().Reconnects >= 1
	}) {
		t.Fatalf("no convergence after heal: status=%+v", edge.Status())
	}
	if got := edge.Status().State; got != ConnConnected {
		t.Fatalf("edge state = %q, want %q", got, ConnConnected)
	}

	// The re-handshake declared both sides' heads, so nobody resent
	// operations the peer already held: every received change applied.
	es, ms := edge.Stats(), srv.Stats()
	if es.ChangesRecv != es.ChangesApplied {
		t.Fatalf("edge received %d changes but applied %d — duplicates crossed the reconnect",
			es.ChangesRecv, es.ChangesApplied)
	}
	if ms.ChangesRecv != ms.ChangesApplied {
		t.Fatalf("master received %d changes but applied %d — duplicates crossed the reconnect",
			ms.ChangesRecv, ms.ChangesApplied)
	}
	if es.ChangesApplied == 0 || ms.ChangesApplied == 0 {
		t.Fatalf("no changes flowed (edge %+v, master %+v)", es, ms)
	}
	var cloudSide float64
	edge.Do(func() {
		if v, ok := st.JSON.MapGet("root", "cloudSide"); ok {
			cloudSide = v.Num
		}
	})
	if cloudSide != 3 {
		t.Fatalf("edge cloudSide = %v, want 3", cloudSide)
	}
}

// TestTCPHeartbeatDetectsDeadPeer blackholes the edge's writes (a
// half-open link: no FIN, no RST, just silence) and verifies the
// master's read deadline declares the edge dead, then that the edge
// re-establishes the session once the blackhole lifts.
func TestTCPHeartbeatDetectsDeadPeer(t *testing.T) {
	master := newState(t, "cloud")
	srv, err := ServeMasterConfig("127.0.0.1:0", &Endpoint{Name: "cloud", State: master}, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	st, err := master.Fork("hb-edge")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := faultnet.NewController()
	cfg := fastTCPConfig()
	cfg.Dialer = ctrl.Dialer()
	edge, err := DialEdgeConfig(srv.Addr(), &Endpoint{Name: "hb-edge", State: st}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = edge.Close() }()

	if !waitFor(t, 5*time.Second, func() bool { return len(srv.Connections()) == 1 }) {
		t.Fatal("edge never registered at the master")
	}

	ctrl.SetBlackhole(true)
	// The master hears nothing within ReadTimeout and tears the session
	// down; the stale socket leaves the registry.
	if !waitFor(t, 5*time.Second, func() bool { return len(srv.Connections()) == 0 }) {
		t.Fatal("master never declared the silent edge dead")
	}

	ctrl.SetBlackhole(false)
	if !waitFor(t, 10*time.Second, func() bool {
		return edge.Status().State == ConnConnected && edge.Status().Reconnects >= 1 &&
			len(srv.Connections()) == 1
	}) {
		t.Fatalf("edge never recovered: status=%+v master conns=%d",
			edge.Status(), len(srv.Connections()))
	}
	if srv.Stats().HeartbeatsRecv == 0 && edge.Stats().HeartbeatsRecv == 0 {
		t.Fatal("no heartbeats observed on either side")
	}
}

// TestTCPNoEchoOfPeerChanges pins the receive-side send-cursor
// advance: operations the edge ships to the master must never be
// pushed back at the edge (the CRDT would drop them as duplicates, but
// the bandwidth and the Recv/Applied gap are real).
func TestTCPNoEchoOfPeerChanges(t *testing.T) {
	master := newState(t, "cloud")
	cfg := fastTCPConfig()
	srv, err := ServeMasterConfig("127.0.0.1:0", &Endpoint{Name: "cloud", State: master}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	st, err := master.Fork("echo-edge")
	if err != nil {
		t.Fatal(err)
	}
	edge, err := DialEdgeConfig(srv.Addr(), &Endpoint{Name: "echo-edge", State: st}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = edge.Close() }()

	edge.Do(func() {
		if err := st.JSON.PutScalar("root", "mine", 1); err != nil {
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
	// Give the master's pusher many more ticks to (wrongly) echo.
	time.Sleep(20 * cfg.Interval)
	es, ms := edge.Stats(), srv.Stats()
	if ms.ChangesRecv != ms.ChangesApplied {
		t.Fatalf("master recv %d / applied %d", ms.ChangesRecv, ms.ChangesApplied)
	}
	if es.ChangesRecv != 0 {
		t.Fatalf("master echoed %d changes back at their origin", es.ChangesRecv)
	}
}

// TestTCPMasterCloseWithLiveEdges is the deadlock regression: Close
// must tear down live sessions (whose readers block in readFrame) and
// return promptly, not wait for them forever.
func TestTCPMasterCloseWithLiveEdges(t *testing.T) {
	master := newState(t, "cloud")
	srv, err := ServeMasterConfig("127.0.0.1:0", &Endpoint{Name: "cloud", State: master}, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	var edges []*TCPEdge
	for i := 0; i < 2; i++ {
		st, err := master.Fork(crdtActor("close-edge" + string(rune('0'+i))))
		if err != nil {
			t.Fatal(err)
		}
		e, err := DialEdgeConfig(srv.Addr(), &Endpoint{Name: "e", State: st}, fastTCPConfig())
		if err != nil {
			t.Fatal(err)
		}
		edges = append(edges, e)
	}
	defer func() {
		for _, e := range edges {
			_ = e.Close()
		}
	}()
	if !waitFor(t, 5*time.Second, func() bool { return len(srv.Connections()) == 2 }) {
		t.Fatal("edges never attached")
	}

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("TCPMaster.Close deadlocked with edges attached")
	}
	// Idempotent.
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestTCPEdgeGivesUpAfterMaxRetries bounds the reconnect loop: with the
// master gone for good and dials refused, the edge must reach the
// terminal disconnected state after MaxRetries attempts and report why.
func TestTCPEdgeGivesUpAfterMaxRetries(t *testing.T) {
	master := newState(t, "cloud")
	srv, err := ServeMasterConfig("127.0.0.1:0", &Endpoint{Name: "cloud", State: master}, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := master.Fork("retry-edge")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := faultnet.NewController()
	cfg := fastTCPConfig()
	cfg.Dialer = ctrl.Dialer()
	cfg.MaxRetries = 3
	edge, err := DialEdgeConfig(srv.Addr(), &Endpoint{Name: "retry-edge", State: st}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = edge.Close() }()

	var gaveUp error
	errCh := make(chan error, 16)
	edge.SetErrorHandler(func(err error) { errCh <- err })
	ctrl.Partition() // sever + refuse future dials
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	if !waitFor(t, 10*time.Second, func() bool {
		return edge.Status().State == ConnDisconnected
	}) {
		t.Fatalf("edge never gave up: %+v", edge.Status())
	}
	status := edge.Status()
	if status.DialAttempts != 3 {
		t.Fatalf("dial attempts = %d, want 3", status.DialAttempts)
	}
	if !strings.Contains(status.LastError, "giving up") {
		t.Fatalf("LastError = %q, want give-up diagnosis", status.LastError)
	}
	for {
		select {
		case err := <-errCh:
			if strings.Contains(err.Error(), "giving up") {
				gaveUp = err
			}
			continue
		default:
		}
		break
	}
	if gaveUp == nil {
		t.Fatal("error handler never saw the give-up error")
	}
}

// TestTCPObsExportsConnectionState pins the statesync.tcp.* instrument
// wiring: lifecycle counters and the connection gauges must reflect a
// partition and recovery.
func TestTCPObsExportsConnectionState(t *testing.T) {
	o := obs.New()
	master := newState(t, "cloud")
	srv, err := ServeMasterConfig("127.0.0.1:0", &Endpoint{Name: "cloud", State: master}, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	srv.SetObs(o)

	st, err := master.Fork("obs-edge")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := faultnet.NewController()
	cfg := fastTCPConfig()
	cfg.Dialer = ctrl.Dialer()
	edge, err := DialEdgeConfig(srv.Addr(), &Endpoint{Name: "obs-edge", State: st}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = edge.Close() }()
	edge.SetObs(o)

	if !waitFor(t, 5*time.Second, func() bool {
		return o.Gauge("statesync.tcp.master.edges_connected").Value() == 1
	}) {
		t.Fatal("edges_connected gauge never reached 1")
	}
	ctrl.Sever()
	if !waitFor(t, 10*time.Second, func() bool {
		return o.Counter("statesync.tcp.edge.obs-edge.reconnects").Value() >= 1 &&
			o.Gauge("statesync.tcp.edge.obs-edge.conn_state").Value() == 2
	}) {
		t.Fatal("reconnect was not mirrored into the registry")
	}
	if o.Counter("statesync.tcp.master.connects").Value() < 2 {
		t.Fatalf("master connects = %d, want ≥ 2 (initial + reconnect)",
			o.Counter("statesync.tcp.master.connects").Value())
	}
	if o.Counter("statesync.tcp.edge.obs-edge.disconnects").Value() < 1 {
		t.Fatal("edge disconnect not counted")
	}
}

// TestBackoffSchedule pins the exponential/jitter math.
func TestBackoffSchedule(t *testing.T) {
	b := BackoffConfig{Min: 10 * time.Millisecond, Max: 80 * time.Millisecond, Multiplier: 2}
	want := []time.Duration{10, 20, 40, 80, 80}
	for i, w := range want {
		if got := b.Delay(i, nil); got != w*time.Millisecond {
			t.Fatalf("attempt %d: delay = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	jb := b
	jb.Jitter = 0.5
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		d := jb.Delay(2, rng)
		if d < 20*time.Millisecond || d > 60*time.Millisecond {
			t.Fatalf("jittered delay %v outside [20ms, 60ms]", d)
		}
	}
}

// TestTCPConfigValidation pins the configuration guard rails.
func TestTCPConfigValidation(t *testing.T) {
	base := fastTCPConfig()
	cases := []struct {
		name   string
		mutate func(*TCPConfig)
	}{
		{"zero interval", func(c *TCPConfig) { c.Interval = 0 }},
		{"negative heartbeat", func(c *TCPConfig) { c.Heartbeat = -time.Second }},
		{"read timeout below heartbeat", func(c *TCPConfig) { c.ReadTimeout = c.Heartbeat / 2 }},
		{"backoff max below min", func(c *TCPConfig) { c.Backoff.Max = c.Backoff.Min / 2 }},
		{"multiplier below one", func(c *TCPConfig) { c.Backoff.Multiplier = 0.5 }},
		{"jitter out of range", func(c *TCPConfig) { c.Backoff.Jitter = 1 }},
		{"negative retries", func(c *TCPConfig) { c.MaxRetries = -1 }},
		{"negative batch changes", func(c *TCPConfig) { c.MaxBatchChanges = -1 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
	def := (TCPConfig{Interval: time.Second}).WithDefaults()
	if def.Heartbeat == 0 || def.ReadTimeout == 0 || def.DialTimeout == 0 || def.Backoff.Min == 0 {
		t.Fatalf("WithDefaults left zero fields: %+v", def)
	}
	if err := def.Validate(); err != nil {
		t.Fatalf("defaulted config rejected: %v", err)
	}
}

// TestWriteFrameAccounting is the byte-accounting regression: a partial
// write must report the bytes that actually reached the wire, not a
// synthesized total.
func TestWriteFrameAccounting(t *testing.T) {
	full := &countWriter{limit: 1 << 20}
	want, err := writeFrame(full, &frame{Kind: frameHeartbeat})
	if err != nil {
		t.Fatal(err)
	}
	if want != full.n {
		t.Fatalf("full write reported %d bytes, wrote %d", want, full.n)
	}
	// A heartbeat is two bytes on the wire: its length word and kind.
	short := &countWriter{limit: 1}
	n, err := writeFrame(short, &frame{Kind: frameHeartbeat})
	if err == nil {
		t.Fatal("short write reported no error")
	}
	if n != 1 {
		t.Fatalf("short write reported %d bytes, want 1 (the bytes actually written)", n)
	}
}

// countWriter writes up to limit bytes, then fails.
type countWriter struct {
	n     int
	limit int
}

func (w *countWriter) Write(p []byte) (int, error) {
	if w.n+len(p) <= w.limit {
		w.n += len(p)
		return len(p), nil
	}
	wrote := w.limit - w.n
	if wrote < 0 {
		wrote = 0
	}
	w.n += wrote
	return wrote, errors.New("short write")
}

// TestBadHelloReportsFrameKind is the nil-%w regression: a structurally
// valid first frame of the wrong kind must be reported by its kind, not
// as "%!w(<nil>)".
func TestBadHelloReportsFrameKind(t *testing.T) {
	// Master side: dial raw and send a state frame first.
	master := newState(t, "cloud")
	srv, err := ServeMasterConfig("127.0.0.1:0", &Endpoint{Name: "cloud", State: master}, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	errCh := make(chan error, 1)
	srv.SetErrorHandler(func(err error) {
		select {
		case errCh <- err:
		default:
		}
	})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeFrame(conn, &frame{Kind: frameState}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if strings.Contains(err.Error(), "%!w") {
			t.Fatalf("master wrapped a nil error: %v", err)
		}
		if !strings.Contains(err.Error(), frameState.String()) {
			t.Fatalf("master error %q does not name the unexpected frame kind", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("master never reported the bad hello")
	}
	_ = conn.Close()

	// Edge side: a fake master that replies to the hello with a state
	// frame.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		if _, _, err := readFrame(c, nil); err != nil {
			return
		}
		_, _ = writeFrame(c, &frame{Kind: frameState})
	}()
	st := newState(t, "edge")
	_, err = DialEdgeConfig(ln.Addr().String(), &Endpoint{Name: "e", State: st}, fastTCPConfig())
	if err == nil {
		t.Fatal("dial against a bad master succeeded")
	}
	if strings.Contains(err.Error(), "%!w") {
		t.Fatalf("edge wrapped a nil error: %v", err)
	}
	if !strings.Contains(err.Error(), frameState.String()) {
		t.Fatalf("edge error %q does not name the unexpected frame kind", err)
	}
}

// TestTCPTwoWritersNoEcho is the send-cursor regression: the cloud and
// two edges all write continuously while every edge link is slowed, so
// a pusher's frame write often overlaps its reader applying the peer's
// changes. The cursor update after the write must merge with what the
// reader learned in between; assigning the pre-write heads instead
// forgets the peer's changes and echoes them back, which shows up as
// received changes the CRDT layer discards as duplicates.
func TestTCPTwoWritersNoEcho(t *testing.T) {
	master := newState(t, "cloud")
	srv, err := ServeMasterConfig("127.0.0.1:0", &Endpoint{Name: "cloud", State: master}, fastTCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	ctrl := faultnet.NewController()
	ctrl.SetDelay(time.Millisecond)
	type edgeNode struct {
		tcp *TCPEdge
		st  *ReplicaState
	}
	var edges []edgeNode
	for _, name := range []string{"writer-a", "writer-b"} {
		st, err := master.Fork(crdtActor(name))
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastTCPConfig()
		cfg.Dialer = ctrl.Dialer()
		e, err := DialEdgeConfig(srv.Addr(), &Endpoint{Name: name, State: st}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = e.Close() }()
		edges = append(edges, edgeNode{e, st})
	}

	for i := 0; i < 150; i++ {
		srv.Do(func() { putKey(t, master, fmt.Sprintf("cloud-%d", i%10), float64(i)) })
		for j, e := range edges {
			e.tcp.Do(func() { putKey(t, e.st, fmt.Sprintf("edge%d-%d", j, i%10), float64(i)) })
		}
		time.Sleep(time.Millisecond)
	}
	ctrl.SetDelay(0)
	if !waitFor(t, 10*time.Second, func() bool {
		ok := true
		for _, e := range edges {
			srv.Do(func() { e.tcp.Do(func() { ok = ok && master.Converged(e.st) }) })
		}
		return ok
	}) {
		t.Fatal("no convergence")
	}
	// Let any echo a lost cursor update would cause arrive.
	time.Sleep(20 * fastTCPConfig().Interval)
	if ms := srv.Stats(); ms.ChangesRecv != ms.ChangesApplied {
		t.Errorf("cloud received %d changes but applied %d: an edge echoed known changes back",
			ms.ChangesRecv, ms.ChangesApplied)
	}
	for j, e := range edges {
		if es := e.tcp.Stats(); es.ChangesRecv != es.ChangesApplied {
			t.Errorf("edge %d received %d changes but applied %d: the cloud echoed known changes back",
				j, es.ChangesRecv, es.ChangesApplied)
		}
	}
}
