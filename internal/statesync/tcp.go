package statesync

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/crdt"
	"repro/internal/obs"
)

// This file provides a real-network transport for the synchronization
// protocol — the analog of the paper's bidirectional socket.io channel.
// A TCPMaster listens for edge replicas; each TCPEdge dials in and
// exchanges a hello carrying its version vector. Both ends then push on
// events, and their Interval tick is only the idle fallback. An edge
// pushes its own commits (TCPEdge.Do), paced: a commit goes out at once
// unless the edge pushed less than edgePace ago, and then with every
// commit made meanwhile when that pace has run out. The master is the
// hub between edges and forwards at once: a cloud commit (TCPMaster.Do)
// or an edge delta it has applied and persisted wakes the pushers of
// the other sessions. TCP's reliable ordered delivery lets the
// send cursor advance on write, and TCP's own flow control paces the
// pusher: a session has one writer (its pusher) and a reader that never
// writes, so a blocked write can never wait on its own reader.
//
// The transport is supervision-grade: a TCPEdge that loses its
// connection reconnects with exponential backoff and jitter,
// re-handshaking from the peers' declared CRDT heads so no delta is
// lost (or applied twice) across a partition; both sides exchange
// heartbeat frames and enforce read deadlines so a silently dead peer
// is detected; and the TCPMaster tracks live connections in a registry
// so Close tears every session down promptly. TCPConfig (tcpconfig.go)
// tunes all of it, and SetObs exports connection state through
// statesync.tcp.* counters and gauges.
//
// The virtual-time Manager remains the evaluation vehicle; this
// transport is for deployments that span real processes.

// Wire-level framing — the frame type, compression, vectored writes,
// and delta chunking — lives in wire.go.

// badHelloErr describes a failed hello exchange without ever wrapping a
// nil error: when the frame decoded but carried the wrong kind, the
// kind itself is the diagnosis.
func badHelloErr(who string, f *frame, err error) error {
	if err != nil {
		return fmt.Errorf("statesync: bad %s: %w", who, err)
	}
	return fmt.Errorf("statesync: bad %s: unexpected %q frame", who, f.Kind)
}

// TCPStats counts transport traffic and lifecycle events.
type TCPStats struct {
	BytesSent      int64
	BytesReceived  int64
	FramesSent     int64
	FramesRecv     int64
	HeartbeatsSent int64
	HeartbeatsRecv int64
	// ChangesRecv counts CRDT changes carried by received state frames;
	// ChangesApplied counts those actually integrated (the CRDT layer
	// ignores duplicates, so a gap between the two means a peer resent
	// operations the replica already had).
	ChangesRecv    int64
	ChangesApplied int64
	// Connects counts completed handshakes; Disconnects counts session
	// teardowns.
	Connects    int64
	Disconnects int64
	// OpsElided counts CRDT ops dropped by pre-send coalescing — ops a
	// later op in the same batch provably eclipsed.
	OpsElided int64
	// WindowStalls counts pushes that needed more than one write: a
	// delta of more than maxFramesPerWrite frames, shipped in chunks
	// that TCP's flow control paces.
	WindowStalls int64
	// WokenPushes counts pushes started by a wake rather than the tick:
	// the master's forwards and commits, and an edge's commits.
	WokenPushes int64
	// PacedPushes counts an edge's wakes that came less than edgePace
	// after its last push: each holds its push until the pace runs out,
	// and the wakes that follow meanwhile join it.
	PacedPushes int64
	// CompressedFrames counts outbound frames shipped flate-compressed.
	CompressedFrames int64
}

// ConnState is an edge link's lifecycle phase.
type ConnState string

// Edge connection states.
const (
	ConnConnected    ConnState = "connected"
	ConnReconnecting ConnState = "reconnecting"
	ConnDisconnected ConnState = "disconnected"
)

// EdgeStatus is a snapshot of a TCPEdge's supervision state.
type EdgeStatus struct {
	State ConnState `json:"state"`
	// Reconnects counts successful re-handshakes after a connection
	// loss (the initial connection is not counted).
	Reconnects int64 `json:"reconnects"`
	// DialAttempts counts reconnect dial attempts, successful or not.
	DialAttempts int64 `json:"dial_attempts"`
	// LastError is the most recent connection error ("" when none).
	LastError string `json:"last_error,omitempty"`
}

// tcpObs holds pre-resolved instruments for one transport endpoint;
// every field is nil-safe, so the zero value disables mirroring.
type tcpObs struct {
	connects, disconnects, reconnects, dialErrors *obs.Counter
	heartbeatsSent, heartbeatsRecv                *obs.Counter
	bytesSent, bytesRecv                          *obs.Counter
	changesRecv, changesApplied                   *obs.Counter
	// duplicates is the transport-independent
	// statesync.duplicate_applies counter that Manager credits too.
	duplicates *obs.Counter
	// edgesConnected is the master's live-session gauge; connState is
	// the edge's lifecycle gauge (0 disconnected, 1 reconnecting, 2
	// connected).
	edgesConnected, connState *obs.Gauge
	// The statesync.batch family (mounted under the endpoint prefix)
	// tracks the high-throughput send path: frames per vectored write,
	// ops elided by coalescing, multi-write pushes, and compression.
	batchOpsElided, batchWindowStalls     *obs.Counter
	batchCompressedFrames, batchWoken     *obs.Counter
	batchPaced                            *obs.Counter
	batchFramesPerWrite, batchChangesSent *obs.Histogram
}

func newTCPObs(o *obs.Obs, prefix string) tcpObs {
	return tcpObs{
		connects:              o.Counter(prefix + ".connects"),
		disconnects:           o.Counter(prefix + ".disconnects"),
		reconnects:            o.Counter(prefix + ".reconnects"),
		dialErrors:            o.Counter(prefix + ".dial_errors"),
		heartbeatsSent:        o.Counter(prefix + ".heartbeats_sent"),
		heartbeatsRecv:        o.Counter(prefix + ".heartbeats_recv"),
		bytesSent:             o.Counter(prefix + ".bytes_sent"),
		bytesRecv:             o.Counter(prefix + ".bytes_recv"),
		changesRecv:           o.Counter(prefix + ".changes_recv"),
		changesApplied:        o.Counter(prefix + ".changes_applied"),
		duplicates:            o.Counter("statesync.duplicate_applies"),
		edgesConnected:        o.Gauge(prefix + ".edges_connected"),
		connState:             o.Gauge(prefix + ".conn_state"),
		batchOpsElided:        o.Counter(prefix + ".batch.ops_elided"),
		batchWindowStalls:     o.Counter(prefix + ".batch.window_stalls"),
		batchCompressedFrames: o.Counter(prefix + ".batch.compressed_frames"),
		batchWoken:            o.Counter(prefix + ".batch.woken_pushes"),
		batchPaced:            o.Counter(prefix + ".batch.paced_pushes"),
		batchFramesPerWrite:   o.Histogram(prefix + ".batch.frames_per_write"),
		batchChangesSent:      o.Histogram(prefix + ".batch.changes_per_push"),
	}
}

// connStateGauge maps a ConnState to its gauge encoding.
func connStateGauge(s ConnState) float64 {
	switch s {
	case ConnConnected:
		return 2
	case ConnReconnecting:
		return 1
	default:
		return 0
	}
}

// tcpSide is what both ends of the transport hold: the replica
// endpoint, the settings, the state lock the transport goroutines share
// with application code, and the counters they credit.
type tcpSide struct {
	ep  *Endpoint
	cfg TCPConfig

	// mu guards ep state, stats, o, and the owner's own mutable fields.
	mu      sync.RWMutex
	stats   TCPStats
	o       tcpObs
	onError func(error)
	wg      sync.WaitGroup
}

// SetErrorHandler installs a callback for connection errors.
func (t *tcpSide) SetErrorHandler(f func(error)) { t.onError = f }

// Do runs f while holding the state lock; all local mutations of the
// replicated state must go through it.
func (t *tcpSide) Do(f func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f()
}

// RDo runs f while holding the state lock in shared mode: concurrent
// RDo sections run in parallel with each other but serialize against Do
// and against the transport's background goroutines. f must not mutate
// replicated state — the concurrent serve path runs write-guarded
// read-only invocations inside it.
func (t *tcpSide) RDo(f func()) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	f()
}

// Stats returns a snapshot of transport counters.
func (t *tcpSide) Stats() TCPStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

func (t *tcpSide) fail(err error) {
	if t.onError != nil && err != nil && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) {
		t.onError(err)
	}
}

// TCPMaster is the cloud master's listener: it accepts edge replicas and
// keeps them synchronized with the master endpoint's state.
type TCPMaster struct {
	tcpSide
	ln net.Listener
	// closed and the registry are guarded by mu.
	closed bool
	conns  map[net.Conn]*masterConn
}

// masterConn is the registry record for one accepted connection.
type masterConn struct {
	// Name is the edge's self-declared name (hello.From), "" until the
	// handshake completes.
	Name string
	// Addr is the remote address.
	Addr string
	// handshaked marks a completed hello exchange.
	handshaked bool
	// wake is the session pusher's 1-slot wake-up channel (see poke).
	wake chan struct{}
}

// MasterConnInfo describes one live, handshaked edge session.
type MasterConnInfo struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

// ServeMaster starts a master on addr ("127.0.0.1:0" for an ephemeral
// port) with the default fault-tolerance settings at the given sync
// interval. Close must be called to release the listener and goroutines.
func ServeMaster(addr string, ep *Endpoint, interval time.Duration) (*TCPMaster, error) {
	return ServeMasterConfig(addr, ep, DefaultTCPConfig(interval))
}

// ServeMasterConfig starts a master with explicit transport settings.
func ServeMasterConfig(addr string, ep *Endpoint, cfg TCPConfig) (*TCPMaster, error) {
	if ep == nil || ep.State == nil {
		return nil, errors.New("statesync: nil master endpoint")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("statesync: listen: %w", err)
	}
	m := &TCPMaster{tcpSide: tcpSide{ep: ep, cfg: cfg}, ln: ln, conns: map[net.Conn]*masterConn{}}
	m.wg.Add(1)
	go m.acceptLoop()
	return m, nil
}

// Addr returns the listener address (for edges to dial).
func (m *TCPMaster) Addr() string { return m.ln.Addr().String() }

// Do runs f while holding the state lock, like the edge's Do, and then
// wakes every session's pusher if f changed the replicated state, so a
// cloud commit reaches the edges at once instead of on the master's
// next tick. A read-only f wakes no one.
func (m *TCPMaster) Do(f func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.ep.State.Version()
	f()
	if m.ep.State.Version() != v {
		m.wakeLocked(nil)
	}
}

// wakeLocked wakes the pusher of every handshaked session except the
// one on skip; callers hold m.mu.
func (m *TCPMaster) wakeLocked(skip net.Conn) {
	for c, info := range m.conns {
		if c != skip && info.handshaked {
			poke(info.wake)
		}
	}
}

// poke leaves a wake-up in a 1-slot channel without blocking: a wake
// already pending absorbs it, so a burst coalesces into one push.
func poke(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// SetObs mirrors the master's transport counters into the registry
// under statesync.tcp.master.* (see OBSERVABILITY.md). A nil Obs
// disables mirroring.
func (m *TCPMaster) SetObs(o *obs.Obs) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.o = newTCPObs(o, "statesync.tcp.master")
}

// Connections lists the live, handshaked edge sessions.
func (m *TCPMaster) Connections() []MasterConnInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MasterConnInfo, 0, len(m.conns))
	for _, info := range m.conns {
		if info.handshaked {
			out = append(out, MasterConnInfo{Name: info.Name, Addr: info.Addr})
		}
	}
	return out
}

// Close stops accepting, tears down every live edge session, and waits
// for all goroutines. It is idempotent and returns promptly even with
// edges still attached: the registry lets it unblock readers by closing
// their connections.
func (m *TCPMaster) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.closed = true
	victims := make([]net.Conn, 0, len(m.conns))
	for c := range m.conns {
		victims = append(victims, c)
	}
	m.mu.Unlock()
	err := m.ln.Close()
	for _, c := range victims {
		_ = c.Close()
	}
	m.wg.Wait()
	return err
}

func (m *TCPMaster) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			_ = conn.Close()
			return
		}
		m.conns[conn] = &masterConn{Addr: conn.RemoteAddr().String(), wake: make(chan struct{}, 1)}
		m.wg.Add(1)
		m.mu.Unlock()
		go m.serveConn(conn)
	}
}

// deregister removes a finished session from the registry and updates
// the connection accounting.
func (m *TCPMaster) deregister(conn net.Conn) {
	m.mu.Lock()
	info := m.conns[conn]
	delete(m.conns, conn)
	if info != nil && info.handshaked {
		m.stats.Disconnects++
		m.o.disconnects.Add(1)
	}
	m.o.edgesConnected.Set(float64(m.handshakedLocked()))
	m.mu.Unlock()
}

// handshakedLocked counts live handshaked sessions; callers hold m.mu.
func (m *TCPMaster) handshakedLocked() int {
	n := 0
	for _, info := range m.conns {
		if info.handshaked {
			n++
		}
	}
	return n
}

// serveConn handles one edge: hello exchange, then the session loop
// (tcpSession) applying inbound edge_state frames while shipping
// cloud_state deltas and heartbeats.
func (m *TCPMaster) serveConn(conn net.Conn) {
	defer m.wg.Done()
	defer func() { _ = conn.Close() }()
	defer m.deregister(conn)

	if m.cfg.DialTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(m.cfg.DialTimeout))
	}
	r := bufio.NewReader(conn)
	hello, n, err := readFrame(r, nil)
	if err != nil || hello.Kind != frameHello {
		m.fail(badHelloErr("hello", hello, err))
		return
	}
	_ = conn.SetDeadline(time.Time{})
	m.mu.Lock()
	m.stats.BytesReceived += int64(n)
	m.stats.FramesRecv++
	m.o.bytesRecv.Add(int64(n))
	sent, err := writeFrame(conn, &frame{Kind: frameHello, Heads: m.ep.declaredHeads()})
	m.stats.BytesSent += int64(sent)
	m.stats.FramesSent++
	m.o.bytesSent.Add(int64(sent))
	peerKnown := hello.Heads
	var wake chan struct{}
	if err == nil {
		if info := m.conns[conn]; info != nil {
			info.Name = hello.From
			info.handshaked = true
			wake = info.wake
		}
		m.stats.Connects++
		m.o.connects.Add(1)
		m.o.edgesConnected.Set(float64(m.handshakedLocked()))
	}
	m.mu.Unlock()
	if err != nil {
		m.fail(err)
		return
	}
	// The session forwards what it applies: the other sessions' pushers
	// wake to relay it. The wake fires under mu, after applyCount has
	// persisted the delta, so only durable state is forwarded.
	s := &tcpSession{tcpSide: &m.tcpSide, known: &peerKnown, peer: "edge", wake: wake,
		relay: func() { m.wakeLocked(conn) }}
	s.run(conn, r)
}

// isTimeout reports whether err is a network deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TCPEdge is one edge replica's supervised connection to the master:
// when the link drops it reconnects with exponential backoff and
// re-handshakes from the CRDT heads, so synchronization resumes exactly
// where the partition interrupted it.
type TCPEdge struct {
	tcpSide
	addr string

	// status, peerKnown and conn are guarded by mu.
	status    EdgeStatus
	peerKnown Heads
	conn      net.Conn

	// wake is the session pusher's 1-slot wake-up channel: Do pokes it
	// after a commit. It outlives sessions, so a commit made while the
	// edge reconnects is pushed once the next session starts.
	wake chan struct{}
	stop chan struct{}
	once sync.Once
	rng  *rand.Rand // supervisor goroutine only
}

// DialEdge connects an edge endpoint to a master with the default
// fault-tolerance settings at the given sync interval and starts
// background synchronization. Close must be called to stop it.
func DialEdge(addr string, ep *Endpoint, interval time.Duration) (*TCPEdge, error) {
	return DialEdgeConfig(addr, ep, DefaultTCPConfig(interval))
}

// DialEdgeConfig connects with explicit transport settings. The initial
// dial is synchronous — a dead address fails fast — and only later
// connection losses enter the reconnect loop.
func DialEdgeConfig(addr string, ep *Endpoint, cfg TCPConfig) (*TCPEdge, error) {
	if ep == nil || ep.State == nil {
		return nil, errors.New("statesync: nil edge endpoint")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &TCPEdge{
		tcpSide: tcpSide{ep: ep, cfg: cfg},
		addr:    addr,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	conn, r, err := e.connect()
	if err != nil {
		return nil, err
	}
	e.setState(ConnConnected, nil)
	e.wg.Add(1)
	go e.supervise(conn, r)
	return e, nil
}

// Do runs f while holding the state lock and then wakes the session's
// pusher if f changed the replicated state, so a local commit reaches
// the master within edgePace instead of on the next tick. A read-only f
// wakes nothing. The serve path runs a request's persist inside f
// (cluster's WrapInvoke), so only durable state is pushed. The wake
// comes after the lock is released: a pusher woken under it would only
// block on it.
func (e *TCPEdge) Do(f func()) {
	moved := func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		v := e.ep.State.Version()
		f()
		return e.ep.State.Version() != v
	}()
	if moved {
		poke(e.wake)
	}
}

// SetObs mirrors the edge's transport counters into the registry under
// statesync.tcp.edge.<name>.* (see OBSERVABILITY.md). A nil Obs
// disables mirroring.
func (e *TCPEdge) SetObs(o *obs.Obs) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.o = newTCPObs(o, "statesync.tcp.edge."+e.ep.Name)
	e.o.connState.Set(connStateGauge(e.status.State))
}

// Status returns a snapshot of the supervision state.
func (e *TCPEdge) Status() EdgeStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.status
}

// Close stops synchronization (including any in-progress reconnect
// wait) and closes the connection. It is idempotent.
func (e *TCPEdge) Close() error {
	e.once.Do(func() {
		close(e.stop)
		e.mu.Lock()
		if e.conn != nil {
			_ = e.conn.Close()
		}
		e.mu.Unlock()
	})
	e.wg.Wait()
	e.setState(ConnDisconnected, nil)
	return nil
}

// stopped reports whether Close has been requested.
func (e *TCPEdge) stopped() bool {
	select {
	case <-e.stop:
		return true
	default:
		return false
	}
}

// setState records a supervision state transition (keeping LastError
// when err is nil) and mirrors it to the gauge.
func (e *TCPEdge) setState(s ConnState, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.status.State = s
	if err != nil {
		e.status.LastError = err.Error()
	}
	e.o.connState.Set(connStateGauge(s))
}

// connect dials the master and performs the hello exchange: the edge
// declares its current heads, the master replies with its own, and both
// sides resume delta exchange from exactly that knowledge — the
// re-handshake that makes a partition lossless and duplicate-free.
func (e *TCPEdge) connect() (net.Conn, *bufio.Reader, error) {
	conn, err := e.cfg.dial(e.addr)
	if err != nil {
		return nil, nil, fmt.Errorf("statesync: dial: %w", err)
	}
	if e.cfg.DialTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(e.cfg.DialTimeout))
	}
	e.mu.Lock()
	// Declare durable heads, not in-memory ones: after a crash-restart
	// the in-memory doc may hold unfsynced state the disk never saw, and
	// claiming it would make the master skip the delta forever. Persist
	// first, so a replica that has not synced yet does not declare less
	// than it holds (the master would reship its whole history), and its
	// first WAL record holds the fork-point state alone, ahead of any
	// delta a torn tail could take with it.
	perr := e.ep.refresh()
	heads := e.ep.declaredHeads()
	name := e.ep.Name
	e.mu.Unlock()
	if perr != nil {
		e.fail(perr)
	}
	n, err := writeFrame(conn, &frame{Kind: frameHello, From: name, Heads: heads})
	e.mu.Lock()
	e.stats.BytesSent += int64(n)
	e.stats.FramesSent++
	e.o.bytesSent.Add(int64(n))
	e.mu.Unlock()
	if err != nil {
		_ = conn.Close()
		return nil, nil, err
	}
	r := bufio.NewReader(conn)
	hello, hn, err := readFrame(r, nil)
	if err != nil || hello.Kind != frameHello {
		_ = conn.Close()
		return nil, nil, badHelloErr("master hello", hello, err)
	}
	_ = conn.SetDeadline(time.Time{})
	e.mu.Lock()
	e.stats.BytesReceived += int64(hn)
	e.stats.FramesRecv++
	e.stats.Connects++
	e.o.bytesRecv.Add(int64(hn))
	e.o.connects.Add(1)
	e.peerKnown = hello.Heads
	e.conn = conn
	e.mu.Unlock()
	if e.stopped() {
		_ = conn.Close()
		return nil, nil, net.ErrClosed
	}
	return conn, r, nil
}

// supervise owns the edge's connection lifecycle: run a session until
// the link fails, then reconnect with backoff and repeat, until Close
// or (with MaxRetries set) the retry budget is exhausted.
func (e *TCPEdge) supervise(conn net.Conn, r *bufio.Reader) {
	defer e.wg.Done()
	for {
		e.runSession(conn, r)
		e.mu.Lock()
		e.conn = nil
		e.stats.Disconnects++
		e.o.disconnects.Add(1)
		e.mu.Unlock()
		if e.stopped() {
			e.setState(ConnDisconnected, nil)
			return
		}
		e.setState(ConnReconnecting, nil)
		var ok bool
		conn, r, ok = e.reconnect()
		if !ok {
			return
		}
		e.mu.Lock()
		e.status.Reconnects++
		e.o.reconnects.Add(1)
		e.mu.Unlock()
		e.setState(ConnConnected, nil)
	}
}

// reconnect retries connect under the backoff schedule. It returns
// ok=false when Close intervened or MaxRetries was exhausted (the
// terminal state is recorded before returning).
func (e *TCPEdge) reconnect() (net.Conn, *bufio.Reader, bool) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if e.cfg.MaxRetries > 0 && attempt >= e.cfg.MaxRetries {
			err := fmt.Errorf("statesync: giving up after %d reconnect attempts: %w", attempt, lastErr)
			e.setState(ConnDisconnected, err)
			e.fail(err)
			return nil, nil, false
		}
		delay := e.cfg.Backoff.Delay(attempt, e.rng)
		select {
		case <-e.stop:
			e.setState(ConnDisconnected, nil)
			return nil, nil, false
		case <-time.After(delay):
		}
		e.mu.Lock()
		e.status.DialAttempts++
		e.mu.Unlock()
		conn, r, err := e.connect()
		if err != nil {
			lastErr = err
			e.o.dialErrors.Add(1)
			e.setState(ConnReconnecting, err)
			continue
		}
		return conn, r, true
	}
}

// runSession drives one live connection until it is unusable; the
// connection is closed on return.
func (e *TCPEdge) runSession(conn net.Conn, r *bufio.Reader) {
	(&tcpSession{tcpSide: &e.tcpSide, known: &e.peerKnown, halt: e.stop, peer: "master",
		wake: e.wake, pace: min(edgePace, e.cfg.Interval)}).run(conn, r)
}

// tcpSession is the replication step both ends of a TCP link run once
// the hello exchange is done: a pusher goroutine, the connection's only
// writer, ships deltas and heartbeats while the reader (the calling
// goroutine) applies inbound state frames and never writes. Master and
// edge differ only in the fields below.
type tcpSession struct {
	*tcpSide
	// known is the send cursor — the peer's knowledge of our state —
	// guarded by mu.
	known *Heads
	// halt, when non-nil, ends the session from outside (TCPEdge.Close).
	halt <-chan struct{}
	// peer names the other side in the dead-peer error.
	peer string
	// wake starts a push ahead of the tick: the master signals it on a
	// cloud commit or to relay another edge's delta, an edge on a commit.
	wake chan struct{}
	// pace is the least time between the starts of two pushes a wake
	// may begin (0 for the master, which forwards at once): a wake
	// inside it is held until it runs out.
	pace time.Duration
	// relay, when set, runs under mu after an inbound state frame
	// integrated new changes (the master wakes its other sessions).
	relay func()
}

// run drives one live connection: the read deadline declares a silent
// peer dead. It returns once the connection is unusable and closes it.
func (s *tcpSession) run(conn net.Conn, r *bufio.Reader) {
	stop := make(chan struct{})
	var once sync.Once
	shutdown := func() { once.Do(func() { close(stop); _ = conn.Close() }) }
	defer shutdown()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer shutdown()
		s.push(&wireConn{c: conn, compress: s.cfg.Compression}, stop)
	}()
	s.read(conn, r)
}

// edgePace is an edge's least time between a push and the next one a
// commit starts, capped at the edge's Interval. It trades replication
// lag against per-frame cost: each push is a write and a read syscall,
// goroutine wake-ups and a WAL record at the master, and the frame's
// own header and dependencies. DESIGN.md §23 records the sweep that
// chose 40 ms, and §25 the stream-scoped dependencies that pay for 20.
const edgePace = 20 * time.Millisecond

// push ships the deltas the peer is missing on every tick and every
// wake, plus heartbeats that keep an idle link inside the peer's read
// deadline. A wake sooner than pace after the last push is deferred to
// a timer at that push's start plus pace. Until the timer fires the
// pusher stops listening for wakes, so the commits made meanwhile
// leave one wake in the channel and rouse no goroutine; the deferred
// push drains that wake and carries them all.
func (s *tcpSession) push(wc *wireConn, stop <-chan struct{}) {
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	var hbC <-chan time.Time
	if s.cfg.Heartbeat > 0 {
		hb := time.NewTicker(s.cfg.Heartbeat)
		defer hb.Stop()
		hbC = hb.C
	}
	// last is when the last push started; paceC fires a deferred push,
	// and wakeC is nil while one is pending.
	var last time.Time
	var paceC <-chan time.Time
	var paceT *time.Timer
	wakeC := s.wake
	defer func() {
		if paceT != nil {
			paceT.Stop()
		}
	}()
	for {
		select {
		case <-stop:
			return
		case <-s.halt:
			return
		case <-hbC:
			if err := wc.writeFrames(s.credit(frameHeartbeat), &frame{Kind: frameHeartbeat}); err != nil {
				s.fail(err)
				return
			}
		case <-ticker.C:
			last = time.Now()
			if err := s.pushDelta(wc, false); err != nil {
				s.fail(err)
				return
			}
		case <-wakeC:
			if wait := s.pace - time.Since(last); wait > 0 {
				if paceT == nil {
					paceT = time.NewTimer(wait)
				} else {
					paceT.Reset(wait)
				}
				paceC, wakeC = paceT.C, nil
				s.mu.Lock()
				s.stats.PacedPushes++
				s.o.batchPaced.Add(1)
				s.mu.Unlock()
				continue
			}
			last = time.Now()
			if err := s.pushDelta(wc, true); err != nil {
				s.fail(err)
				return
			}
		case <-paceC:
			paceC, wakeC = nil, s.wake
			// A wake left since the timer was set is for a commit this
			// push carries.
			select {
			case <-wakeC:
			default:
			}
			last = time.Now()
			if err := s.pushDelta(wc, true); err != nil {
				s.fail(err)
				return
			}
		}
	}
}

// pushDelta ships everything the peer is missing, at most
// maxFramesPerWrite frames per write; woken marks a push a wake started
// rather than the tick. Only a write error is returned: it ends the
// session.
func (s *tcpSession) pushDelta(wc *wireConn, woken bool) error {
	s.mu.Lock()
	if err := s.ep.refresh(); err != nil {
		s.fail(err)
	}
	delta := s.ep.State.Delta(*s.known)
	s.mu.Unlock()
	if delta.Empty() {
		return nil
	}
	frames, elided := buildStateFrames(delta, s.cfg.batchChanges(), true)
	// Like the frames themselves (credited inside writeFrames), the push
	// is counted before the write, so the stats never trail the peer.
	s.mu.Lock()
	s.stats.OpsElided += int64(elided)
	s.o.batchOpsElided.Add(int64(elided))
	if len(frames) > maxFramesPerWrite {
		s.stats.WindowStalls++
		s.o.batchWindowStalls.Add(1)
	}
	if woken {
		s.stats.WokenPushes++
		s.o.batchWoken.Add(1)
	}
	s.o.batchChangesSent.Observe(float64(delta.Changes()))
	s.mu.Unlock()
	for len(frames) > 0 {
		chunk := frames[:min(len(frames), maxFramesPerWrite)]
		frames = frames[len(chunk):]
		if err := wc.writeFrames(s.credit(frameState), chunk...); err != nil {
			return err
		}
		s.mu.Lock()
		// Merge, never assign: while the lock was released for the write,
		// the reader may have advanced the cursor past changes the peer
		// shipped us. The cursor passes exactly what was written, which is
		// every change of the delta: coalescing elides ops, never changes.
		for _, f := range chunk {
			*s.known = advanceHeads(*s.known, f.Delta)
		}
		s.mu.Unlock()
	}
	return nil
}

// read applies inbound state frames, counts heartbeats, and treats a
// silent peer as dead once the read deadline lapses. It never writes.
func (s *tcpSession) read(conn net.Conn, r *bufio.Reader) {
	// The inbound direction's dictionary and dependency memory, empty at
	// the hello like the peer's encoder's.
	var dict crdt.StringDict
	for {
		if s.cfg.ReadTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		f, n, err := readFrame(r, &dict)
		if err != nil {
			if isTimeout(err) {
				s.fail(fmt.Errorf("statesync: %s silent for %v, declaring dead: %w", s.peer, s.cfg.ReadTimeout, err))
			}
			return
		}
		s.mu.Lock()
		s.stats.BytesReceived += int64(n)
		s.stats.FramesRecv++
		s.o.bytesRecv.Add(int64(n))
		var applyErr error
		switch f.Kind {
		case frameHeartbeat:
			s.stats.HeartbeatsRecv++
			s.o.heartbeatsRecv.Add(1)
		case frameState:
			recv := int64(f.Delta.Changes())
			s.stats.ChangesRecv += recv
			s.o.changesRecv.Add(recv)
			var applied int
			applied, applyErr = s.ep.applyCount(f.Delta)
			s.stats.ChangesApplied += int64(applied)
			s.o.changesApplied.Add(int64(applied))
			// The peer evidently knows these operations — advance the send
			// cursor past them so they are not echoed back.
			*s.known = advanceHeads(*s.known, f.Delta)
			if applyErr == nil {
				s.o.duplicates.Add(recv - int64(applied))
				// The delta is applied and persisted (inside applyCount),
				// so it is safe to forward.
				if applied > 0 && s.relay != nil {
					s.relay()
				}
			}
		}
		s.mu.Unlock()
		if applyErr != nil {
			s.fail(applyErr)
			return
		}
	}
}

// credit returns the writeFrames callback that adds a write of kind
// frames to the sent-side stats. Its call before the write, the only
// one with frames > 0, also observes the write's frame count, so the
// histogram never trails what the peer holds either.
func (s *tcpSession) credit(kind frameKind) func(n, frames, compressed int) {
	return func(n, frames, compressed int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if kind == frameState && frames > 0 {
			s.o.batchFramesPerWrite.Observe(float64(frames))
		}
		s.stats.BytesSent += int64(n)
		s.stats.FramesSent += int64(frames)
		s.stats.CompressedFrames += int64(compressed)
		s.o.bytesSent.Add(int64(n))
		s.o.batchCompressedFrames.Add(int64(compressed))
		if kind == frameHeartbeat {
			s.stats.HeartbeatsSent += int64(frames)
			s.o.heartbeatsSent.Add(int64(frames))
		}
	}
}
