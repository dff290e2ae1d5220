package statesync

import (
	"fmt"
	"time"

	"repro/internal/crdt"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// Endpoint is one synchronization participant: a replica's state, with
// an optional binding into a live app and optional durability.
type Endpoint struct {
	Name    string
	State   *ReplicaState
	Binding *Binding
	// Persist, when set, write-ahead-logs every change that reaches this
	// endpoint — inbound deltas before they are acknowledged or
	// forwarded, local changes at each refresh — so a crash never loses
	// state a peer was told of.
	Persist *Persister
	// HeadsSource overrides the heads this endpoint declares when
	// (re)handshaking. A durable deployment points it at the persister's
	// watermark: a restarted replica then claims only what disk holds,
	// and the peer reships exactly the missing delta.
	HeadsSource func() Heads
}

// declaredHeads returns the knowledge this endpoint advertises to a
// handshaking peer.
func (e *Endpoint) declaredHeads() Heads {
	if e.HeadsSource != nil {
		return e.HeadsSource()
	}
	return e.State.Heads()
}

// applyCount integrates an inbound delta, through the binding when
// present, reporting how many changes were actually integrated — the
// runtimes use it to account duplicates. The delta is persisted before
// applyCount returns: the Manager acknowledges and the TCP master
// forwards only after this, and a restarted TCP replica declares its
// persisted heads in its hello, so no peer keeps a cursor past state
// the replica could lose in a crash.
func (e *Endpoint) applyCount(d Delta) (int, error) {
	n, err := func() (int, error) {
		if e.Binding != nil {
			return e.Binding.ApplyRemoteCount(d)
		}
		n, _, err := e.State.ApplyCount(d)
		return n, err
	}()
	if err != nil {
		return n, err
	}
	if e.Persist != nil {
		if perr := e.Persist.Sync(e.State); perr != nil {
			return n, perr
		}
	}
	return n, nil
}

// refresh mirrors pending local changes (globals) before computing a
// delta, and logs them durably so locally originated state survives a
// crash too.
func (e *Endpoint) refresh() error {
	if e.Binding != nil {
		if err := e.Binding.MirrorGlobals(); err != nil {
			return err
		}
	}
	if e.Persist != nil {
		return e.Persist.Sync(e.State)
	}
	return nil
}

// conn is the bidirectional channel between the master (hi) and one
// edge (lo): the pair protocol plus the WAN link carrying edge_state
// messages up and cloud_state messages down.
type conn struct {
	edge *Endpoint
	link *netem.Duplex
	pair pairSync
}

// Stats aggregates synchronization traffic. The deployment facade
// exposes it through the observability snapshot (edgstr.Observe).
type Stats struct {
	// EdgeStateBytes is the edge→cloud volume; CloudStateBytes the
	// cloud→edge volume.
	EdgeStateBytes  int64 `json:"edge_state_bytes"`
	CloudStateBytes int64 `json:"cloud_state_bytes"`
	// Messages counts non-empty deltas sent (both directions).
	Messages int64 `json:"messages"`
	// AckRoundTrips counts deltas that completed the full cycle:
	// encoded, shipped over the WAN, applied remotely, and acknowledged
	// back into the sender's per-connection heads.
	AckRoundTrips int64 `json:"ack_round_trips"`
	// Errors counts failed applications.
	Errors int64 `json:"errors"`
	// AppliedChanges counts CRDT changes integrated by a receiver;
	// DuplicateApplies counts delivered changes the receiver already
	// held. The cursor protocol never reships a known operation, so the
	// second stays zero.
	AppliedChanges   int64 `json:"applied_changes"`
	DuplicateApplies int64 `json:"duplicate_applies"`
	// EdgesScanned counts per-round edge visits that did synchronization
	// work; EdgesSkipped counts visits resolved by the idle test (one
	// integer compare, no history walk). A converged fleet should skip
	// nearly everything.
	EdgesScanned int64 `json:"edges_scanned"`
	EdgesSkipped int64 `json:"edges_skipped"`
}

// TotalBytes returns the WAN synchronization volume.
func (s Stats) TotalBytes() int64 { return s.EdgeStateBytes + s.CloudStateBytes }

// add accumulates o into s.
func (s *Stats) add(o Stats) {
	s.EdgeStateBytes += o.EdgeStateBytes
	s.CloudStateBytes += o.CloudStateBytes
	s.Messages += o.Messages
	s.AckRoundTrips += o.AckRoundTrips
	s.Errors += o.Errors
	s.AppliedChanges += o.AppliedChanges
	s.DuplicateApplies += o.DuplicateApplies
	s.EdgesScanned += o.EdgesScanned
	s.EdgesSkipped += o.EdgesSkipped
}

// record mirrors the manager's counters into an observability
// registry. All writes are nil-safe no-ops when o is nil.
type obsCounters struct {
	edgeBytes, cloudBytes, messages, acks, errors *obs.Counter
	applied, duplicates                           *obs.Counter
}

func newObsCounters(o *obs.Obs) obsCounters {
	return obsCounters{
		edgeBytes:  o.Counter("statesync.edge_state_bytes"),
		cloudBytes: o.Counter("statesync.cloud_state_bytes"),
		messages:   o.Counter("statesync.messages"),
		acks:       o.Counter("statesync.ack_round_trips"),
		errors:     o.Counter("statesync.errors"),
		applied:    o.Counter("statesync.applied_changes"),
		duplicates: o.Counter("statesync.duplicate_applies"),
	}
}

// Manager runs the background synchronization protocol on virtual time:
// every interval, each edge sends its new changes to the cloud master
// (edge_state) and the master sends its new changes — including changes
// it learned from other edges — to each edge (cloud_state). Edge
// replicas unconditionally accept everything received from the cloud
// (paper §III-G1).
type Manager struct {
	clock    *simclock.Clock
	master   *Endpoint
	conns    []*conn
	interval time.Duration
	stats    Stats
	ticks    tickLoop
	onError  func(error)
	obs      obsCounters
}

// NewManager returns a manager for the given cloud master endpoint.
func NewManager(clock *simclock.Clock, master *Endpoint, interval time.Duration) (*Manager, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("statesync: interval must be positive, got %v", interval)
	}
	if master == nil || master.State == nil {
		return nil, fmt.Errorf("statesync: nil master endpoint")
	}
	return &Manager{clock: clock, master: master, interval: interval}, nil
}

// SetErrorHandler installs a callback for apply errors (default:
// counted in Stats only).
func (m *Manager) SetErrorHandler(f func(error)) { m.onError = f }

// SetObs mirrors the manager's statistics into the given observability
// registry as statesync.* counters (see OBSERVABILITY.md). A nil Obs
// disables mirroring.
func (m *Manager) SetObs(o *obs.Obs) { m.obs = newObsCounters(o) }

// AddEdge registers an edge endpoint connected over the given duplex
// WAN link.
func (m *Manager) AddEdge(edge *Endpoint, link *netem.Duplex) error {
	if edge == nil || edge.State == nil {
		return fmt.Errorf("statesync: nil edge endpoint")
	}
	if link == nil {
		return fmt.Errorf("statesync: nil link")
	}
	c := &conn{edge: edge, link: link}
	c.pair.handshake(m.master, edge)
	m.conns = append(m.conns, c)
	return nil
}

// Stats returns the accumulated traffic statistics.
func (m *Manager) Stats() Stats { return m.stats }

// Start schedules the periodic synchronization. It keeps rescheduling
// itself until Stop. Start must run on the simulation goroutine (it
// schedules on the clock); a second Start while running is a no-op.
func (m *Manager) Start() { m.ticks.start(m.clock, m.interval, m.SyncRound) }

// Stop halts future rounds (in-flight messages still deliver). Unlike
// Start, Stop is safe to call from any goroutine.
func (m *Manager) Stop() { m.ticks.stop() }

// SyncRound performs one bidirectional exchange for every edge that may
// have diverged. Every connection shares the manager's single clock
// timer (one consolidated tick, not O(edges) timers), and the pair's
// idle test skips a quiescent connection on one integer compare, so a
// mostly-idle fleet pays per round only for its active edges.
func (m *Manager) SyncRound() {
	if err := m.master.refresh(); err != nil {
		m.fail(err)
	}
	for _, c := range m.conns {
		if m.step(c) {
			m.stats.EdgesScanned++
		} else {
			m.stats.EdgesSkipped++
		}
	}
}

// sent counts one shipped delta: edge_state going up, cloud_state down.
func (m *Manager) sent(up bool, n int) {
	if up {
		m.stats.EdgeStateBytes += int64(n)
		m.obs.edgeBytes.Add(int64(n))
	} else {
		m.stats.CloudStateBytes += int64(n)
		m.obs.cloudBytes.Add(int64(n))
	}
	m.stats.Messages++
	m.obs.messages.Add(1)
}

// delivered counts the changes a delivered delta integrated, the ones
// the receiver already held, and — when it applied cleanly — a
// completed round trip.
func (m *Manager) delivered(changes, applied int, err error) {
	m.stats.AppliedChanges += int64(applied)
	m.obs.applied.Add(int64(applied))
	if err != nil {
		return
	}
	m.stats.DuplicateApplies += int64(changes - applied)
	m.obs.duplicates.Add(int64(changes - applied))
	m.stats.AckRoundTrips++
	m.obs.acks.Add(1)
}

func (m *Manager) fail(err error) {
	m.stats.Errors++
	m.obs.errors.Add(1)
	if m.onError != nil {
		m.onError(err)
	}
}

// Converged reports whether the master and every edge hold identical
// state.
func (m *Manager) Converged() bool {
	for _, c := range m.conns {
		if !m.master.State.Converged(c.edge.State) {
			return false
		}
	}
	return true
}

// CompactAcknowledged truncates change logs that every peer has already
// acknowledged: the master compacts through the intersection of all
// edges' acknowledged heads; each edge compacts through what the master
// has acknowledged of it. This bounds log growth on long-running
// deployments. Edges added after compaction must initialize from a
// replica that still holds full history.
func (m *Manager) CompactAcknowledged() int {
	if len(m.conns) == 0 {
		return 0
	}
	inter := m.conns[0].pair.ackedDown
	for _, c := range m.conns[1:] {
		inter = intersectHeads(inter, c.pair.ackedDown)
	}
	dropped := m.master.State.Compact(inter)
	for _, c := range m.conns {
		dropped += c.edge.State.Compact(c.pair.ackedUp)
	}
	return dropped
}

// intersectHeads returns the componentwise/actorwise minimum of two
// knowledge summaries.
func intersectHeads(a, b Heads) Heads {
	out := Heads{}
	for comp, av := range a {
		bv, ok := b[comp]
		if !ok {
			continue
		}
		vv := crdt.VersionVector{}
		for actor, s := range av {
			if bs, ok := bv[actor]; ok {
				if bs < s {
					s = bs
				}
				vv[actor] = s
			}
		}
		out[comp] = vv
	}
	return out
}

// mergeHeads returns the componentwise/actorwise maximum of two
// knowledge summaries, without mutating either.
func mergeHeads(a, b Heads) Heads {
	out := Heads{}
	for comp, vv := range a {
		c := crdt.VersionVector{}
		for actor, s := range vv {
			c[actor] = s
		}
		out[comp] = c
	}
	for comp, vv := range b {
		c := out[comp]
		if c == nil {
			c = crdt.VersionVector{}
			out[comp] = c
		}
		for actor, s := range vv {
			if s > c[actor] {
				c[actor] = s
			}
		}
	}
	return out
}
