package statesync

import (
	"sync"
	"time"

	"repro/internal/netem"
	"repro/internal/simclock"
)

// This file holds the virtual-time replication step Manager runs for
// each of its connections, and the tick loop that drives it. The TCP
// transport runs the same cursor rule over a real connection
// (tcpSession in tcp.go).

// pairSync is the cursor state for one pair of endpoints: hi is the
// manager's master (the cloud, or a Fabric relay), lo the edge. A
// link's Up direction carries lo→hi, Down hi→lo.
type pairSync struct {
	// ackedUp is lo's state acknowledged by hi — the up-direction send
	// cursor. ackedDown is hi's state acknowledged by lo.
	ackedUp, ackedDown Heads
	// inflightUp/inflightDown hold each direction's window-of-1: a new
	// delta is not cut while the previous one is still in flight, which
	// (with cursor merging on delivery) keeps the pair duplicate-free.
	inflightUp, inflightDown int
	// lastHiVer/lastLoVer cache the replica mutation counters observed at
	// the last scan; clean records that the scan found both deltas empty.
	// When the versions have not moved since a clean scan and nothing is
	// in flight, the pair is provably quiescent and a round skips it on
	// one integer compare — this is what makes a mostly-idle fleet cost
	// O(active pairs), not O(pairs), per tick. A lossy or downed link
	// leaves clean false (the delta was sent but never acknowledged), so
	// retries keep flowing.
	lastHiVer, lastLoVer uint64
	clean, valid         bool
}

// handshake (re)initializes the cursors at the intersection of the two
// endpoints' declared knowledge — their persister watermarks when
// durable — and forces a rescan. A freshly forked replica and its
// source share the fork-point history, so synchronization starts there;
// a recovered replica may hold changes its peer never saw (or vice
// versa), and everything beyond what both provably share flows in the
// first rounds.
func (p *pairSync) handshake(hi, lo *Endpoint) {
	p.ackedUp = intersectHeads(lo.declaredHeads(), hi.declaredHeads())
	p.ackedDown = intersectHeads(hi.declaredHeads(), lo.declaredHeads())
	p.valid = false
}

// step exchanges one round between the master and c's edge over c's
// link. It returns false when the idle test skipped the pair.
func (m *Manager) step(c *conn) bool {
	p, hi, lo := &c.pair, m.master, c.edge
	if p.valid && p.clean && p.inflightUp == 0 && p.inflightDown == 0 &&
		hi.State.Version() == p.lastHiVer && lo.State.Version() == p.lastLoVer {
		return false
	}
	if err := lo.refresh(); err != nil {
		m.fail(err)
	}
	upEmpty := m.ship(c.link.Up, true, lo, hi, &p.ackedUp, &p.ackedDown, &p.inflightUp)
	downEmpty := m.ship(c.link.Down, false, hi, lo, &p.ackedDown, &p.ackedUp, &p.inflightDown)
	p.clean = upEmpty && downEmpty
	p.lastHiVer, p.lastLoVer = hi.State.Version(), lo.State.Version()
	p.valid = true
	return true
}

// ship cuts a delta of src's changes beyond cursor and sends it to dst
// (up says which direction that is), honoring a window of one in-flight
// delta per direction. On delivery the cursor merges up to the heads at
// send, and the reverse cursor advances past the delivered operations
// so dst never echoes them back — together with the window this makes
// the pair duplicate-free. Returns true when there was nothing to send.
func (m *Manager) ship(link *netem.Link, up bool, src, dst *Endpoint, cursor, reverse *Heads, inflight *int) bool {
	if *inflight > 0 {
		return false
	}
	delta := src.State.Delta(*cursor)
	if delta.Empty() {
		return true
	}
	payload, err := EncodeDelta(delta)
	if err != nil {
		m.fail(err)
		return false
	}
	headsAtSend := src.State.Heads()
	m.sent(up, len(payload))
	at := link.Send(len(payload), func() {
		applied, aerr := dst.applyCount(delta)
		m.delivered(delta.Changes(), applied, aerr)
		if aerr != nil {
			m.fail(aerr)
			return
		}
		*cursor = mergeHeads(*cursor, headsAtSend)
		*reverse = advanceHeads(*reverse, delta)
	})
	// The in-flight count drops when the message delivers or is dropped:
	// the decrement is scheduled at the same instant as delivery, after
	// it in FIFO order, so the idle test never hides an undelivered ack.
	*inflight++
	m.clock.At(at, func() { *inflight-- })
	return false
}

// tickLoop schedules a runtime's rounds on the simulation clock: one
// consolidated timer for the whole runtime, rescheduling itself until
// stop. start must run on the simulation goroutine (it schedules on the
// clock); stop may be called from any goroutine, e.g. a controller
// reacting to an error, so the run state has its own lock.
type tickLoop struct {
	mu      sync.Mutex
	running bool
	// gen distinguishes tick chains. Each start bumps it, and a pending
	// tick only reschedules when its generation is still current —
	// otherwise a stop immediately followed by a start would leave the
	// old chain's pending tick alive, and when it fired it would see
	// running==true and reschedule, doubling the sync rate.
	gen uint64
}

// start schedules round every interval until stop; a second start while
// running is a no-op.
func (t *tickLoop) start(clock *simclock.Clock, every time.Duration, round func()) {
	t.mu.Lock()
	if t.running {
		t.mu.Unlock()
		return
	}
	t.running = true
	t.gen++
	gen := t.gen
	t.mu.Unlock()
	t.schedule(clock, every, round, gen)
}

// stop halts future rounds (in-flight messages still deliver).
func (t *tickLoop) stop() {
	t.mu.Lock()
	t.running = false
	t.mu.Unlock()
}

func (t *tickLoop) schedule(clock *simclock.Clock, every time.Duration, round func(), gen uint64) {
	clock.After(every, func() {
		t.mu.Lock()
		live := t.running && t.gen == gen
		t.mu.Unlock()
		if !live {
			return
		}
		round()
		t.schedule(clock, every, round, gen)
	})
}
