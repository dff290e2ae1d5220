package statesync

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/crdt"
	"repro/internal/netem"
	"repro/internal/shard"
	"repro/internal/simclock"
)

// Fabric is the sharded multi-edge synchronization tier (ROADMAP item
// 1). Where Manager wires the master to every edge in a star — O(edges)
// master egress per change — the Fabric interposes one relay per edge
// group: the master ships each store's delta once per owning group, and
// the relay fans it out to the group's edges over the local network.
// Master egress then scales with the number of groups holding a store
// (the ring's replication factor), not with the fleet size.
//
// State is partitioned at store granularity: each named store is a full
// ReplicaState (CRDT json/tables/files), and a consistent-hash ring
// over group names decides which groups own which stores. Sharding by
// store — rather than by key inside a store — keeps every change log
// causally dense per replica, so the existing per-actor sequence
// cursors work unmodified.
//
// Every participant is an Endpoint, so deployments can attach replicas
// with live app bindings and durable persisters (AddStoreEndpoint /
// AttachEdge); the fabric then applies deltas through the binding and
// re-handshakes from the persister watermark, exactly like Manager.
//
// The Fabric runs on the simulation clock and is single-threaded like
// Manager; Stop alone is safe from other goroutines.
type Fabric struct {
	clock    *simclock.Clock
	ring     *shard.Ring
	interval time.Duration

	master     map[string]*Endpoint
	storeNames []string // sorted; iteration order for deterministic rounds

	groups     map[string]*fabricGroup
	groupOrder []string // insertion order

	assign map[string][]string // current shard map (store -> owner groups)
	events []RebalanceEvent

	stats   FabricStats
	onError func(error)

	ticks tickLoop
}

// FabricStats aggregates fabric traffic. Master*Bytes cover the
// master<->relay WAN uplinks; Relay*Bytes cover the relay<->edge local
// fan-out. The star-vs-fabric comparison in the scale benchmark reads
// MasterEgressBytes.
type FabricStats struct {
	MasterEgressBytes  int64 `json:"master_egress_bytes"`
	MasterIngressBytes int64 `json:"master_ingress_bytes"`
	RelayFanoutBytes   int64 `json:"relay_fanout_bytes"`
	RelayUpBytes       int64 `json:"relay_up_bytes"`
	Messages           int64 `json:"messages"`
	// AppliedChanges counts CRDT changes integrated anywhere in the
	// fabric; DuplicateApplies counts shipped changes a replica already
	// held. The rebalance tests pin DuplicateApplies to zero: the
	// cursor protocol never reships known operations.
	AppliedChanges   int64 `json:"applied_changes"`
	DuplicateApplies int64 `json:"duplicate_applies"`
	Errors           int64 `json:"errors"`
	// Rebalances counts Rebalance calls that moved ownership;
	// StoresMoved counts the stores they moved.
	Rebalances  int64 `json:"rebalances"`
	StoresMoved int64 `json:"stores_moved"`
	// PairsScanned/PairsSkipped mirror Manager's idle accounting at
	// (connection, store) granularity.
	PairsScanned int64 `json:"pairs_scanned"`
	PairsSkipped int64 `json:"pairs_skipped"`
}

// RebalanceEvent records one ownership change, for the observability
// snapshot and the placement engine's Datalog facts.
type RebalanceEvent struct {
	At    time.Duration `json:"at"`
	Moves []shard.Move  `json:"moves"`
}

type fabricEdge struct {
	name      string
	link      *netem.Duplex // Up: edge->relay, Down: relay->edge
	stores    map[string]*Endpoint
	sync      map[string]*pairSync
	suspended bool
	// auto marks edges provisioned by the fabric itself (replicas forked
	// from the relay on acquire). Endpoint-attached edges are not auto:
	// they carry exactly the stores the deployment attached.
	auto bool
}

type fabricGroup struct {
	name   string
	uplink *netem.Duplex // Up: relay->master, Down: master->relay
	relay  map[string]*Endpoint
	sync   map[string]*pairSync // master<->relay cursors
	edges  []*fabricEdge
	// owned marks stores this group currently serves; draining marks
	// stores rebalanced away whose unshipped local changes are still
	// flowing up. A draining store syncs up-only until empty, so a
	// rebalance never strands an edge write on the old owner.
	owned     map[string]bool
	draining  map[string]bool
	suspended bool
	bytes     int64 // all sync bytes attributed to this group
}

// NewFabric returns an empty fabric. vnodes/rf configure the ring (≤ 0
// selects the shard package defaults); interval is the sync period.
func NewFabric(clock *simclock.Clock, interval time.Duration, vnodes, rf int) (*Fabric, error) {
	if clock == nil {
		return nil, fmt.Errorf("statesync: nil clock")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("statesync: interval must be positive, got %v", interval)
	}
	return &Fabric{
		clock:    clock,
		ring:     shard.NewRing(vnodes, rf),
		interval: interval,
		master:   map[string]*Endpoint{},
		groups:   map[string]*fabricGroup{},
		assign:   map[string][]string{},
	}, nil
}

// Ring exposes the fabric's consistent-hash ring (read-mostly; mutate
// membership through AddGroup/RemoveGroup).
func (f *Fabric) Ring() *shard.Ring { return f.ring }

// SetErrorHandler installs a callback for apply errors.
func (f *Fabric) SetErrorHandler(fn func(error)) { f.onError = fn }

// Stats returns the accumulated fabric statistics.
func (f *Fabric) Stats() FabricStats { return f.stats }

// Events returns the recorded rebalance events.
func (f *Fabric) Events() []RebalanceEvent { return f.events }

// GroupNames returns the group names in insertion order.
func (f *Fabric) GroupNames() []string { return append([]string(nil), f.groupOrder...) }

// StoreNames returns the store names, sorted.
func (f *Fabric) StoreNames() []string { return append([]string(nil), f.storeNames...) }

// GroupBytes returns per-group cumulative sync bytes (uplink plus local
// fan-out) — the shard.sync_bytes observability family.
func (f *Fabric) GroupBytes() map[string]int64 {
	out := make(map[string]int64, len(f.groups))
	for _, name := range f.groupOrder {
		out[name] = f.groups[name].bytes
	}
	return out
}

// Draining counts (group, store) pairs still flowing rebalanced-away
// changes up to the master.
func (f *Fabric) Draining() int {
	n := 0
	for _, gname := range f.groupOrder {
		n += len(f.groups[gname].draining)
	}
	return n
}

// Assignment returns a copy of the current shard map.
func (f *Fabric) Assignment() map[string][]string {
	out := make(map[string][]string, len(f.assign))
	for k, v := range f.assign {
		out[k] = append([]string(nil), v...)
	}
	return out
}

// AddStore creates a named store on the master and provisions it onto
// its owner groups. The returned state is the master replica; seed it
// directly and the changes flow out on the next rounds.
func (f *Fabric) AddStore(name string) (*ReplicaState, error) {
	st, err := NewReplicaState(crdt.ActorID(name + "@master"))
	if err != nil {
		return nil, err
	}
	if err := f.AddStoreEndpoint(name, &Endpoint{Name: name + "@master", State: st}); err != nil {
		return nil, err
	}
	return st, nil
}

// AddStoreEndpoint registers an existing endpoint — typically the
// deployment's cloud master with its live binding and persister — as a
// named store, and provisions it onto its owner groups.
func (f *Fabric) AddStoreEndpoint(name string, ep *Endpoint) error {
	if name == "" {
		return fmt.Errorf("statesync: empty store name")
	}
	if ep == nil || ep.State == nil {
		return fmt.Errorf("statesync: nil master endpoint for store %q", name)
	}
	if f.master[name] != nil {
		return fmt.Errorf("statesync: store %q already exists", name)
	}
	f.master[name] = ep
	f.storeNames = append(f.storeNames, name)
	sort.Strings(f.storeNames)
	for _, g := range f.ring.Owners(name) {
		if err := f.acquire(f.groups[g], name); err != nil {
			return err
		}
	}
	f.assign[name] = f.ring.Owners(name)
	return nil
}

// AddGroup registers an edge group (relay plus uplink) and joins it to
// the ring. Existing stores do not move until Rebalance.
func (f *Fabric) AddGroup(name string, uplink *netem.Duplex) error {
	if uplink == nil {
		return fmt.Errorf("statesync: nil uplink for group %q", name)
	}
	if f.groups[name] != nil {
		return fmt.Errorf("statesync: group %q already exists", name)
	}
	if err := f.ring.Add(name); err != nil {
		return err
	}
	f.groups[name] = &fabricGroup{
		name:     name,
		uplink:   uplink,
		relay:    map[string]*Endpoint{},
		sync:     map[string]*pairSync{},
		owned:    map[string]bool{},
		draining: map[string]bool{},
	}
	f.groupOrder = append(f.groupOrder, name)
	return nil
}

// RemoveGroup withdraws a group from the ring. Its stores drain to the
// master and move to the survivors on the next Rebalance; the group
// object stays registered so the drain can complete.
func (f *Fabric) RemoveGroup(name string) error {
	if f.groups[name] == nil {
		return fmt.Errorf("statesync: no group %q", name)
	}
	return f.ring.Remove(name)
}

// AddEdge registers a fabric-managed edge under a group, connected to
// the group's relay over the given link, and provisions it with forked
// replicas of the group's owned stores.
func (f *Fabric) AddEdge(group, name string, link *netem.Duplex) error {
	e, err := f.newEdge(group, name, link)
	if err != nil {
		return err
	}
	e.auto = true
	g := f.groups[group]
	for _, s := range f.storeNames {
		if g.owned[s] {
			if err := f.provisionEdge(g, e, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// AttachEdge registers an edge that brings its own replica endpoint for
// one store — the deployment path, where the edge state carries an app
// binding and optionally durability. The fabric never forks additional
// stores onto an attached edge.
func (f *Fabric) AttachEdge(group, name string, link *netem.Duplex, store string, ep *Endpoint) error {
	if f.master[store] == nil {
		return fmt.Errorf("statesync: no store %q", store)
	}
	if ep == nil || ep.State == nil {
		return fmt.Errorf("statesync: nil endpoint for edge %q", name)
	}
	g := f.groups[group]
	if g == nil {
		return fmt.Errorf("statesync: no group %q", group)
	}
	e := g.findEdge(name)
	if e == nil {
		var err error
		e, err = f.newEdge(group, name, link)
		if err != nil {
			return err
		}
	}
	if e.stores[store] != nil {
		return fmt.Errorf("statesync: edge %q already carries store %q", name, store)
	}
	e.stores[store] = ep
	if g.relay[store] != nil {
		f.handshake(e.sync, store, g.relay[store], ep)
	}
	return nil
}

func (f *Fabric) newEdge(group, name string, link *netem.Duplex) (*fabricEdge, error) {
	g := f.groups[group]
	if g == nil {
		return nil, fmt.Errorf("statesync: no group %q", group)
	}
	if link == nil {
		return nil, fmt.Errorf("statesync: nil link for edge %q", name)
	}
	if g.findEdge(name) != nil {
		return nil, fmt.Errorf("statesync: edge %q already in group %q", name, group)
	}
	e := &fabricEdge{
		name:   name,
		link:   link,
		stores: map[string]*Endpoint{},
		sync:   map[string]*pairSync{},
	}
	g.edges = append(g.edges, e)
	return e, nil
}

func (g *fabricGroup) findEdge(name string) *fabricEdge {
	for _, e := range g.edges {
		if e.name == name {
			return e
		}
	}
	return nil
}

// Master returns the master replica of a store (nil if unknown).
func (f *Fabric) Master(store string) *ReplicaState {
	if ep := f.master[store]; ep != nil {
		return ep.State
	}
	return nil
}

// Relay returns a group relay's replica of a store (nil when the group
// does not hold it).
func (f *Fabric) Relay(group, store string) *ReplicaState {
	if g := f.groups[group]; g != nil {
		if ep := g.relay[store]; ep != nil {
			return ep.State
		}
	}
	return nil
}

// Edge returns an edge's replica of a store (nil when absent).
func (f *Fabric) Edge(group, edge, store string) *ReplicaState {
	g := f.groups[group]
	if g == nil {
		return nil
	}
	if e := g.findEdge(edge); e != nil {
		if ep := e.stores[store]; ep != nil {
			return ep.State
		}
	}
	return nil
}

// acquire gives a group ownership of a store: forking relay (and, for
// fabric-managed edges, edge) replicas from the master on first
// contact, or re-handshaking retained state on a regain. Fork-point (or
// intersected) cursors mean the first deltas carry exactly the missing
// changes — never a duplicate.
func (f *Fabric) acquire(g *fabricGroup, s string) error {
	if g == nil {
		return fmt.Errorf("statesync: ring member without a registered group")
	}
	if g.owned[s] {
		delete(g.draining, s)
		return nil
	}
	delete(g.draining, s)
	g.owned[s] = true
	if g.relay[s] == nil {
		st, err := f.master[s].State.Fork(crdt.ActorID(s + "@" + g.name))
		if err != nil {
			return err
		}
		g.relay[s] = &Endpoint{Name: s + "@" + g.name, State: st}
	}
	f.handshake(g.sync, s, f.master[s], g.relay[s])
	for _, e := range g.edges {
		if e.auto {
			if err := f.provisionEdge(g, e, s); err != nil {
				return err
			}
		} else if e.stores[s] != nil {
			f.handshake(e.sync, s, g.relay[s], e.stores[s])
		}
	}
	return nil
}

func (f *Fabric) provisionEdge(g *fabricGroup, e *fabricEdge, s string) error {
	if e.stores[s] == nil {
		actor := crdt.ActorID(s + "@" + g.name + "/" + e.name)
		st, err := g.relay[s].State.Fork(actor)
		if err != nil {
			return err
		}
		e.stores[s] = &Endpoint{Name: string(actor), State: st}
	}
	f.handshake(e.sync, s, g.relay[s], e.stores[s])
	return nil
}

// handshake (re)initializes store s's pair between hi and lo, creating
// it on first contact — the same durable re-handshake discipline as
// Manager.AddEdge/ResumeEdge.
func (f *Fabric) handshake(syncs map[string]*pairSync, s string, hi, lo *Endpoint) {
	p := syncs[s]
	if p == nil {
		p = &pairSync{}
		syncs[s] = p
	}
	p.handshake(hi, lo)
}

// Rebalance recomputes the shard map from the current ring membership
// and moves ownership: gaining groups are provisioned (fork or
// re-handshake), losing groups switch the store to draining so pending
// edge writes still reach the master before the store goes quiet there.
func (f *Fabric) Rebalance() ([]shard.Move, error) {
	after := f.ring.Assignment(f.storeNames)
	moves := shard.DiffAssignments(f.assign, after)
	for _, mv := range moves {
		for _, gname := range mv.To {
			if err := f.acquire(f.groups[gname], mv.Key); err != nil {
				return nil, err
			}
		}
		still := map[string]bool{}
		for _, gname := range mv.To {
			still[gname] = true
		}
		for _, gname := range mv.From {
			if still[gname] {
				continue
			}
			if g := f.groups[gname]; g != nil && g.owned[mv.Key] {
				delete(g.owned, mv.Key)
				g.draining[mv.Key] = true
			}
		}
	}
	f.assign = after
	if len(moves) > 0 {
		f.stats.Rebalances++
		f.stats.StoresMoved += int64(len(moves))
		f.events = append(f.events, RebalanceEvent{At: f.clock.Now(), Moves: moves})
	}
	return moves, nil
}

// SuspendGroup parks a whole group (relay and edges): no sync work, no
// WAN bytes, until ResumeGroup re-handshakes it.
func (f *Fabric) SuspendGroup(name string) error {
	g := f.groups[name]
	if g == nil {
		return fmt.Errorf("statesync: no group %q", name)
	}
	g.suspended = true
	return nil
}

// ResumeGroup reactivates a suspended group through the re-handshake
// path, exactly as elasticity resumes a parked replica.
func (f *Fabric) ResumeGroup(name string) error {
	g := f.groups[name]
	if g == nil {
		return fmt.Errorf("statesync: no group %q", name)
	}
	g.suspended = false
	for _, s := range f.storeNames {
		if g.relay[s] == nil || !(g.owned[s] || g.draining[s]) {
			continue
		}
		f.handshake(g.sync, s, f.master[s], g.relay[s])
		for _, e := range g.edges {
			if e.stores[s] != nil {
				f.handshake(e.sync, s, g.relay[s], e.stores[s])
			}
		}
	}
	return nil
}

// SuspendEdge parks one edge of a group.
func (f *Fabric) SuspendEdge(group, edge string) error {
	e, err := f.findEdge(group, edge)
	if err != nil {
		return err
	}
	e.suspended = true
	return nil
}

// ResumeEdge reactivates a parked edge, re-handshaking its cursors
// against the relay.
func (f *Fabric) ResumeEdge(group, edge string) error {
	e, err := f.findEdge(group, edge)
	if err != nil {
		return err
	}
	g := f.groups[group]
	e.suspended = false
	for _, s := range f.storeNames {
		if e.stores[s] != nil && g.relay[s] != nil {
			f.handshake(e.sync, s, g.relay[s], e.stores[s])
		}
	}
	return nil
}

func (f *Fabric) findEdge(group, edge string) (*fabricEdge, error) {
	g := f.groups[group]
	if g == nil {
		return nil, fmt.Errorf("statesync: no group %q", group)
	}
	if e := g.findEdge(edge); e != nil {
		return e, nil
	}
	return nil, fmt.Errorf("statesync: no edge %q in group %q", edge, group)
}

// Start schedules periodic rounds until Stop (same single consolidated
// tick discipline as Manager: one clock timer for the whole fabric).
func (f *Fabric) Start() { f.ticks.start(f.clock, f.interval, f.SyncRound) }

// Stop halts future rounds; in-flight messages still deliver.
func (f *Fabric) Stop() { f.ticks.stop() }

// SyncRound performs one exchange across the whole fabric: for every
// owned (or draining) store of every group, master<->relay over the
// uplink, then relay<->edge fan-out. Iteration follows insertion order
// for groups and sorted order for stores, so identical schedules yield
// identical traffic — the determinism the scale experiments pin.
func (f *Fabric) SyncRound() {
	for _, s := range f.storeNames {
		if err := f.master[s].refresh(); err != nil {
			f.fail(err)
		}
	}
	for _, gname := range f.groupOrder {
		g := f.groups[gname]
		if g.suspended {
			continue
		}
		for _, s := range f.storeNames {
			owned := g.owned[s]
			draining := g.draining[s]
			if !owned && !draining {
				continue
			}
			f.syncPair(f.master[s], g.relay[s], g.sync[s], g.uplink, draining, g, true)
			for _, e := range g.edges {
				if e.suspended || e.stores[s] == nil {
					continue
				}
				f.syncPair(g.relay[s], e.stores[s], e.sync[s], e.link, draining, g, false)
			}
			if draining && f.drained(g, s) {
				delete(g.draining, s)
			}
		}
	}
}

// syncPair exchanges one store between hi (nearer the master) and lo.
// In drain mode only the up direction runs. wan marks the master<->relay
// tier for byte attribution.
func (f *Fabric) syncPair(hi, lo *Endpoint, p *pairSync, link *netem.Duplex, drain bool, g *fabricGroup, wan bool) {
	scanned := p.step(f.clock, hi, lo, link, drain, f, func(up bool, n int) {
		switch {
		case wan && up:
			f.stats.MasterIngressBytes += int64(n)
		case wan:
			f.stats.MasterEgressBytes += int64(n)
		case up:
			f.stats.RelayUpBytes += int64(n)
		default:
			f.stats.RelayFanoutBytes += int64(n)
		}
		g.bytes += int64(n)
		f.stats.Messages++
	})
	if scanned {
		f.stats.PairsScanned++
	} else {
		f.stats.PairsSkipped++
	}
}

// delivered counts integrated and duplicate changes: the cursor
// protocol should never reship an operation the receiver holds.
func (f *Fabric) delivered(changes, applied int, _ error) {
	f.stats.AppliedChanges += int64(applied)
	f.stats.DuplicateApplies += int64(changes - applied)
}

// drained reports whether a draining store has fully flowed up: nothing
// in flight and empty up-deltas at the relay and every edge.
func (f *Fabric) drained(g *fabricGroup, s string) bool {
	ss := g.sync[s]
	if ss.inflightUp > 0 || !g.relay[s].State.Delta(ss.ackedUp).Empty() {
		return false
	}
	for _, e := range g.edges {
		es := e.sync[s]
		if es == nil || e.stores[s] == nil {
			continue
		}
		if es.inflightUp > 0 || !e.stores[s].State.Delta(es.ackedUp).Empty() {
			return false
		}
	}
	return true
}

// Converged reports whether every owning replica of every store —
// relay and edges, suspended ones excepted — holds state materially
// identical to the master's.
func (f *Fabric) Converged() bool {
	for _, s := range f.storeNames {
		for _, gname := range f.groupOrder {
			g := f.groups[gname]
			if g.suspended || !g.owned[s] {
				continue
			}
			if !f.master[s].State.Converged(g.relay[s].State) {
				return false
			}
			for _, e := range g.edges {
				if e.suspended || e.stores[s] == nil {
					continue
				}
				if !f.master[s].State.Converged(e.stores[s].State) {
					return false
				}
			}
		}
	}
	return true
}

func (f *Fabric) fail(err error) {
	f.stats.Errors++
	if f.onError != nil {
		f.onError(err)
	}
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
