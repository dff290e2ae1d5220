package statesync

import (
	"fmt"
	"time"

	"repro/internal/crdt"
	"repro/internal/netem"
	"repro/internal/simclock"
)

// Fabric is the two-tier relay fan-out. Where a single Manager wires the
// master to every edge in a star — O(edges) master egress per change —
// the Fabric puts one relay replica in front of each edge group: the
// master ships each delta once per group over the group's WAN uplink,
// and the relay fans it out to the group's edges over LAN links. Master
// egress then scales with the number of groups, not the fleet size.
//
// Both tiers are Managers: one from the master to the relays, and one
// per group from its relay to its edges. A single clock timer drives
// them all — the master round first, then the group rounds in group
// order — so identical schedules yield identical traffic.
//
// Replica actors are named after the store: <store>@master for the
// master, <store>@<group> for a relay, and <store>@<group>/<edge> for
// an edge.
//
// The Fabric runs on the simulation clock and is single-threaded like
// Manager; Stop alone is safe from other goroutines.
type Fabric struct {
	clock    *simclock.Clock
	interval time.Duration
	store    string
	master   *Endpoint
	uplink   *Manager // master ↔ group relays
	groups   []*fabricGroup
	ticks    tickLoop
}

// fabricGroup is one relay and the Manager fanning out to its edges.
type fabricGroup struct {
	name   string
	relay  *Endpoint
	fanout *Manager
}

// FabricStats splits fabric traffic by tier. In Uplink, CloudStateBytes
// is the master's egress to the relays and EdgeStateBytes its ingress;
// Fanout sums the group Managers, so there CloudStateBytes is the
// relays' LAN fan-out and EdgeStateBytes what the edges sent up.
type FabricStats struct {
	Uplink Stats `json:"uplink"`
	Fanout Stats `json:"fanout"`
}

// NewFabric returns a fabric with an empty master replica of the named
// store and no groups.
func NewFabric(clock *simclock.Clock, interval time.Duration, store string) (*Fabric, error) {
	actor := store + "@master"
	st, err := NewReplicaState(crdt.ActorID(actor))
	if err != nil {
		return nil, err
	}
	master := &Endpoint{Name: actor, State: st}
	uplink, err := NewManager(clock, master, interval)
	if err != nil {
		return nil, err
	}
	return &Fabric{clock: clock, interval: interval, store: store, master: master, uplink: uplink}, nil
}

// AddGroup forks a relay replica from the master and connects it over
// the given WAN uplink.
func (f *Fabric) AddGroup(name string, uplink *netem.Duplex) error {
	if f.group(name) != nil {
		return fmt.Errorf("statesync: group %q already exists", name)
	}
	actor := f.store + "@" + name
	st, err := f.master.State.Fork(crdt.ActorID(actor))
	if err != nil {
		return err
	}
	relay := &Endpoint{Name: actor, State: st}
	if err := f.uplink.AddEdge(relay, uplink); err != nil {
		return err
	}
	fanout, err := NewManager(f.clock, relay, f.interval)
	if err != nil {
		return err
	}
	f.groups = append(f.groups, &fabricGroup{name: name, relay: relay, fanout: fanout})
	return nil
}

// AddEdge forks an edge replica from a group's relay, connects it over
// the given LAN link, and returns the edge's state.
func (f *Fabric) AddEdge(group, name string, link *netem.Duplex) (*ReplicaState, error) {
	g := f.group(group)
	if g == nil {
		return nil, fmt.Errorf("statesync: no group %q", group)
	}
	actor := f.store + "@" + group + "/" + name
	st, err := g.relay.State.Fork(crdt.ActorID(actor))
	if err != nil {
		return nil, err
	}
	if err := g.fanout.AddEdge(&Endpoint{Name: actor, State: st}, link); err != nil {
		return nil, err
	}
	return st, nil
}

func (f *Fabric) group(name string) *fabricGroup {
	for _, g := range f.groups {
		if g.name == name {
			return g
		}
	}
	return nil
}

// Stats returns the accumulated per-tier statistics.
func (f *Fabric) Stats() FabricStats {
	st := FabricStats{Uplink: f.uplink.Stats()}
	for _, g := range f.groups {
		st.Fanout.add(g.fanout.Stats())
	}
	return st
}

// Start schedules periodic rounds until Stop, on one clock timer for
// the whole fabric.
func (f *Fabric) Start() { f.ticks.start(f.clock, f.interval, f.SyncRound) }

// Stop halts future rounds; in-flight messages still deliver.
func (f *Fabric) Stop() { f.ticks.stop() }

// SyncRound runs the master round, then every group's round in the
// order the groups were added.
func (f *Fabric) SyncRound() {
	f.uplink.SyncRound()
	for _, g := range f.groups {
		g.fanout.SyncRound()
	}
}

// Converged reports whether every relay matches the master and every
// edge its relay.
func (f *Fabric) Converged() bool {
	if !f.uplink.Converged() {
		return false
	}
	for _, g := range f.groups {
		if !g.fanout.Converged() {
			return false
		}
	}
	return true
}
