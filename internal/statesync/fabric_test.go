package statesync

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/simclock"
)

const fabInterval = 100 * time.Millisecond

// fabricRig builds a fabric of groups, each with its edges, on
// deterministic link seeds.
type fabricRig struct {
	clk     *simclock.Clock
	fab     *Fabric
	seed    int64
	uplinks map[string]*netem.Duplex
	edges   map[string]*ReplicaState // "<group>-e<i>" → edge replica
}

func newFabricRig(t *testing.T) *fabricRig {
	t.Helper()
	clk := simclock.New()
	fab, err := NewFabric(clk, fabInterval, "app")
	if err != nil {
		t.Fatal(err)
	}
	return &fabricRig{clk: clk, fab: fab, uplinks: map[string]*netem.Duplex{}, edges: map[string]*ReplicaState{}}
}

func (r *fabricRig) duplex(t *testing.T, cfg netem.Config) *netem.Duplex {
	t.Helper()
	r.seed += 2
	d, err := netem.NewDuplex(r.clk, cfg, r.seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func (r *fabricRig) addGroup(t *testing.T, name string, edges int) {
	t.Helper()
	r.uplinks[name] = r.duplex(t, netem.FastWAN)
	if err := r.fab.AddGroup(name, r.uplinks[name]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < edges; i++ {
		edge := fmt.Sprintf("%s-e%d", name, i)
		st, err := r.fab.AddEdge(name, edge, r.duplex(t, netem.LAN))
		if err != nil {
			t.Fatal(err)
		}
		r.edges[edge] = st
	}
}

// settle advances virtual time until the fabric converges (or max
// elapses) and returns whether it converged.
func (r *fabricRig) settle(max time.Duration) bool {
	deadline := r.clk.Now() + max
	for r.clk.Now() < deadline {
		r.clk.Advance(fabInterval)
		if r.fab.Converged() {
			return true
		}
	}
	return r.fab.Converged()
}

func putKey(t *testing.T, st *ReplicaState, key string, v any) {
	t.Helper()
	if st == nil {
		t.Fatalf("nil replica for key %q", key)
	}
	if err := st.JSON.PutScalar("root", key, v); err != nil {
		t.Fatal(err)
	}
}

func hasKey(st *ReplicaState, key string) bool {
	_, ok := st.JSON.ToGo()[key]
	return ok
}

// TestFabricConvergesAcrossGroups drives a three-group fabric: a master
// write must reach every relay and edge, an edge write must reach the
// master and the sibling groups through it, and the run must be
// duplicate-free with the relays absorbing the fan-out.
func TestFabricConvergesAcrossGroups(t *testing.T) {
	r := newFabricRig(t)
	for _, g := range []string{"g1", "g2", "g3"} {
		r.addGroup(t, g, 3)
	}
	putKey(t, r.fab.master.State, "seed", "app")
	r.fab.Start()
	defer r.fab.Stop()
	if !r.settle(30 * time.Second) {
		t.Fatal("no convergence")
	}
	for name, st := range r.edges {
		if !hasKey(st, "seed") {
			t.Fatalf("master write missing at edge %s", name)
		}
	}
	putKey(t, r.edges["g1-e1"], "fromEdge", 7.0)
	if !r.settle(30 * time.Second) {
		t.Fatal("no convergence after edge write")
	}
	if !hasKey(r.fab.master.State, "fromEdge") {
		t.Fatal("edge write did not reach the master")
	}
	if !hasKey(r.fab.group("g2").relay.State, "fromEdge") || !hasKey(r.edges["g3-e0"], "fromEdge") {
		t.Fatal("edge write did not reach the sibling groups")
	}
	st := r.fab.Stats()
	for tier, s := range map[string]Stats{"uplink": st.Uplink, "fanout": st.Fanout} {
		if s.DuplicateApplies != 0 {
			t.Fatalf("%s shipped %d duplicate changes", tier, s.DuplicateApplies)
		}
		if s.Errors != 0 {
			t.Fatalf("%s: %d sync errors", tier, s.Errors)
		}
		if s.AppliedChanges == 0 {
			t.Fatalf("%s applied no changes", tier)
		}
	}
	// With 3 edges behind each relay, the local fan-out must carry more
	// bytes than the master's uplink egress — that is the whole point of
	// the relay tier.
	if st.Fanout.CloudStateBytes <= st.Uplink.CloudStateBytes {
		t.Fatalf("relay fan-out %d bytes ≤ master egress %d bytes — relays are not absorbing fan-out",
			st.Fanout.CloudStateBytes, st.Uplink.CloudStateBytes)
	}
	if st.Fanout.EdgesSkipped == 0 {
		t.Fatal("idle pairs were never skipped")
	}
}

// TestFabricRelayPartitionHeal partitions one group's uplink: its edges
// must keep converging locally through the relay, the master must not
// see their writes until the heal, and the healed fabric must converge
// without loss or duplicates.
func TestFabricRelayPartitionHeal(t *testing.T) {
	r := newFabricRig(t)
	r.addGroup(t, "g1", 2)
	r.addGroup(t, "g2", 2)
	r.fab.Start()
	defer r.fab.Stop()
	if !r.settle(30 * time.Second) {
		t.Fatal("no initial convergence")
	}

	r.uplinks["g1"].SetDown(true)
	putKey(t, r.edges["g1-e0"], "duringPartition", 1.0)
	r.clk.Advance(3 * time.Second)
	if hasKey(r.fab.master.State, "duringPartition") {
		t.Fatal("write crossed a downed uplink")
	}
	if !hasKey(r.edges["g1-e1"], "duringPartition") {
		t.Fatal("intra-group fan-out stopped during the uplink partition")
	}
	r.uplinks["g1"].SetDown(false)
	if !r.settle(30 * time.Second) {
		t.Fatal("no convergence after heal")
	}
	if !hasKey(r.edges["g2-e1"], "duringPartition") {
		t.Fatal("partition write lost after heal")
	}
	st := r.fab.Stats()
	if st.Uplink.DuplicateApplies != 0 || st.Fanout.DuplicateApplies != 0 {
		t.Fatalf("partition recovery shipped duplicate changes: %+v", st)
	}
}

// TestFabricDeterministic pins that the same construction and schedule
// produce identical statistics and state — the property the
// closed-loop scale experiments rely on.
func TestFabricDeterministic(t *testing.T) {
	run := func() (FabricStats, map[string]any) {
		r := newFabricRig(t)
		for _, g := range []string{"g1", "g2", "g3"} {
			r.addGroup(t, g, 2)
		}
		r.fab.Start()
		defer r.fab.Stop()
		var writeN func(i int)
		writeN = func(i int) {
			if i >= 20 {
				return
			}
			putKey(t, r.edges[fmt.Sprintf("g%d-e%d", i%3+1, i%2)], fmt.Sprintf("w-%02d", i), float64(i))
			r.clk.After(130*time.Millisecond, func() { writeN(i + 1) })
		}
		r.clk.After(130*time.Millisecond, func() { writeN(0) })
		r.clk.Advance(20 * time.Second)
		return r.fab.Stats(), r.fab.master.State.JSON.ToGo()
	}
	s1, m1 := run()
	s2, m2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("master state differs: %v vs %v", m1, m2)
	}
	if len(m1) != 20 {
		t.Fatalf("master holds %d of 20 writes", len(m1))
	}
}
