package statesync

import (
	"errors"
	"testing"
	"time"

	"repro/internal/crdt"
	"repro/internal/netem"
	"repro/internal/script"
	"repro/internal/simclock"
)

// errTest is a sentinel for error-accounting tests.
var errTest = errors.New("statesync: test error")

// TestConvergenceAcrossPartition verifies the weak-consistency design
// goal (§III-F): a WAN partition merely delays convergence. Changes made
// on both sides during the partition merge once connectivity returns,
// because unacknowledged deltas are retransmitted every round.
func TestConvergenceAcrossPartition(t *testing.T) {
	clock := simclock.New()
	master := newState(t, "cloud")
	if err := master.JSON.PutScalar("root", "seed", 1); err != nil {
		t.Fatal(err)
	}
	edge, err := master.Fork("edge")
	if err != nil {
		t.Fatal(err)
	}
	link, err := netem.NewDuplex(clock, netem.LimitedWAN(500, 100), 3)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(clock, &Endpoint{Name: "cloud", State: master}, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.AddEdge(&Endpoint{Name: "edge", State: edge}, link); err != nil {
		t.Fatal(err)
	}
	mgr.Start()

	// Partition, then mutate both sides.
	link.SetDown(true)
	if err := edge.JSON.PutScalar("root", "edgeWrite", 10); err != nil {
		t.Fatal(err)
	}
	if err := master.Files.Write("cloud.txt", []byte("during partition")); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(10 * time.Second)
	if mgr.Converged() {
		t.Fatal("converged during partition — messages leaked")
	}
	if _, ok := master.JSON.MapGet("root", "edgeWrite"); ok {
		t.Fatal("edge write crossed a downed link")
	}

	// Heal; retransmission closes the gap.
	link.SetDown(false)
	clock.RunUntil(40 * time.Second)
	mgr.Stop()
	clock.Run()
	if !mgr.Converged() {
		t.Fatal("did not converge after heal")
	}
	v, ok := master.JSON.MapGet("root", "edgeWrite")
	if !ok || v.Num != 10 {
		t.Fatalf("edgeWrite on master = %v, %v", v, ok)
	}
	if _, ok := edge.Files.Read("cloud.txt"); !ok {
		t.Fatal("cloud file missing at edge")
	}
	if mgr.Stats().Errors != 0 {
		t.Fatalf("sync errors: %+v", mgr.Stats())
	}
}

// TestConvergenceUnderLoss verifies eventual convergence over a lossy
// WAN: dropped delta messages are simply resent on the next round
// (acknowledgement advances only on delivery).
func TestConvergenceUnderLoss(t *testing.T) {
	clock := simclock.New()
	master := newState(t, "cloud")
	edge, err := master.Fork("edge")
	if err != nil {
		t.Fatal(err)
	}
	lossy := netem.LimitedWAN(500, 100)
	lossy.LossProb = 0.5
	link, err := netem.NewDuplex(clock, lossy, 42)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(clock, &Endpoint{Name: "cloud", State: master}, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.AddEdge(&Endpoint{Name: "edge", State: edge}, link); err != nil {
		t.Fatal(err)
	}
	mgr.Start()

	for i := 0; i < 10; i++ {
		if err := edge.JSON.PutScalar("root", "k", i); err != nil {
			t.Fatal(err)
		}
		edge.JSON.Commit("")
		if err := master.Tables.EnsureTable("t"); err != nil {
			t.Fatal(err)
		}
		clock.RunUntil(clock.Now() + time.Second)
	}
	clock.RunUntil(clock.Now() + 60*time.Second)
	mgr.Stop()
	clock.Run()
	if !mgr.Converged() {
		t.Fatalf("did not converge over lossy link (lost %d of %d up msgs)",
			link.Up.MessagesLost(), link.Up.MessagesSent())
	}
	if link.Up.MessagesLost() == 0 && link.Down.MessagesLost() == 0 {
		t.Fatal("loss emulation never dropped anything — test is vacuous")
	}
}

// TestCompactionBoundsLogGrowth: after full acknowledgement, the manager
// drops replay history on both sides, and synchronization continues to
// converge afterwards.
func TestCompactionBoundsLogGrowth(t *testing.T) {
	clock := simclock.New()
	master := newState(t, "cloud")
	edge, err := master.Fork("edge")
	if err != nil {
		t.Fatal(err)
	}
	link, err := netem.NewDuplex(clock, netem.FastWAN, 4)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(clock, &Endpoint{Name: "cloud", State: master}, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.AddEdge(&Endpoint{Name: "edge", State: edge}, link); err != nil {
		t.Fatal(err)
	}
	mgr.Start()

	for i := 0; i < 20; i++ {
		if err := edge.JSON.PutScalar("root", "k", i); err != nil {
			t.Fatal(err)
		}
		edge.JSON.Commit("")
		clock.RunUntil(clock.Now() + 300*time.Millisecond)
	}
	clock.RunUntil(clock.Now() + 5*time.Second)
	if !mgr.Converged() {
		t.Fatal("precondition: not converged")
	}
	before := master.HistoryLen() + edge.HistoryLen()
	dropped := mgr.CompactAcknowledged()
	if dropped == 0 {
		t.Fatal("compaction dropped nothing after full acknowledgement")
	}
	after := master.HistoryLen() + edge.HistoryLen()
	if after >= before {
		t.Fatalf("history did not shrink: %d -> %d", before, after)
	}
	// Sync still works for post-compaction changes.
	if err := edge.JSON.PutScalar("root", "post", 1); err != nil {
		t.Fatal(err)
	}
	edge.JSON.Commit("")
	clock.RunUntil(clock.Now() + 5*time.Second)
	mgr.Stop()
	clock.Run()
	if !mgr.Converged() {
		t.Fatal("sync broke after compaction")
	}
	v, ok := master.JSON.MapGet("root", "post")
	if !ok || v.Num != 1 {
		t.Fatalf("post-compaction change lost: %v %v", v, ok)
	}
}

func TestCompactionWithTwoEdgesIntersects(t *testing.T) {
	clock := simclock.New()
	master := newState(t, "cloud")
	mgr, err := NewManager(clock, &Endpoint{Name: "cloud", State: master}, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]*ReplicaState, 2)
	for i := range edges {
		edges[i], err = master.Fork(crdtActor("ce" + string(rune('0'+i))))
		if err != nil {
			t.Fatal(err)
		}
		link, err := netem.NewDuplex(clock, netem.FastWAN, int64(50+i))
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.AddEdge(&Endpoint{Name: "e", State: edges[i]}, link); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Start()
	for i := 0; i < 5; i++ {
		if err := master.JSON.PutScalar("root", "k", i); err != nil {
			t.Fatal(err)
		}
		master.JSON.Commit("")
		clock.RunUntil(clock.Now() + 500*time.Millisecond)
	}
	clock.RunUntil(clock.Now() + 5*time.Second)
	if !mgr.Converged() {
		t.Fatal("not converged")
	}
	// Both edges acknowledged everything: the intersection allows the
	// master to drop its whole backlog.
	if dropped := mgr.CompactAcknowledged(); dropped == 0 {
		t.Fatal("two-edge compaction dropped nothing")
	}
	mgr.Stop()
	clock.Run()
	// Still converged and still syncable.
	if err := master.JSON.PutScalar("root", "post", 1); err != nil {
		t.Fatal(err)
	}
	master.JSON.Commit("")
	mgr.Start()
	clock.RunUntil(clock.Now() + 5*time.Second)
	mgr.Stop()
	clock.Run()
	if !mgr.Converged() {
		t.Fatal("post-compaction sync broke with two edges")
	}
}

func TestManagerErrorAccounting(t *testing.T) {
	clock := simclock.New()
	mgr, err := NewManager(clock, &Endpoint{Name: "m", State: newState(t, "m")}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var seen error
	mgr.SetErrorHandler(func(e error) { seen = e })
	mgr.fail(errTest)
	if mgr.Stats().Errors != 1 || seen == nil {
		t.Fatalf("fail not recorded: %+v, %v", mgr.Stats(), seen)
	}
}

func TestReplicaStateApplyRejectsMalformed(t *testing.T) {
	s := newState(t, "x")
	bad := Delta{CompJSON: []crdt.Change{{Actor: "a", Seq: 0}}}
	if err := s.Apply(bad); err == nil {
		t.Fatal("malformed JSON delta accepted")
	}
	bad = Delta{CompTables: []crdt.Change{{Actor: "a", Seq: 0}}}
	if err := s.Apply(bad); err == nil {
		t.Fatal("malformed table delta accepted")
	}
	bad = Delta{CompFiles: []crdt.Change{{Actor: "a", Seq: 0}}}
	if err := s.Apply(bad); err == nil {
		t.Fatal("malformed files delta accepted")
	}
}

func TestGoValueNesting(t *testing.T) {
	v := goValue(map[string]any{
		"l": script.NewList(1.0, script.NewList("x")),
		"s": "plain",
	})
	m, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("goValue = %T", v)
	}
	outer, ok := m["l"].([]any)
	if !ok || len(outer) != 2 {
		t.Fatalf("outer = %#v", m["l"])
	}
	inner, ok := outer[1].([]any)
	if !ok || inner[0] != "x" {
		t.Fatalf("inner = %#v", outer[1])
	}
}
