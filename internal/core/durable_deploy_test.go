package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/crdt"
	"repro/internal/durable"
	"repro/internal/httpapp"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// TestDeployDurableRestartRecovers is the end-to-end durability
// scenario: deploy with persistence, serve traffic that mutates the
// replicated state, stop, then deploy again over the same data
// directory and verify the second incarnation comes up with the state
// recovered from disk — without replaying the workload.
func TestDeployDurableRestartRecovers(t *testing.T) {
	res := transformSubject(t, "sensor-hub")
	sub, err := workload.ByName("sensor-hub")
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()

	cfg := DefaultDeployConfig()
	cfg.EdgeSpecs = cfg.EdgeSpecs[:2]
	cfg.Durability = DurabilityConfig{Dir: dataDir, Fsync: durable.FsyncAlways}

	clock := simclock.New()
	d, err := Deploy(clock, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Stores) != 3 {
		t.Fatalf("stores = %d, want 3 (cloud + 2 edges)", len(d.Stores))
	}
	served := 0
	for i := 0; i < 6; i++ {
		d.HandleAtEdge(sub.SampleRequest(0, i, 9), func(_ *httpapp.Response, err error) {
			if err == nil {
				served++
			}
		})
		clock.RunUntil(clock.Now() + time.Second)
	}
	if served != 6 {
		t.Fatalf("served %d of 6", served)
	}
	d.SettleSync(60 * time.Second)
	if !d.Converged() {
		t.Fatal("first deployment did not converge")
	}
	var wantRows int
	if wantRows, err = d.Cloud.App.DB().RowCount("readings"); err != nil || wantRows == 0 {
		t.Fatalf("cloud rows = %d, %v", wantRows, err)
	}
	d.Stop()
	if d.Stores["cloud"].Stats().Appends == 0 {
		t.Fatal("cloud store recorded no WAL appends")
	}

	// Second incarnation over the same directory: every node must
	// recover rather than start fresh, and the recovered cloud app must
	// hold the rows without any traffic being replayed.
	d2, err := Deploy(simclock.New(), res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Stop()
	for node, store := range d2.Stores {
		if store.Recovery().Empty() {
			t.Fatalf("node %s recovered nothing", node)
		}
		if store.Recovery().Torn {
			t.Fatalf("node %s reports a torn log after a clean stop", node)
		}
	}
	rows, err := d2.Cloud.App.DB().RowCount("readings")
	if err != nil || rows != wantRows {
		t.Fatalf("recovered cloud rows = %d, %v; want %d", rows, err, wantRows)
	}
	d2.SettleSync(60 * time.Second)
	if !d2.Converged() {
		t.Fatal("recovered deployment did not converge")
	}
	ob := Observe(d2)
	if len(ob.Durability) != 3 {
		t.Fatalf("durability observations = %d, want 3", len(ob.Durability))
	}
	for _, rec := range ob.Durability {
		if !rec.Recovered {
			t.Fatalf("node %s not marked recovered: %+v", rec.Node, rec)
		}
	}
}

// TestDeployDurableSnapshotCadence verifies the automatic compaction
// path end to end: with a tiny SnapshotEvery the stores must have
// written snapshots by the time traffic settles.
func TestDeployDurableSnapshotCadence(t *testing.T) {
	res := transformSubject(t, "sensor-hub")
	sub, err := workload.ByName("sensor-hub")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultDeployConfig()
	cfg.EdgeSpecs = cfg.EdgeSpecs[:1]
	cfg.Durability = DurabilityConfig{
		Dir:           t.TempDir(),
		Fsync:         durable.FsyncNever,
		SnapshotEvery: 4,
	}
	clock := simclock.New()
	d, err := Deploy(clock, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	for i := 0; i < 8; i++ {
		d.HandleAtEdge(sub.SampleRequest(0, i, 3), nil)
		clock.RunUntil(clock.Now() + time.Second)
	}
	d.SettleSync(60 * time.Second)
	var snapshots int64
	for _, store := range d.Stores {
		snapshots += store.Stats().Snapshots
	}
	if snapshots == 0 {
		t.Fatal("no automatic snapshots despite SnapshotEvery=4")
	}
}

// TestDeployDurableTCPRestart runs the restart scenario over the real
// TCP transport: after a clean stop, the second deployment recovers
// each replica from disk, re-handshakes from durable heads, and
// converges with zero duplicate applies.
func TestDeployDurableTCPRestart(t *testing.T) {
	res := transformSubject(t, "sensor-hub")
	sub, err := workload.ByName("sensor-hub")
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	cfg := DefaultDeployConfig()
	cfg.EdgeSpecs = cfg.EdgeSpecs[:1]
	cfg.Transport = TransportTCP
	cfg.TCP.Interval = 10 * time.Millisecond
	cfg.Durability = DurabilityConfig{Dir: dataDir, Fsync: durable.FsyncAlways}

	clock := simclock.New()
	d, err := Deploy(clock, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		d.HandleAtEdge(sub.SampleRequest(0, i, 5), nil)
		clock.RunUntil(clock.Now() + time.Second)
	}
	d.SettleSync(15 * time.Second)
	if !d.Converged() {
		t.Fatal("first TCP deployment did not converge")
	}
	d.Stop()

	d2, err := Deploy(simclock.New(), res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Stop()
	d2.SettleSync(15 * time.Second)
	if !d2.Converged() {
		t.Fatal("recovered TCP deployment did not converge")
	}
	// Recovery declared durable heads at the handshake, so nothing the
	// disk already held crossed the wire twice.
	ms := d2.TCPMaster.Stats()
	if ms.ChangesRecv != ms.ChangesApplied {
		t.Fatalf("master received %d changes but applied %d after restart",
			ms.ChangesRecv, ms.ChangesApplied)
	}
	es := d2.Edges[0].TCP.Stats()
	if es.ChangesRecv != es.ChangesApplied {
		t.Fatalf("edge received %d changes but applied %d after restart",
			es.ChangesRecv, es.ChangesApplied)
	}
}

// TestAfterInvokeErrorsSurface closes every node's durable store under a
// live deployment, so each post-request persist fails: the failures must
// show up in the serve.after_invoke_errors.<server> counters and in
// Observe, not vanish.
func TestAfterInvokeErrorsSurface(t *testing.T) {
	res := transformSubject(t, "sensor-hub")
	sub, err := workload.ByName("sensor-hub")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultDeployConfig()
	cfg.EdgeSpecs = cfg.EdgeSpecs[:1]
	cfg.Durability = DurabilityConfig{Dir: t.TempDir(), Fsync: durable.FsyncNever}
	o := obs.New()
	clock := simclock.New()
	d, err := DeployContext(obs.With(context.Background(), o), clock, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if ob := Observe(d); ob.Bindings[1].AfterInvokeErrors != 0 {
		t.Fatalf("after-invoke errors before any fault: %+v", ob.Bindings[1])
	}
	for _, s := range d.Stores {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	const requests = 3
	for i := 0; i < requests; i++ {
		d.HandleAtEdge(sub.SampleRequest(0, i, 9), func(_ *httpapp.Response, err error) {
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		})
		clock.RunUntil(clock.Now() + time.Second)
	}
	edge := d.Edges[0]
	ob := Observe(d)
	var rec BindingObservation
	for _, b := range ob.Bindings {
		if b.Name == edge.Name {
			rec = b
		}
	}
	if rec.AfterInvokeErrors != requests {
		t.Fatalf("edge after-invoke errors = %d, want %d (%+v)", rec.AfterInvokeErrors, requests, rec)
	}
	if !strings.Contains(rec.AfterInvokeFirstError, "closed") {
		t.Fatalf("first after-invoke error = %q, want the closed-store failure", rec.AfterInvokeFirstError)
	}
	if got := o.Counter("serve.after_invoke_errors." + edge.Name).Value(); got != requests {
		t.Fatalf("serve.after_invoke_errors.%s = %d, want %d", edge.Name, got, requests)
	}
}

// TestDeployRecoveryFallbackIsReported: a node whose data directory
// holds a log without the container-creation prefix cannot be rebuilt
// and starts fresh. That fallback must be counted, carry its error into
// Observe, and not be reported as a recovery.
func TestDeployRecoveryFallbackIsReported(t *testing.T) {
	res := transformSubject(t, "sensor-hub")
	dataDir := t.TempDir()
	cfg := DefaultDeployConfig()
	cfg.EdgeSpecs = cfg.EdgeSpecs[:1]
	cfg.Durability = DurabilityConfig{Dir: dataDir, Fsync: durable.FsyncAlways}
	d, err := Deploy(simclock.New(), res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.SettleSync(60 * time.Second)
	d.Stop()

	// Rewrite edge-1's log as one record holding only its JSON history:
	// the table and file containers' creation changes are gone.
	edgeDir := filepath.Join(dataDir, "edge-1")
	old, err := durable.Open(edgeDir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jsonHistory := old.Recovery().Components["json"]
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if len(jsonHistory) == 0 {
		t.Fatal("edge-1 persisted no JSON history to keep")
	}
	if err := os.RemoveAll(edgeDir); err != nil {
		t.Fatal(err)
	}
	damaged, err := durable.Open(edgeDir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := damaged.Append(map[string][]crdt.Change{"json": jsonHistory}); err != nil {
		t.Fatal(err)
	}
	if err := damaged.Close(); err != nil {
		t.Fatal(err)
	}

	o := obs.New()
	d2, err := DeployContext(obs.With(context.Background(), o), simclock.New(), res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Stop()
	d2.SettleSync(60 * time.Second)
	if !d2.Converged() {
		t.Fatal("deployment with a fresh-started edge did not converge")
	}
	if got := o.Counter("durable.recovery.fallback").Value(); got != 1 {
		t.Fatalf("durable.recovery.fallback = %d, want 1", got)
	}
	for _, rec := range Observe(d2).Durability {
		switch rec.Node {
		case "cloud":
			if !rec.Recovered || rec.RecoveryError != "" {
				t.Errorf("cloud: %+v, want recovered without error", rec)
			}
		case "edge-1":
			if rec.Recovered || !strings.Contains(rec.RecoveryError, "recover") {
				t.Errorf("edge-1: %+v, want not recovered, with the recovery error", rec)
			}
		}
	}
}
