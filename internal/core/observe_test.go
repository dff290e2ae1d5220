package core

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// collectSpanNames flattens a span forest into a name set.
func collectSpanNames(spans []*obs.SpanSnapshot, into map[string]int) {
	for _, s := range spans {
		into[s.Name]++
		collectSpanNames(s.Children, into)
	}
}

// TestObservedPipelineSpans runs the full observed lifecycle and checks
// the span taxonomy: every pipeline stage must appear, with one
// analysis.service span per inferred service nested under analyze.
func TestObservedPipelineSpans(t *testing.T) {
	sub := workload.Quickstart()
	o := obs.New()
	ctx := obs.With(context.Background(), o)
	res, err := TransformSubjectTrafficContext(ctx, sub.Name, sub.Source, sub.Routes(), sub.RegressionVectors(), 2)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.New()
	dep, err := DeployContext(ctx, clock, res, DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range sub.RegressionVectors() {
		dep.HandleAtEdge(req, nil)
	}
	clock.RunUntil(10 * time.Second)
	dep.SettleSync(60 * time.Second)
	dep.Stop()

	snap := o.Snapshot()
	names := map[string]int{}
	collectSpanNames(snap.Trace, names)
	for _, want := range []string{"pipeline", "capture", "transform", "normalize",
		"infer_subject", "analyze", "analysis.service", "datalog", "extract",
		"generate_replica", "state_init", "deploy"} {
		if names[want] == 0 {
			t.Errorf("missing span %q in trace (got %v)", want, names)
		}
	}
	if got := names["analysis.service"]; got != len(res.Services) {
		t.Errorf("analysis.service spans = %d, want one per service (%d)", got, len(res.Services))
	}

	// The metrics registry must carry the pipeline + runtime families.
	m := o.Metrics()
	if v := m.Counter("capture.records").Value(); v != int64(len(sub.RegressionVectors())) {
		t.Errorf("capture.records = %d, want %d", v, len(sub.RegressionVectors()))
	}
	if m.Counter("analysis.services").Value() != int64(len(res.Services)) {
		t.Errorf("analysis.services = %d", m.Counter("analysis.services").Value())
	}
	if m.Counter("datalog.facts_derived").Value() <= 0 || m.Counter("datalog.iterations").Value() <= 0 {
		t.Error("datalog counters not recorded")
	}
	if m.Histogram("analysis.service_ms").Count() != len(res.Services) {
		t.Errorf("analysis.service_ms count = %d", m.Histogram("analysis.service_ms").Count())
	}
	if m.Counter("statesync.messages").Value() <= 0 || m.Counter("statesync.edge_state_bytes").Value() <= 0 {
		t.Error("statesync counters not recorded")
	}
	if m.Counter("statesync.ack_round_trips").Value() <= 0 {
		t.Error("ack round-trips not recorded")
	}
	var edgeReqs int64
	for _, e := range dep.Edges {
		edgeReqs += m.Counter("cluster.requests." + e.Name).Value()
	}
	if edgeReqs <= 0 {
		t.Error("per-edge request counters not recorded")
	}
}

// TestObserveSnapshot checks the introspection API: statesync stats and
// per-edge counters must surface through Observe even without an Obs,
// and the result must be JSON-marshalable.
func TestObserveSnapshot(t *testing.T) {
	sub := workload.Quickstart()
	res, err := TransformSubjectTraffic(sub.Name, sub.Source, sub.Routes(), sub.RegressionVectors())
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.New()
	dep, err := Deploy(clock, res, DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range sub.RegressionVectors() {
		dep.HandleAtEdge(req, nil)
	}
	clock.RunUntil(10 * time.Second)
	dep.SettleSync(60 * time.Second)
	dep.Stop()

	ob := Observe(dep)
	if ob.Name != sub.Name {
		t.Errorf("name = %q", ob.Name)
	}
	if ob.Observability != nil {
		t.Error("deployment without obs must omit the observability section")
	}
	if ob.StateSync.Messages <= 0 || ob.StateSync.TotalBytes() <= 0 {
		t.Errorf("statesync stats not surfaced: %+v", ob.StateSync)
	}
	if ob.StateSync.AckRoundTrips <= 0 {
		t.Errorf("ack round-trips not surfaced: %+v", ob.StateSync)
	}
	if len(ob.Edges) != len(dep.Edges) {
		t.Fatalf("edges = %d, want %d", len(ob.Edges), len(dep.Edges))
	}
	var local int64
	for _, e := range ob.Edges {
		local += e.ServedLocally
	}
	if local <= 0 {
		t.Error("no edge-served requests recorded")
	}
	raw, err := json.Marshal(ob)
	if err != nil {
		t.Fatalf("observation must marshal: %v", err)
	}
	var back Observation
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("observation must round-trip: %v", err)
	}
	if back.StateSync != ob.StateSync {
		t.Errorf("statesync stats lost in JSON round-trip: %+v vs %+v", back.StateSync, ob.StateSync)
	}
}

// TestStmtsParsedGaugeFlat checks that the sqldb.stmts_parsed gauge
// stays flat across a repeat of identical requests: once every SQL text
// has been parsed, the statement caches answer all of them.
func TestStmtsParsedGaugeFlat(t *testing.T) {
	sub := workload.Bookworm()
	o := obs.New()
	ctx := obs.With(context.Background(), o)
	res, err := TransformSubjectTrafficContext(ctx, sub.Name, sub.Source, sub.Routes(), sub.RegressionVectors(), 1)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.New()
	dep, err := DeployContext(ctx, clock, res, DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	gauge := func() float64 {
		Observe(dep)
		return o.Gauge("sqldb.stmts_parsed").Value()
	}
	serve := func() {
		for _, req := range sub.RegressionVectors() {
			dep.HandleAtEdge(req, nil)
		}
		clock.RunUntil(clock.Now() + time.Second)
	}
	serve()
	warm := gauge()
	if warm <= 0 {
		t.Fatalf("sqldb.stmts_parsed = %v after serving SQL requests, want > 0", warm)
	}
	for i := 0; i < 3; i++ {
		serve()
	}
	if got := gauge(); got != warm {
		t.Fatalf("sqldb.stmts_parsed rose from %v to %v over repeated identical requests", warm, got)
	}
}
