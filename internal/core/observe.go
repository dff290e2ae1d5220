package core

import (
	"repro/internal/obs"
	"repro/internal/script"
	"repro/internal/sqldb"
	"repro/internal/statesync"
)

// Observation is the introspection snapshot of a running deployment:
// the observability trace/metrics (when the deployment was created
// under an obs context), the synchronization runtime's traffic
// statistics, and per-edge-node serving counters. It marshals to the
// JSON shape `edgstr -trace -metrics` emits.
type Observation struct {
	// Name is the deployed app's name.
	Name string `json:"name"`
	// Observability is the trace forest and metrics registry snapshot;
	// nil when the deployment runs without an Obs.
	Observability *obs.Snapshot `json:"observability,omitempty"`
	// StateSync is the synchronization runtime's traffic accounting
	// (statesync.Manager.Stats), surfaced through the public facade. It
	// stays zero under TransportTCP, where the Transport section carries
	// the accounting instead.
	StateSync statesync.Stats `json:"statesync"`
	// Converged reports whether every edge currently matches the cloud.
	Converged bool `json:"converged"`
	// Edges lists per-edge-node serving counters.
	Edges []EdgeObservation `json:"edges"`
	// Transport lists per-edge TCP connection supervision state; present
	// only when the deployment runs the TCP transport.
	Transport []TransportObservation `json:"transport,omitempty"`
	// Durability lists per-node persistence records (recovery outcome
	// and WAL I/O); present only when the deployment persists state.
	Durability []DurabilityObservation `json:"durability,omitempty"`
	// Bindings lists per-node app↔CRDT mirror health: how many outbound
	// mutation mirrors failed and the first failure. All-zero in a
	// healthy deployment; a nonzero entry flags replica divergence.
	Bindings []BindingObservation `json:"bindings"`
	// Placement is the placement control loop's latest decision record;
	// present only when the deployment runs with a placement controller.
	Placement *PlacementObservation `json:"placement,omitempty"`
}

// BindingObservation is one node's outbound mirror failure record.
type BindingObservation struct {
	Name string `json:"name"`
	// ApplyErrors counts committed app mutations that failed to mirror
	// into the node's CRDT components (statesync.bind.apply_errors).
	ApplyErrors int64 `json:"apply_errors"`
	// FirstError is the first mirror failure ("" when none).
	FirstError string `json:"first_error,omitempty"`
	// AfterInvokeErrors counts failures of the post-request step that
	// mirrors globals and persists the replica
	// (serve.after_invoke_errors); AfterInvokeFirstError is the first.
	AfterInvokeErrors     int64  `json:"after_invoke_errors"`
	AfterInvokeFirstError string `json:"after_invoke_first_error,omitempty"`
}

// PlacementObservation is the placement control loop's cumulative
// record plus its latest derived assignment.
type PlacementObservation struct {
	// Rounds counts completed placement decision rounds.
	Rounds int64 `json:"rounds"`
	// Promotions/Retractions count applied service moves across all
	// rounds.
	Promotions  int64 `json:"promotions"`
	Retractions int64 `json:"retractions"`
	// LastDecisionMS is the wall-clock cost of the most recent Datalog
	// decision (fact load + fixpoint + extraction).
	LastDecisionMS float64 `json:"last_decision_ms"`
	// DatalogRounds/FactsDerived are the engine's RunStats for the most
	// recent fixpoint.
	DatalogRounds int `json:"datalog_rounds"`
	FactsDerived  int `json:"facts_derived"`
	// Assignments maps edge name to the services currently enabled
	// there (sorted).
	Assignments map[string][]string `json:"assignments"`
	// Draining maps edge name to services retracted but still draining
	// in-flight requests (sorted; omitted when empty).
	Draining map[string][]string `json:"draining,omitempty"`
	// LastError is the most recent decision failure ("" when the loop is
	// healthy). A failed round leaves the previous assignment in place.
	LastError string `json:"last_error,omitempty"`
}

// TransportObservation is one edge's TCP connection supervision record.
type TransportObservation struct {
	Name string `json:"name"`
	// State is the link's lifecycle phase: connected, reconnecting, or
	// disconnected.
	State string `json:"state"`
	// Reconnects counts successful re-handshakes after a connection
	// loss; DialAttempts counts reconnect dials, successful or not.
	Reconnects   int64 `json:"reconnects"`
	DialAttempts int64 `json:"dial_attempts"`
	// LastError is the most recent connection error ("" when none).
	LastError string `json:"last_error,omitempty"`
	// Traffic accounting for this edge's side of the link.
	BytesSent      int64 `json:"bytes_sent"`
	BytesReceived  int64 `json:"bytes_received"`
	HeartbeatsSent int64 `json:"heartbeats_sent"`
	HeartbeatsRecv int64 `json:"heartbeats_recv"`
}

// EdgeObservation is one edge node's serving record.
type EdgeObservation struct {
	Name string `json:"name"`
	// ServedLocally counts requests the replica completed at the edge;
	// Forwarded counts requests it redirected to the cloud master.
	ServedLocally int64 `json:"served_locally"`
	Forwarded     int64 `json:"forwarded"`
	// NodeServed is the node's completed-execution count (local serves
	// only; forwards execute on the cloud node).
	NodeServed int64 `json:"node_served"`
	// Utilization is the node's mean busy fraction across cores.
	Utilization float64 `json:"utilization"`
	// Active reports whether the node is powered up (the elasticity
	// controller parks idle replicas in low-power mode).
	Active bool `json:"active"`
	// EnergyJ is the node's cumulative energy in joules; PowerState is
	// its meter state (active / low-power / off). Parked replicas keep
	// accruing at their low-power wattage, so the fleet's energy saving
	// is directly observable as a slower EnergyJ slope.
	EnergyJ    float64 `json:"energy_j"`
	PowerState string  `json:"power_state"`
}

func bindingObservation(name string, b *statesync.Binding, after *afterInvokeErrs) BindingObservation {
	n, err := b.ApplyErrors()
	bo := BindingObservation{Name: name, ApplyErrors: n}
	if err != nil {
		bo.FirstError = err.Error()
	}
	if after != nil {
		n, err := after.read()
		bo.AfterInvokeErrors = n
		if err != nil {
			bo.AfterInvokeFirstError = err.Error()
		}
	}
	return bo
}

// observeVM copies the script interpreter's process-wide VM counters
// (script.ReadVMStats) into the metrics registry as `script.*` gauges,
// so the snapshot records the bytecode compiler/cache/frame-pool state
// at observe time alongside the deployment's own metrics.
func observeVM(o *obs.Obs) {
	vs := script.ReadVMStats()
	o.Gauge("script.programs_compiled").Set(float64(vs.ProgramsCompiled))
	o.Gauge("script.funcs_compiled").Set(float64(vs.FuncsCompiled))
	o.Gauge("script.compile_ms").Set(float64(vs.CompileNs) / 1e6)
	o.Gauge("script.bytecode_cache_hits").Set(float64(vs.BytecodeCacheHits))
	o.Gauge("script.frames_pooled").Set(float64(vs.FramesPooled))
	o.Gauge("script.frames_allocated").Set(float64(vs.FramesAllocated))
}

// observeSQL copies the process-wide count of SQL statement-cache
// misses (sqldb.StmtsParsed) into the registry as the
// `sqldb.stmts_parsed` gauge. Under steady traffic it stays flat; a
// rising value means the statement caches are thrashing.
func observeSQL(o *obs.Obs) {
	o.Gauge("sqldb.stmts_parsed").Set(float64(sqldb.StmtsParsed()))
}

// Observe captures an introspection snapshot of the deployment. It is
// safe to call at any point in the deployment's lifetime, repeatedly,
// and on a deployment created without observability (the trace/metrics
// section is then omitted; the statesync and edge counters are always
// present because they are maintained by the runtime itself).
func Observe(d *Deployment) Observation {
	o := Observation{
		Name:      d.Result.Name,
		Converged: d.Converged(),
	}
	if d.Sync != nil {
		o.StateSync = d.Sync.Stats()
	}
	if d.Obs != nil {
		observeVM(d.Obs)
		observeSQL(d.Obs)
		o.Observability = d.Obs.Snapshot()
	}
	o.Durability = d.observeDurability()
	if d.Placement != nil {
		po := d.Placement.Observation()
		o.Placement = &po
	}
	o.Bindings = append(o.Bindings, bindingObservation("cloud", d.CloudBinding, d.cloudAfterErrs))
	for _, e := range d.Edges {
		o.Bindings = append(o.Bindings, bindingObservation(e.Name, e.Binding, e.afterErrs))
	}
	for _, e := range d.Edges {
		o.Edges = append(o.Edges, EdgeObservation{
			Name:          e.Name,
			ServedLocally: e.ServedLocally,
			Forwarded:     e.Forwarded,
			NodeServed:    e.Server.Node.Served(),
			Utilization:   e.Server.Node.Utilization(),
			Active:        e.Server.Node.Active(),
			EnergyJ:       e.Server.Node.Energy.Joules(),
			PowerState:    e.Server.Node.Energy.State().String(),
		})
		if e.TCP != nil {
			st, ts := e.TCP.Status(), e.TCP.Stats()
			o.Transport = append(o.Transport, TransportObservation{
				Name:           e.Name,
				State:          string(st.State),
				Reconnects:     st.Reconnects,
				DialAttempts:   st.DialAttempts,
				LastError:      st.LastError,
				BytesSent:      ts.BytesSent,
				BytesReceived:  ts.BytesReceived,
				HeartbeatsSent: ts.HeartbeatsSent,
				HeartbeatsRecv: ts.HeartbeatsRecv,
			})
		}
	}
	return o
}
