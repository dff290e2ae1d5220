package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/datalog"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/statesync"
)

// PlacementConfig enables the Datalog-driven placement control loop:
// instead of replicating every extracted service to every edge up
// front, the deployment starts with empty edges and a periodic
// controller decides — from live observability facts — which services
// each edge serves. See DESIGN.md §13.
type PlacementConfig struct {
	// Enabled turns the control loop on.
	Enabled bool
	// Interval is the control round period (default 1s of virtual time).
	Interval time.Duration
	// Rules is the placement rule program; empty selects
	// placement.DefaultRulesText.
	Rules string
	// Thresholds discretize observations into fact bands; the zero value
	// selects placement.DefaultThresholds.
	Thresholds placement.Thresholds
	// EdgeCapacity caps services per edge (≤ 0 means unlimited).
	EdgeCapacity int
	// EnergyBudgetW, when positive, marks an edge energy(E, over) once
	// its mean power draw over a control window exceeds it.
	EnergyBudgetW float64
	// Colocate lists service pairs the rules should keep together.
	Colocate [][2]string
}

// PlacementRuntime runs the control loop for one deployment. Each round
// it snapshots per-service demand (serve.requests.* counters and
// serve.latency.* histograms), per-edge link state, replication traffic,
// and energy draw, feeds them through the placement controller's Datalog
// program, and applies the decision: promotions enable a service at an
// edge immediately (state is already continuously replicated — placement
// controls serving, not synchronization), retractions move it to a
// draining set that stops new traffic and clears once the edge has no
// requests in flight.
type PlacementRuntime struct {
	d    *Deployment
	cfg  PlacementConfig
	ctrl *placement.Controller

	roundsC      *obs.Counter
	promotionsC  *obs.Counter
	retractionsC *obs.Counter
	decisionMS   *obs.Histogram

	mu      sync.Mutex
	running bool
	// enabled and draining map edge name → service set. A service serves
	// at an edge iff enabled; draining entries only block re-promotion
	// bookkeeping from forgetting an in-flight retraction.
	enabled  map[string]map[string]bool
	draining map[string]map[string]bool
	// Window state: cumulative counters sampled last round, diffed each
	// round into per-window facts.
	lastReq       map[string]int64
	lastJoules    map[string]float64
	lastBytes     map[string]int64
	lastSyncBytes int64
	lastNow       time.Duration

	rounds      int64
	promotions  int64
	retractions int64
	lastStats   datalog.RunStats
	lastFacts   int
	lastElapsed time.Duration
	lastErr     error
}

func newPlacementRuntime(d *Deployment, cfg PlacementConfig) (*PlacementRuntime, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Thresholds == (placement.Thresholds{}) {
		cfg.Thresholds = placement.DefaultThresholds()
	}
	ctrl, err := placement.New(cfg.Thresholds, cfg.Rules)
	if err != nil {
		return nil, fmt.Errorf("core: placement: %w", err)
	}
	p := &PlacementRuntime{
		d:            d,
		cfg:          cfg,
		ctrl:         ctrl,
		roundsC:      d.Obs.Counter("placement.rounds"),
		promotionsC:  d.Obs.Counter("placement.promotions"),
		retractionsC: d.Obs.Counter("placement.retractions"),
		decisionMS:   d.Obs.Histogram("placement.decision_ms"),
		enabled:      map[string]map[string]bool{},
		draining:     map[string]map[string]bool{},
		lastReq:      map[string]int64{},
		lastJoules:   map[string]float64{},
		lastBytes:    map[string]int64{},
		lastNow:      d.Clock.Now(),
	}
	for _, e := range d.Edges {
		p.enabled[e.Name] = map[string]bool{}
		p.draining[e.Name] = map[string]bool{}
		// Baseline the energy window so the first round diffs against
		// deploy time, not zero.
		p.lastJoules[e.Name] = e.Server.Node.Energy.Joules()
	}
	return p, nil
}

// Start begins periodic control rounds on the deployment clock.
func (p *PlacementRuntime) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.running {
		return
	}
	p.running = true
	p.schedule()
}

// Stop halts the loop (in-flight drains stay recorded).
func (p *PlacementRuntime) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.running = false
}

// schedule queues the next round; callers hold p.mu.
func (p *PlacementRuntime) schedule() {
	p.d.Clock.After(p.cfg.Interval, func() {
		p.mu.Lock()
		run := p.running
		p.mu.Unlock()
		if !run {
			return
		}
		p.Tick()
		p.mu.Lock()
		if p.running {
			p.schedule()
		}
		p.mu.Unlock()
	})
}

// Tick runs one control round immediately (the loop calls it
// periodically; tests call it directly for determinism).
func (p *PlacementRuntime) Tick() {
	p.mu.Lock()
	defer p.mu.Unlock()

	// Complete drains: a retracted service is gone once its edge has no
	// requests in flight.
	for _, e := range p.d.Edges {
		if len(p.draining[e.Name]) > 0 && e.Server.ActiveConns() == 0 {
			p.draining[e.Name] = map[string]bool{}
		}
	}

	in, now := p.snapshotLocked()
	dec, err := p.ctrl.Decide(in)
	if err != nil {
		p.lastErr = err
		return
	}

	next := make(map[string]map[string]bool, len(dec.Next))
	for edge, svcs := range dec.Next {
		set := make(map[string]bool, len(svcs))
		for _, s := range svcs {
			set[s] = true
		}
		next[edge] = set
	}
	for _, mv := range dec.Retract {
		if p.draining[mv.Edge] == nil {
			p.draining[mv.Edge] = map[string]bool{}
		}
		p.draining[mv.Edge][mv.Service] = true
	}
	p.enabled = next

	p.rounds++
	p.promotions += int64(len(dec.Promote))
	p.retractions += int64(len(dec.Retract))
	p.roundsC.Add(1)
	p.promotionsC.Add(int64(len(dec.Promote)))
	p.retractionsC.Add(int64(len(dec.Retract)))
	p.decisionMS.Observe(float64(dec.Elapsed) / float64(time.Millisecond))
	p.lastStats, p.lastFacts, p.lastElapsed = dec.Stats, dec.Facts, dec.Elapsed
	p.lastNow = now
}

// snapshotLocked diffs the cumulative observability counters into one
// round's fact input; callers hold p.mu.
func (p *PlacementRuntime) snapshotLocked() (placement.Input, time.Duration) {
	now := p.d.Clock.Now()
	elapsed := (now - p.lastNow).Seconds()

	var services []placement.Service
	for _, name := range p.d.Result.ReplicatedServiceNames() {
		cur := p.d.Obs.Counter("serve.requests." + name).Value()
		window := cur - p.lastReq[name]
		p.lastReq[name] = cur
		services = append(services, placement.Service{
			Name:         name,
			Requests:     window,
			P95LatencyMS: p.d.Obs.Histogram("serve.latency." + name).Quantile(95),
		})
	}

	// Per-edge replication traffic: the TCP transport accounts per
	// connection; the virtual manager accounts globally, so its window
	// volume is attributed evenly across edges.
	var syncPer int64
	if p.d.Sync != nil && len(p.d.Edges) > 0 {
		total := p.d.Sync.Stats().TotalBytes()
		syncPer = (total - p.lastSyncBytes) / int64(len(p.d.Edges))
		p.lastSyncBytes = total
	}

	edges := make([]placement.Edge, 0, len(p.d.Edges))
	for _, e := range p.d.Edges {
		connected := true
		if e.TCP != nil {
			connected = e.TCP.Status().State == statesync.ConnConnected
		}
		j := e.Server.Node.Energy.Joules()
		over := false
		if p.cfg.EnergyBudgetW > 0 && elapsed > 0 {
			over = (j-p.lastJoules[e.Name])/elapsed > p.cfg.EnergyBudgetW
		}
		p.lastJoules[e.Name] = j
		deltaBytes := syncPer
		if e.TCP != nil {
			ts := e.TCP.Stats()
			cur := ts.BytesSent + ts.BytesReceived
			deltaBytes = cur - p.lastBytes[e.Name]
			p.lastBytes[e.Name] = cur
		}
		edges = append(edges, placement.Edge{
			Name:       e.Name,
			Connected:  connected && e.Server.Node.Active(),
			Capacity:   p.cfg.EdgeCapacity,
			EnergyOver: over,
			DeltaBytes: deltaBytes,
		})
	}

	assigned := make(map[string][]string, len(p.enabled))
	for edge, set := range p.enabled {
		svcs := make([]string, 0, len(set))
		for s := range set {
			svcs = append(svcs, s)
		}
		assigned[edge] = svcs
	}
	in := placement.Input{
		Services: services,
		Edges:    edges,
		Assigned: assigned,
		Colocate: p.cfg.Colocate,
	}
	return in, now
}

// routeEdge picks the serving edge for one request: the balancer's
// choice if the service is enabled there, otherwise the balancer policy
// restricted to edges where it is. nil means no edge serves the service
// yet (the caller forwards to the cloud).
func (p *PlacementRuntime) routeEdge(svc string, preferred *EdgeReplica) *EdgeReplica {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.enabled[preferred.Name][svc] {
		return preferred
	}
	srv, err := p.d.Balancer.PickWhere(func(s *cluster.Server) bool {
		return p.enabled[s.Name][svc]
	})
	if err != nil {
		return nil
	}
	return p.d.edgeFor(srv)
}

// Observation snapshots the runtime's cumulative record.
func (p *PlacementRuntime) Observation() PlacementObservation {
	p.mu.Lock()
	defer p.mu.Unlock()
	po := PlacementObservation{
		Rounds:         p.rounds,
		Promotions:     p.promotions,
		Retractions:    p.retractions,
		LastDecisionMS: float64(p.lastElapsed) / float64(time.Millisecond),
		DatalogRounds:  p.lastStats.Rounds,
		FactsDerived:   p.lastStats.FactsDerived,
		Assignments:    setsToSorted(p.enabled),
	}
	if dr := setsToSorted(p.draining); len(dr) > 0 {
		po.Draining = dr
	}
	if p.lastErr != nil {
		po.LastError = p.lastErr.Error()
	}
	return po
}

// setsToSorted flattens edge→set maps into edge→sorted-slice maps,
// dropping empty sets.
func setsToSorted(m map[string]map[string]bool) map[string][]string {
	out := map[string][]string{}
	for edge, set := range m {
		if len(set) == 0 {
			continue
		}
		svcs := make([]string, 0, len(set))
		for s := range set {
			svcs = append(svcs, s)
		}
		sort.Strings(svcs)
		out[edge] = svcs
	}
	return out
}
