package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpapp"
	"repro/internal/placement"
	"repro/internal/provenance"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// placementReport is the schema of BENCH_placement.json: the Datalog
// decision latency across topology sizes, and the control loop's
// convergence behaviour (rounds from a workload shift to a stable
// assignment) on a live deployment.
type placementReport struct {
	provenance.Provenance

	// Decisions holds one row per synthetic topology size.
	Decisions []placementDecisionRow `json:"decisions"`

	// Convergence holds one row per phase of the shifting-workload run.
	Convergence []placementConvergenceRow `json:"convergence"`
}

type placementDecisionRow struct {
	Services int `json:"services"`
	Edges    int `json:"edges"`
	// Facts is the ground-fact count loaded per decision; DatalogRounds
	// the fixpoint iterations.
	Facts         int `json:"facts"`
	DatalogRounds int `json:"datalog_rounds"`

	NsPerDecision   int64   `json:"ns_per_decision"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
}

type placementConvergenceRow struct {
	// Phase names the workload change: warmup (cold start to first
	// placement), shift (demand moves to a different service), cooldown
	// (demand stops).
	Phase string `json:"phase"`
	// Rounds is how many control rounds the loop needed to reach the
	// phase's stable assignment.
	Rounds int64 `json:"rounds"`
	// Promotions/Retractions are the cumulative counters when the phase
	// stabilized.
	Promotions  int64 `json:"promotions"`
	Retractions int64 `json:"retractions"`
}

// synthInput builds a mixed fact snapshot: a third of the services hot,
// a third warm (and assigned round-robin), a third cold (assigned too,
// so they produce retract work).
func synthInput(services, edges int) placement.Input {
	in := placement.Input{Assigned: map[string][]string{}}
	for e := 0; e < edges; e++ {
		in.Edges = append(in.Edges, placement.Edge{Name: fmt.Sprintf("edge-%d", e), Connected: true})
	}
	for s := 0; s < services; s++ {
		name := fmt.Sprintf("GET /svc/%d", s)
		var req int64
		switch s % 3 {
		case 0:
			req = 100 // hot
		case 1:
			req = 10 // warm
		default:
			req = 0 // cold
		}
		in.Services = append(in.Services, placement.Service{Name: name, Requests: req})
		if s%3 != 0 {
			edge := in.Edges[s%edges].Name
			in.Assigned[edge] = append(in.Assigned[edge], name)
		}
	}
	return in
}

// benchDecision measures one topology size's Decide latency.
func benchDecision(services, edges int) (placementDecisionRow, error) {
	ctrl, err := placement.New(placement.Thresholds{HotRequests: 50, ColdRequests: 5}, "")
	if err != nil {
		return placementDecisionRow{}, err
	}
	in := synthInput(services, edges)
	probe, err := ctrl.Decide(in)
	if err != nil {
		return placementDecisionRow{}, err
	}
	runtime.GC()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ctrl.Decide(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	return placementDecisionRow{
		Services:        services,
		Edges:           edges,
		Facts:           probe.Facts,
		DatalogRounds:   probe.Stats.Rounds,
		NsPerDecision:   res.NsPerOp(),
		DecisionsPerSec: 1e9 / float64(res.NsPerOp()),
		AllocsPerOp:     res.AllocsPerOp(),
	}, nil
}

// benchConvergence deploys bookworm under the placement loop and drives
// a shifting workload: sustained demand on GET /books, then the demand
// moves to GET /books/:id, then stops. Each phase reports the control
// rounds until the assignment stabilizes at the expected shape.
func benchConvergence() ([]placementConvergenceRow, error) {
	sub, err := workload.ByName("bookworm")
	if err != nil {
		return nil, err
	}
	res, err := core.TransformSubjectTraffic(sub.Name, sub.Source, sub.Routes(), sub.RegressionVectors())
	if err != nil {
		return nil, err
	}
	clock := simclock.New()
	cfg := core.DefaultDeployConfig()
	cfg.Placement = core.PlacementConfig{
		Enabled:    true,
		Interval:   time.Second,
		Thresholds: placement.Thresholds{HotRequests: 3, ColdRequests: 1},
	}
	d, err := core.Deploy(clock, res, cfg)
	if err != nil {
		return nil, err
	}
	defer d.Stop()

	const maxRounds = 20
	// stepUntil drives one traffic burst per control round (service < 0
	// means silence) and counts rounds until done holds.
	stepUntil := func(service int, done func(core.PlacementObservation) bool) (int64, error) {
		for round := int64(1); round <= maxRounds; round++ {
			if service >= 0 {
				at := clock.Now() + 500*time.Millisecond
				for i := 0; i < 5; i++ {
					req := sub.SampleRequest(service, i, 11)
					clock.At(at, func() { d.HandleAtEdge(req, func(*httpapp.Response, error) {}) })
				}
			}
			clock.RunUntil(clock.Now() + time.Second)
			if done(d.Placement.Observation()) {
				return round, nil
			}
		}
		return 0, fmt.Errorf("no convergence within %d rounds", maxRounds)
	}
	everyEdgeHosts := func(po core.PlacementObservation, n int) bool {
		if len(po.Assignments) != len(d.Edges) {
			return false
		}
		for _, svcs := range po.Assignments {
			if len(svcs) != n {
				return false
			}
		}
		return true
	}

	var rows []placementConvergenceRow
	record := func(phase string, rounds int64) {
		po := d.Placement.Observation()
		rows = append(rows, placementConvergenceRow{
			Phase: phase, Rounds: rounds,
			Promotions: po.Promotions, Retractions: po.Retractions,
		})
	}

	// Warmup: cold start until GET /books is on every edge.
	rounds, err := stepUntil(0, func(po core.PlacementObservation) bool {
		return everyEdgeHosts(po, 1)
	})
	if err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	record("warmup", rounds)
	base := d.Placement.Observation()

	// Shift: demand moves to GET /books/:id; stable once the old service
	// drained everywhere (one retraction per edge) and each edge hosts
	// exactly the new one.
	rounds, err = stepUntil(1, func(po core.PlacementObservation) bool {
		return everyEdgeHosts(po, 1) && po.Retractions >= base.Retractions+int64(len(d.Edges))
	})
	if err != nil {
		return nil, fmt.Errorf("shift: %w", err)
	}
	record("shift", rounds)

	// Cooldown: demand stops; stable once nothing is assigned or
	// draining.
	rounds, err = stepUntil(-1, func(po core.PlacementObservation) bool {
		return len(po.Assignments) == 0 && len(po.Draining) == 0
	})
	if err != nil {
		return nil, fmt.Errorf("cooldown: %w", err)
	}
	record("cooldown", rounds)
	return rows, nil
}

// runBenchPlacement measures the placement engine and writes the report
// to outPath.
func runBenchPlacement(outPath string) error {
	rep := placementReport{Provenance: provenance.Current()}

	for _, tc := range []struct{ services, edges int }{
		{6, 4}, {50, 16}, {200, 64},
	} {
		row, err := benchDecision(tc.services, tc.edges)
		if err != nil {
			return err
		}
		rep.Decisions = append(rep.Decisions, row)
		fmt.Printf("placement decide %d services × %d edges: %.1fµs (%.0f decisions/s, %d facts, %d datalog rounds)\n",
			row.Services, row.Edges, float64(row.NsPerDecision)/1e3, row.DecisionsPerSec, row.Facts, row.DatalogRounds)
	}

	conv, err := benchConvergence()
	if err != nil {
		return err
	}
	rep.Convergence = conv
	for _, row := range conv {
		fmt.Printf("placement converge %-8s %d round(s) (promotions=%d retractions=%d)\n",
			row.Phase, row.Rounds, row.Promotions, row.Retractions)
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(outPath, out, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", outPath)
	return nil
}
