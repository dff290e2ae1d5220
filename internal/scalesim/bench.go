package scalesim

import (
	"fmt"
	"time"

	"repro/internal/provenance"
)

// BenchReport is the BENCH_scale.json document: star and fabric runs of
// the same client workload across a sweep of edge counts, plus the
// derived scaling factors the CI gate checks.
type BenchReport struct {
	provenance.Provenance
	GeneratedUnix int64 `json:"generated_unix"`
	Clients       int   `json:"clients"`
	Seed          int64 `json:"seed"`
	EdgePoints    []int `json:"edge_points"`

	Rows []*Result `json:"rows"`

	// EgressGrowth is master egress at the largest edge point divided
	// by the smallest, per mode. The star grows linearly with edges;
	// the fabric grows with its (√edges) group count — the relay tier's
	// sublinearity claim, checked as FabricEgressGrowth strictly below
	// StarEgressGrowth.
	StarEgressGrowth   float64 `json:"star_egress_growth"`
	FabricEgressGrowth float64 `json:"fabric_egress_growth"`
	// EgressReductionAtMax is star/fabric master egress at the largest
	// edge point — how much downstream WAN the relay tier saves there.
	EgressReductionAtMax float64 `json:"egress_reduction_at_max"`
}

// BenchConfig parameterizes the sweep.
type BenchConfig struct {
	// Clients per run (default 100000).
	Clients int
	// EdgePoints is the edge-count sweep (default 10, 50, 200).
	EdgePoints []int
	// Groups pins the fabric's relay group count; 0 scales it as
	// ~√edges per point.
	Groups int
	Seed   int64
	// RequestsPerClient defaults to the simulator's closed-loop depth.
	RequestsPerClient int
	// Progress, when non-nil, receives a line per completed run.
	Progress func(string)
}

// Bench runs the star-vs-fabric sweep and derives the scaling factors.
func Bench(bc BenchConfig) (*BenchReport, error) {
	if bc.Clients <= 0 {
		bc.Clients = 100_000
	}
	if len(bc.EdgePoints) == 0 {
		bc.EdgePoints = []int{10, 50, 200}
	}
	if bc.Seed == 0 {
		bc.Seed = 1
	}
	progress := bc.Progress
	if progress == nil {
		progress = func(string) {}
	}
	rep := &BenchReport{Provenance: provenance.Current(), Clients: bc.Clients, Seed: bc.Seed, EdgePoints: bc.EdgePoints}
	byMode := map[Mode]map[int]*Result{ModeStar: {}, ModeFabric: {}}
	for _, edges := range bc.EdgePoints {
		for _, mode := range []Mode{ModeStar, ModeFabric} {
			start := time.Now()
			r, err := Run(Config{
				Mode:              mode,
				Clients:           bc.Clients,
				Edges:             edges,
				Groups:            bc.Groups,
				RequestsPerClient: bc.RequestsPerClient,
				Seed:              bc.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("scalesim: %s/%d edges: %w", mode, edges, err)
			}
			rep.Rows = append(rep.Rows, r)
			byMode[mode][edges] = r
			progress(fmt.Sprintf(
				"%-6s edges=%-3d groups=%-2d p50=%8.1fms p99=%8.1fms master=%9.0f B/s relay=%9.0f B/s (%.1fs wall)",
				mode, edges, r.Groups, r.P50Ms, r.P99Ms,
				r.MasterEgressPerSec, r.RelayFanoutPerSec, time.Since(start).Seconds()))
		}
	}
	lo, hi := bc.EdgePoints[0], bc.EdgePoints[len(bc.EdgePoints)-1]
	rep.StarEgressGrowth = growth(byMode[ModeStar][lo], byMode[ModeStar][hi])
	rep.FabricEgressGrowth = growth(byMode[ModeFabric][lo], byMode[ModeFabric][hi])
	if f := byMode[ModeFabric][hi]; f != nil && f.MasterEgressBytes > 0 {
		rep.EgressReductionAtMax = float64(byMode[ModeStar][hi].MasterEgressBytes) / float64(f.MasterEgressBytes)
	}
	rep.GeneratedUnix = time.Now().Unix()
	return rep, nil
}

func growth(lo, hi *Result) float64 {
	if lo == nil || hi == nil || lo.MasterEgressBytes == 0 {
		return 0
	}
	return float64(hi.MasterEgressBytes) / float64(lo.MasterEgressBytes)
}
