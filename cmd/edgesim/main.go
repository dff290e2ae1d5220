// Command edgesim transforms a subject app, deploys it on a simulated
// edge cluster, and drives a client load scenario against both the
// original two-tier and the transformed three-tier deployments,
// reporting latency, throughput, WAN traffic, and energy.
//
// With -scale it instead runs the closed-loop scale simulator: the same
// deterministic client fleet against the flat star and the two-tier
// relay fabric across a sweep of edge counts, writing the
// BENCH_scale.json scaling report.
//
// Usage:
//
//	edgesim -subject fobojet -n 50 -rps 10 -bw 500 -lat 200 -edges 4
//	edgesim -scale -clients 100000 -scaleedges 10,50,200 -scaleout BENCH_scale.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/netem"
)

func main() {
	subject := flag.String("subject", "fobojet", "subject app")
	n := flag.Int("n", 50, "number of client requests")
	rps := flag.Float64("rps", 10, "offered request rate")
	bwKbps := flag.Int("bw", 500, "WAN bandwidth (Kbps)")
	latMs := flag.Int("lat", 200, "WAN latency (ms)")
	edges := flag.Int("edges", 4, "edge replicas")
	scale := flag.Bool("scale", false, "run the star-vs-fabric scale sweep instead of the subject scenario")
	clients := flag.Int("clients", 100_000, "scale sweep: simulated clients per run")
	reqPer := flag.Int("reqper", 0, "scale sweep: requests per client (0 = simulator default)")
	scaleEdges := flag.String("scaleedges", "10,50,200", "scale sweep: comma-separated edge counts")
	scaleGroups := flag.Int("scalegroups", 0, "scale sweep: relay groups (0 = ~sqrt(edges) per point)")
	seed := flag.Int64("seed", 1, "scale sweep: deterministic seed")
	scaleOut := flag.String("scaleout", "BENCH_scale.json", "scale sweep: output report path")
	flag.Parse()

	var err error
	if *scale {
		err = runScale(*clients, *reqPer, *scaleEdges, *scaleGroups, *seed, *scaleOut)
	} else {
		err = run(*subject, *n, *rps, *bwKbps, *latMs, *edges)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgesim:", err)
		os.Exit(1)
	}
}

func run(subject string, n int, rps float64, bwKbps, latMs, edges int) error {
	wan := netem.LimitedWAN(bwKbps, latMs)
	fmt.Printf("subject=%s n=%d rps=%.0f WAN=%dKbps/%dms edges=%d\n\n",
		subject, n, rps, bwKbps, latMs, edges)

	cloud, err := experiments.RunCloud(subject, wan, n, rps)
	if err != nil {
		return fmt.Errorf("cloud scenario: %w", err)
	}
	edge, err := experiments.RunEdge(subject, wan, n, rps, experiments.EdgeOptions{Edges: edges})
	if err != nil {
		return fmt.Errorf("edge scenario: %w", err)
	}

	report := func(name string, r *experiments.ScenarioResult) {
		fmt.Printf("%-18s completed=%d failed=%d\n", name, r.Completed, r.Failed)
		fmt.Printf("  latency ms:     mean=%.1f p50=%.1f p95=%.1f\n",
			r.Latency.Mean(), r.Latency.Percentile(50), r.Latency.Percentile(95))
		fmt.Printf("  throughput:     %.2f req/s (makespan %v)\n", r.Throughput, r.Makespan)
		fmt.Printf("  WAN traffic:    client=%dB sync=%dB forward=%dB (%.1f B/req)\n",
			r.ClientWANBytes, r.SyncWANBytes, r.ForwardWANBytes, r.WANBytesPerRequest())
		fmt.Printf("  client energy:  %.2f J\n", r.ClientEnergyJ)
		if r.EdgeEnergyJ > 0 {
			fmt.Printf("  edge energy:    %.2f J\n", r.EdgeEnergyJ)
		}
		fmt.Println()
	}
	report("client-cloud", cloud)
	report("client-edge-cloud", edge)

	switch {
	case edge.Latency.Mean() < cloud.Latency.Mean():
		fmt.Printf("edge wins: %.1fx lower mean latency\n", cloud.Latency.Mean()/edge.Latency.Mean())
	default:
		fmt.Printf("cloud wins: %.1fx lower mean latency (WAN fast enough)\n", edge.Latency.Mean()/cloud.Latency.Mean())
	}
	return nil
}
