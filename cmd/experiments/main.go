// Command experiments regenerates the paper's tables and figures on the
// simulated testbed and prints the same rows/series the paper reports.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp table2
//	experiments -exp rtt|fig6b|fig7|fig8|fig9|fig10a|fig10b|accuracy|ablations
//	experiments -exp bench -benchout BENCH_pipeline.json -durableout BENCH_durable.json -statesyncout BENCH_statesync.json -serveout BENCH_serve.json -placementout BENCH_placement.json
//	experiments -exp benchdurable|benchserve|benchstatesync   — one report alone
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, rtt, table2, table2full, fig6b, fig7, fig8, fig9, fig10a, fig10b, accuracy, ablations, bench, benchdurable, benchserve, benchstatesync")
	benchOut := flag.String("benchout", "BENCH_pipeline.json", "output path for the -exp bench perf report")
	durableOut := flag.String("durableout", "BENCH_durable.json", "output path for the -exp bench durability report")
	statesyncOut := flag.String("statesyncout", "BENCH_statesync.json", "output path for the -exp bench replication report")
	serveOut := flag.String("serveout", "BENCH_serve.json", "output path for the -exp bench serve-path report")
	placementOut := flag.String("placementout", "BENCH_placement.json", "output path for the -exp bench placement report")
	flag.Parse()
	pipeline := func() error { return runBench(*benchOut) }
	durable := func() error { return runBenchDurable(*durableOut) }
	statesync := func() error { return runBenchStatesync(*statesyncOut) }
	serve := func() error { return runBenchServe(*serveOut) }
	placement := func() error { return runBenchPlacement(*placementOut) }
	reports := map[string][]func() error{
		"bench":          {pipeline, durable, statesync, serve, placement},
		"benchdurable":   {durable},
		"benchserve":     {serve},
		"benchstatesync": {statesync},
	}
	if fns, ok := reports[*exp]; ok {
		for _, fn := range fns {
			if err := fn(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
		return
	}
	if err := run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

type runner struct {
	name string
	fn   func() error
}

func run(which string) error {
	table := func(t *experiments.Table, err error) error {
		if t != nil {
			fmt.Println(t.Render())
		}
		return err
	}
	all := []runner{
		{"rtt", func() error { return table(experiments.MotivationRTT()) }},
		{"table2", func() error { t, _, err := experiments.Table2(); return table(t, err) }},
		{"table2full", func() error { return table(experiments.Table2Full()) }},
		{"fig6b", func() error { t, _, err := experiments.Fig6b(); return table(t, err) }},
		{"fig7", func() error { t, _, err := experiments.Fig7(); return table(t, err) }},
		{"fig8", func() error { t, _, err := experiments.Fig8(); return table(t, err) }},
		{"fig9", func() error {
			t, _, err := experiments.Fig9Left()
			if err2 := table(t, err); err2 != nil {
				return err2
			}
			t2, _, err := experiments.Fig9Right()
			return table(t2, err)
		}},
		{"fig10a", func() error { t, _, err := experiments.Fig10a(); return table(t, err) }},
		{"fig10b", func() error { t, _, err := experiments.Fig10b(); return table(t, err) }},
		{"accuracy", func() error { t, _, err := experiments.AnalysisAccuracy(); return table(t, err) }},
		{"ablations", func() error {
			t, err := experiments.AblationDeltaVsFullSync()
			if err2 := table(t, err); err2 != nil {
				return err2
			}
			t2, err := experiments.AblationLBPolicy()
			if err2 := table(t2, err); err2 != nil {
				return err2
			}
			t3, err := experiments.AblationSyncInterval()
			return table(t3, err)
		}},
	}
	if which == "all" {
		for _, r := range all {
			fmt.Printf("--- %s ---\n", r.name)
			if err := r.fn(); err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
		}
		return nil
	}
	for _, r := range all {
		if r.name == which {
			return r.fn()
		}
	}
	return fmt.Errorf("unknown experiment %q", which)
}
