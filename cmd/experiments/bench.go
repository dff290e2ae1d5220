package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/provenance"
	"repro/internal/workload"
)

// benchReport is the schema of BENCH_pipeline.json: the perf
// trajectory of the transformation pipeline and its Datalog solver,
// recorded from PR 1 onward so regressions are visible in review.
type benchReport struct {
	provenance.Provenance

	Pipeline struct {
		Subject        string  `json:"subject"`
		SequentialNsOp int64   `json:"sequential_ns_op"`
		ParallelNsOp   int64   `json:"parallel_ns_op"`
		Speedup        float64 `json:"speedup"`
		AllocsOp       int64   `json:"allocs_op"`
	} `json:"pipeline"`

	DatalogJoin struct {
		NaiveNsOp       int64   `json:"naive_ns_op"`
		IndexedNsOp     int64   `json:"indexed_ns_op"`
		Speedup         float64 `json:"speedup"`
		NaiveAllocsOp   int64   `json:"naive_allocs_op"`
		IndexedAllocsOp int64   `json:"indexed_allocs_op"`
		AllocsRatio     float64 `json:"allocs_ratio"`
	} `json:"datalog_join"`
}

// joinDB builds the transitive-closure workload both join paths are
// measured on: a layered dependence graph (the shape of the paper's
// STMT-T-DEP closure, with the path fan-in a real dependence graph
// has), ready for Run.
func joinDB(reference bool) (*datalog.DB, error) {
	db := datalog.NewDB()
	db.SetReferenceJoin(reference)
	const layers, width = 7, 5
	node := func(l, w int) string { return "s" + strconv.Itoa(l*width+w) }
	for l := 0; l+1 < layers; l++ {
		for a := 0; a < width; a++ {
			for b := 0; b < width; b++ {
				if _, err := db.AddFact("dep", node(l+1, b), node(l, a)); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := db.AddRule(datalog.NewRule(
		datalog.NewAtom("tdep", datalog.V("X"), datalog.V("Y")),
		datalog.NewAtom("dep", datalog.V("X"), datalog.V("Y")),
	)); err != nil {
		return nil, err
	}
	if err := db.AddRule(datalog.NewRule(
		datalog.NewAtom("tdep", datalog.V("X"), datalog.V("Z")),
		datalog.NewAtom("dep", datalog.V("X"), datalog.V("Y")),
		datalog.NewAtom("tdep", datalog.V("Y"), datalog.V("Z")),
	)); err != nil {
		return nil, err
	}
	return db, nil
}

// benchJoin measures only the Run (join + derivation) phase; DB
// construction happens with the timer stopped.
func benchJoin(reference bool) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db, err := joinDB(reference)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := db.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// runBench measures the pipeline sequential vs parallel and the
// Datalog join naive vs indexed, then writes the report to outPath.
func runBench(outPath string) error {
	sub, err := workload.ByName("fobojet")
	if err != nil {
		return err
	}
	seqRes := benchPipeline(sub, 1)
	parRes := benchPipeline(sub, 0)
	naive := benchJoin(true)
	indexed := benchJoin(false)

	rep := benchReport{Provenance: provenance.Current()}
	rep.Pipeline.Subject = sub.Name
	rep.Pipeline.SequentialNsOp = seqRes.NsPerOp()
	rep.Pipeline.ParallelNsOp = parRes.NsPerOp()
	rep.Pipeline.Speedup = float64(seqRes.NsPerOp()) / float64(parRes.NsPerOp())
	rep.Pipeline.AllocsOp = parRes.AllocsPerOp()
	rep.DatalogJoin.NaiveNsOp = naive.NsPerOp()
	rep.DatalogJoin.IndexedNsOp = indexed.NsPerOp()
	rep.DatalogJoin.Speedup = float64(naive.NsPerOp()) / float64(indexed.NsPerOp())
	rep.DatalogJoin.NaiveAllocsOp = naive.AllocsPerOp()
	rep.DatalogJoin.IndexedAllocsOp = indexed.AllocsPerOp()
	rep.DatalogJoin.AllocsRatio = float64(naive.AllocsPerOp()) / float64(indexed.AllocsPerOp())

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(outPath, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("pipeline: sequential %.2fms, parallel %.2fms (%.2fx, %d workers)\n",
		float64(rep.Pipeline.SequentialNsOp)/1e6, float64(rep.Pipeline.ParallelNsOp)/1e6,
		rep.Pipeline.Speedup, rep.GOMAXPROCS)
	fmt.Printf("datalog join: naive %d allocs/op, indexed %d allocs/op (%.1fx fewer), %.2fx faster\n",
		rep.DatalogJoin.NaiveAllocsOp, rep.DatalogJoin.IndexedAllocsOp,
		rep.DatalogJoin.AllocsRatio, rep.DatalogJoin.Speedup)
	fmt.Println("wrote", outPath)
	return nil
}

func benchPipeline(sub workload.Subject, workers int) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.TransformSubjectTrafficContext(
				context.Background(), sub.Name, sub.Source, sub.Routes(), sub.RegressionVectors(), workers); err != nil {
				b.Fatal(err)
			}
		}
	})
}
