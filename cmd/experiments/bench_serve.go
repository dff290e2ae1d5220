package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpapp"
	"repro/internal/provenance"
	"repro/internal/script"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// serveReport is the schema of BENCH_serve.json: the edge serve-path
// throughput of the script interpreter's bytecode VM against the
// tree-walking reference evaluator, per example app, plus the VM's
// own counters for the run.
type serveReport struct {
	provenance.Provenance

	// Serve holds one row per benchmarked subject service.
	Serve []serveRow `json:"serve"`

	// ReadSweep holds the reader/writer scheduler sweep: sensor-hub
	// traffic at several worker counts and read ratios, driving
	// Server.Invoke concurrently. Read throughput should scale with
	// workers (up to GOMAXPROCS); the serialized write path bounds the
	// mixed rows.
	ReadSweep []rwRow `json:"read_sweep"`

	// VM snapshots the script.* counters after the run.
	VM script.VMStats `json:"vm"`
}

type serveRow struct {
	Subject string `json:"subject"`
	Service string `json:"service"`

	CompiledNsOp int64 `json:"compiled_ns_op"`
	TreeWalkNsOp int64 `json:"treewalk_ns_op"`
	// Speedup is tree-walk time over compiled time (higher is better).
	Speedup float64 `json:"speedup"`

	CompiledRPS float64 `json:"compiled_requests_per_sec"`
	TreeWalkRPS float64 `json:"treewalk_requests_per_sec"`

	CompiledAllocsOp int64   `json:"compiled_allocs_op"`
	TreeWalkAllocsOp int64   `json:"treewalk_allocs_op"`
	AllocRatio       float64 `json:"alloc_ratio"`

	CompiledBytesOp int64 `json:"compiled_bytes_op"`
	TreeWalkBytesOp int64 `json:"treewalk_bytes_op"`
}

type rwRow struct {
	Workers   int     `json:"workers"`
	ReadRatio float64 `json:"read_ratio"`

	Requests       int64   `json:"requests"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	// ReadRequestsPerSec counts only invocations that completed on the
	// shared read path — the number the CI scaling gate pins.
	ReadRequestsPerSec float64 `json:"read_requests_per_sec"`

	Reads       int64 `json:"reads"`
	Writes      int64 `json:"writes"`
	Mispredicts int64 `json:"mispredicts"`
}

// rwRequestPools splits a subject's sample requests into read-only and
// mutating pools, cloned per worker so concurrent invocations never
// share a *Request.
func rwRequestPools(subj workload.Subject, n int) (reads, writes []*httpapp.Request) {
	for k, svc := range subj.Services {
		for i := 0; i < n; i++ {
			req := subj.SampleRequest(k, i, 42)
			if svc.Mutates {
				writes = append(writes, req)
			} else {
				reads = append(reads, req)
			}
		}
	}
	return reads, writes
}

// benchReadSweepCell measures one (workers, readRatio) cell: workers
// goroutines loop over Server.Invoke with the static route classifier
// active, mixing reads and writes at the requested ratio, for a fixed
// wall-clock budget. Each cell rebuilds the stack so a previous cell's
// writes do not hand the next one a bigger store.
func benchReadSweepCell(subj workload.Subject, workers int, readRatio float64, budget time.Duration) (rwRow, error) {
	app, err := subj.NewApp()
	if err != nil {
		return rwRow{}, err
	}
	server := cluster.NewServer("edge0", cluster.NewNode(simclock.New(), cluster.RPi4Spec), app)
	server.ReadOnly = app.MatchReadOnly
	reads, writes := rwRequestPools(subj, 8)
	// Warm the store so read services have fixed data to chew on.
	for _, req := range writes {
		if _, _, err := server.Invoke(req); err != nil {
			return rwRow{}, err
		}
	}
	r0, w0, m0 := server.RWStats()

	// Deterministic mix: each worker cycles a 20-request window with
	// round((1-ratio)*20) writes up front.
	const window = 20
	writesPerWindow := int((1-readRatio)*window + 0.5)

	runtime.GC()
	var total int64
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(budget)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rp := make([]*httpapp.Request, len(reads))
			for i, req := range reads {
				rp[i] = req.Clone()
			}
			wp := make([]*httpapp.Request, len(writes))
			for i, req := range writes {
				wp[i] = req.Clone()
			}
			var n int64
			for i := 0; ; i++ {
				// Check the clock every window to keep time.Now off the
				// per-request path.
				if i%window == 0 && time.Now().After(deadline) {
					break
				}
				var req *httpapp.Request
				if i%window < writesPerWindow {
					req = wp[(w+i)%len(wp)]
				} else {
					req = rp[(w+i)%len(rp)]
				}
				if _, _, err := server.Invoke(req); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					break
				}
				n++
			}
			atomic.AddInt64(&total, n)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return rwRow{}, firstErr
	}
	r1, w1, m1 := server.RWStats()
	return rwRow{
		Workers:            workers,
		ReadRatio:          readRatio,
		Requests:           total,
		RequestsPerSec:     float64(total) / elapsed.Seconds(),
		ReadRequestsPerSec: float64(r1-r0) / elapsed.Seconds(),
		Reads:              r1 - r0,
		Writes:             w1 - w0,
		Mispredicts:        m1 - m0,
	}, nil
}

// runReadSweep drives the sensor-hub subject through the worker ×
// read-ratio grid.
func runReadSweep(rep *serveReport) error {
	subj, err := workload.ByName("sensor-hub")
	if err != nil {
		return err
	}
	for _, workers := range []int{1, 2, 4} {
		for _, ratio := range []float64{0.5, 0.95, 1.0} {
			row, err := benchReadSweepCell(subj, workers, ratio, 400*time.Millisecond)
			if err != nil {
				return err
			}
			rep.ReadSweep = append(rep.ReadSweep, row)
			fmt.Printf("read-sweep workers=%d ratio=%.2f: %.0f req/s (%.0f read req/s), %d reads / %d writes / %d mispredicts\n",
				row.Workers, row.ReadRatio, row.RequestsPerSec, row.ReadRequestsPerSec,
				row.Reads, row.Writes, row.Mispredicts)
		}
	}
	return nil
}

// benchServeSubject measures the full edge serve path (server handle,
// script execution, simulated node latency) for one subject service on
// one evaluator. The store is warmed with writes first so the measured
// service has a fixed amount of data to chew on and read-only
// benchmarks do not grow their own workload with b.N.
func benchServeSubject(subj workload.Subject, service int, refEval bool) (testing.BenchmarkResult, error) {
	// Each sample gets a fresh stack because write services grow their
	// own store with b.N — reusing one stack would hand a later sample a
	// bigger table to chew on.
	app, err := subj.NewApp()
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	app.Interp().SetReferenceEval(refEval)
	clock := simclock.New()
	server := cluster.NewServer("edge0", cluster.NewNode(clock, cluster.RPi4Spec), app)
	discard := func(*httpapp.Response, time.Duration, error) {}
	for i := 0; i < 32; i++ {
		server.Handle(subj.SampleRequest(i%len(subj.Services), i, 42), discard)
		clock.Run()
	}
	req := subj.SampleRequest(service, 0, 42)
	// Settle the heap so one sample's garbage doesn't tax the next
	// sample's timing (the whole report runs in one process).
	runtime.GC()
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			server.Handle(req, discard)
			clock.Run()
		}
	}), nil
}

// benchServePair samples both evaluators in alternating passes and keeps
// each side's best (minimum ns/op) result. The report runs on whatever
// machine is at hand, and a single sample is hostage to scheduler and GC
// noise; alternating the passes makes slow phases of the host tax both
// evaluators instead of whichever one happened to run during them.
func benchServePair(subj workload.Subject, service int) (compiled, tree testing.BenchmarkResult, err error) {
	for pass := 0; pass < 3; pass++ {
		c, cerr := benchServeSubject(subj, service, false)
		if cerr != nil {
			return compiled, tree, cerr
		}
		t, terr := benchServeSubject(subj, service, true)
		if terr != nil {
			return compiled, tree, terr
		}
		if pass == 0 || c.NsPerOp() < compiled.NsPerOp() {
			compiled = c
		}
		if pass == 0 || t.NsPerOp() < tree.NsPerOp() {
			tree = t
		}
	}
	return compiled, tree, nil
}

// serviceByPath finds a subject service by route path (falling back to
// the primary service when path is empty).
func serviceByPath(subj workload.Subject, path string) (int, error) {
	if path == "" {
		return subj.Primary, nil
	}
	for i, svc := range subj.Services {
		if svc.Route.Path == path {
			return i, nil
		}
	}
	return 0, fmt.Errorf("subject %s has no service %s", subj.Name, path)
}

// runBenchServe measures compiled vs tree-walk serving for the example
// apps and writes the report to outPath. The sensor-hub ingest row is
// the headline number: its summarize loop over the posted samples makes
// it the interpreter-bound service class the paper targets. The
// db-bound rows (summary, notes, bookworm) bound the other end, where
// the interpreter is a small fraction of the request and the two
// evaluators converge; bookworm /books/:id is the point read an edge
// serves most.
func runBenchServe(outPath string) error {
	rep := serveReport{Provenance: provenance.Current()}

	cases := []struct {
		subject string
		path    string
	}{
		{"sensor-hub", "/ingest"},
		{"sensor-hub", "/summary"},
		{"notes", ""},
		{"bookworm", ""},
		{"bookworm", "/books/:id"},
	}
	for _, tc := range cases {
		subj, err := workload.ByName(tc.subject)
		if err != nil {
			return err
		}
		service, err := serviceByPath(subj, tc.path)
		if err != nil {
			return err
		}
		compiled, tree, err := benchServePair(subj, service)
		if err != nil {
			return err
		}
		row := serveRow{
			Subject:          subj.Name,
			Service:          subj.Services[service].Route.Path,
			CompiledNsOp:     compiled.NsPerOp(),
			TreeWalkNsOp:     tree.NsPerOp(),
			Speedup:          float64(tree.NsPerOp()) / float64(compiled.NsPerOp()),
			CompiledRPS:      1e9 / float64(compiled.NsPerOp()),
			TreeWalkRPS:      1e9 / float64(tree.NsPerOp()),
			CompiledAllocsOp: compiled.AllocsPerOp(),
			TreeWalkAllocsOp: tree.AllocsPerOp(),
			AllocRatio:       float64(tree.AllocsPerOp()) / float64(compiled.AllocsPerOp()),
			CompiledBytesOp:  compiled.AllocedBytesPerOp(),
			TreeWalkBytesOp:  tree.AllocedBytesPerOp(),
		}
		rep.Serve = append(rep.Serve, row)
		fmt.Printf("serve %s %s: compiled %.1fµs (%.0f req/s), tree-walk %.1fµs (%.0f req/s) — %.2fx faster, %.2fx fewer allocs\n",
			row.Subject, row.Service,
			float64(row.CompiledNsOp)/1e3, row.CompiledRPS,
			float64(row.TreeWalkNsOp)/1e3, row.TreeWalkRPS,
			row.Speedup, row.AllocRatio)
	}
	if err := runReadSweep(&rep); err != nil {
		return err
	}
	rep.VM = script.ReadVMStats()

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
