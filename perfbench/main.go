// Command edgebench is the whole-stack benchmark of the EdgStr
// reproduction. For one workload it transforms the subject app, deploys
// it as a cloud master and two edge replicas that sync over real
// loopback TCP (core.DeployContext), drives the edges open-loop through
// cluster.Server.Invoke, checks every response and the final replicated
// state, and prints the end-to-end metrics:
//
//	bash perfbench/run.sh --workload bookworm-read95 --seed 1 --seconds 30 --trace 0
//
// A run sends rate × seconds requests, split across several fresh
// deployments in turn. With --trace 1 every second deployment is
// traced, with timing wrappers on the servers' public hooks and probes
// after its traffic, and the run prints per-layer metrics from the
// traced deployments plus the tracing overhead (traced minus untraced).
// --workload all runs every workload in turn.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it records
// the run's provenance and sample counts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark invocation.
type config struct {
	seed    int64
	seconds int
	trace   bool
	workdir string
	commit  string
}

func main() {
	name := flag.String("workload", "", "workload to run, or \"all\"")
	var cfg config
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated requests")
	flag.IntVar(&cfg.seconds, "seconds", 30, "length of the measured window; a run sends rate × seconds requests")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision to record in the provenance line")
	flag.StringVar(&cfg.workdir, "workdir", "", "directory for the nodes' durable state (default: a new temporary directory)")
	flag.Parse()
	cfg.trace = *trace == 1
	if err := run(*name, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "edgebench:", err)
		os.Exit(1)
	}
}

func run(name string, cfg config) error {
	if cfg.seconds < 1 {
		return errors.New("--seconds must be positive")
	}
	if cfg.workdir == "" {
		dir, err := os.MkdirTemp("", "edgebench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.workdir = dir
	} else if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	if name != "all" {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		res, err := runWorkload(w, cfg)
		if err != nil {
			return err
		}
		return printJSON(res)
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		res, err := runWorkload(w, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := printJSON(res); err != nil {
			return err
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"/"+k] = v
		}
	}
	return printJSON(total)
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// provenance records what a run measured and on what.
type provenance struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Traced         bool    `json:"traced"`
	RateRPS        float64 `json:"rate_rps"`
	Requests       int     `json:"requests"`
	Clients        int     `json:"clients"`
	Edges          int     `json:"edges"`
	SyncIntervalMS int64   `json:"sync_interval_ms"`
	Fsync          string  `json:"fsync"`
	Deployments    int     `json:"deployments"`
	NumCPU         int     `json:"num_cpu"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	Commit         string  `json:"commit"`
}

// runWorkload runs one workload and returns its result line, after
// printing the provenance line.
func runWorkload(w workload, cfg config) (result, error) {
	n := int(w.rate * float64(cfg.seconds))
	ops := w.gen(rand.New(rand.NewSource(cfg.seed)), n)
	prov := provenance{
		Workload: w.name, Seed: cfg.seed, Traced: cfg.trace, RateRPS: w.rate, Requests: n,
		Clients: clientCount(), Edges: edgeCount, SyncIntervalMS: syncInterval.Milliseconds(),
		Fsync: fsyncName, Deployments: w.deployments, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: cfg.commit,
	}
	var res result
	var detail map[string]any
	var err error
	if cfg.trace {
		res, detail, err = runTraced(w, ops, cfg)
	} else {
		res, detail, err = runUntraced(w, ops, cfg)
	}
	if err != nil {
		return result{}, err
	}
	if err := printJSON(map[string]any{"provenance": prov, "detail": detail}); err != nil {
		return result{}, err
	}
	return res, nil
}

// clientCount is the number of client goroutines: two, or fewer on a
// smaller machine.
func clientCount() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// runUntraced reports the end-to-end metrics of a run without
// tracing.
func runUntraced(w workload, ops []op, cfg config) (result, map[string]any, error) {
	m, _, err := runDeployments(w, ops, cfg)
	if err != nil {
		return result{}, nil, err
	}
	res := m.result()
	res.Metrics = map[string]metric{
		"setup_s":             {median(m.setupSeconds()), "s"},
		"lat_p50_ms":          {ms(m.lat.quantile(0.50)), "ms"},
		"repl_lag_p50_ms":     {ms(m.lags.quantile(0.50)), "ms"},
		"repl_lag_p99_ms":     {ms(m.lags.quantile(0.99)), "ms"},
		"wan_bytes_per_write": {m.perWrite(masterBytes), "B"},
		"cpu_us_per_req":      {m.cpuPerReq(), "us"},
		"heap_peak_mb":        {float64(m.heapPeak) / (1 << 20), "MiB"},
	}
	return res, m.detail(), nil
}

// runTraced reports the per-layer metrics of the traced deployments of
// a run and the tracing overhead: traced minus untraced deployments.
func runTraced(w workload, ops []op, cfg config) (result, map[string]any, error) {
	base, m, err := runDeployments(w, ops, cfg)
	if err != nil {
		return result{}, nil, err
	}
	res := m.result()
	res.Correct = res.Correct && base.result().Correct
	res.Attempted += base.attempted
	res.Failed += base.failed

	phase := func(f func(setupPhases) time.Duration) metric {
		var xs []float64
		for _, p := range m.setups {
			xs = append(xs, f(p).Seconds())
		}
		return metric{median(xs), "s"}
	}
	tr := m.trace
	res.Metrics = map[string]metric{
		"core.capture_s":        phase(func(p setupPhases) time.Duration { return p.capture }),
		"core.transform_s":      phase(func(p setupPhases) time.Duration { return p.transform }),
		"core.deploy_s":         phase(func(p setupPhases) time.Duration { return p.deploy }),
		"core.preload_s":        phase(func(p setupPhases) time.Duration { return p.preload }),
		"core.settle_s":         phase(func(p setupPhases) time.Duration { return p.settle }),
		"analysis.services":     {median(m.obsCounts["analysis.services"]), "count"},
		"datalog.iterations":    {median(m.obsCounts["datalog.iterations"]), "count"},
		"datalog.facts_derived": {median(m.obsCounts["datalog.facts_derived"]), "count"},

		"cluster.read_us_p50":        {us(m.readSvc.quantile(0.50)), "us"},
		"cluster.read_us_p99":        {us(m.readSvc.quantile(0.99)), "us"},
		"cluster.write_us_p50":       {us(m.writeSvc.quantile(0.50)), "us"},
		"cluster.write_us_p99":       {us(m.writeSvc.quantile(0.99)), "us"},
		"cluster.shared_wait_us_p99": {us(tr.get("shared_wait").quantile(0.99)), "us"},
		"cluster.shared_hold_us_p50": {us(tr.get("shared_hold").quantile(0.50)), "us"},
		"cluster.excl_wait_us_p99":   {us(tr.get("excl_wait").quantile(0.99)), "us"},
		"cluster.excl_hold_us_p50":   {us(tr.get("excl_hold").quantile(0.50)), "us"},
		"cluster.excl_hold_us_p99":   {us(tr.get("excl_hold").quantile(0.99)), "us"},
		"cluster.read_share":         {ratio(float64(m.stack[readsRun]), float64(m.stack[readsRun]+m.stack[writesRun])), "ratio"},
		"cluster.mispredicts":        {float64(m.stack[mispredicts]), "count"},

		"statesync.after_invoke_us_p50": {us(tr.get("after_invoke").quantile(0.50)), "us"},
		"statesync.after_invoke_us_p99": {us(tr.get("after_invoke").quantile(0.99)), "us"},
		"statesync.apply_us_p50":        {us(m.apply.quantile(0.50)), "us"},
		"statesync.apply_yield":         {ratio(float64(m.stack[changesApplied]), float64(m.stack[changesRecv])), "ratio"},
		"statesync.bytes_per_change":    {ratio(float64(m.stack[wireBytes]), float64(m.stack[changesRecv])), "B"},
		"statesync.frames_per_write":    {m.perWrite(framesSent), "count"},
		"statesync.window_stalls":       {float64(m.stack[windowStalls]), "count"},

		"durable.bytes_per_write":   {m.perWrite(walBytes), "B"},
		"durable.appends_per_write": {m.perWrite(walAppends), "count"},
		"crdt.history_len":          {median(m.historyLen), "count"},
		"sqldb.point_select_us":     {us(m.pointSelect.quantile(0.50)), "us"},

		"script.frames_allocated":    {float64(m.stack[framesAllocated]), "count"},
		"script.bytecode_cache_hits": {float64(m.stack[cacheHits]), "count"},

		"go.gc_cycles":           {float64(m.proc.gcCycles), "count"},
		"go.gc_cpu_frac":         {ratio(m.proc.gcCPU, m.proc.totalCPU), "ratio"},
		"go.alloc_bytes_per_req": {ratio(float64(m.proc.allocBytes), m.completed()), "B"},

		"gen.late_p99_ms": {ms(m.late.quantile(0.99)), "ms"},

		"trace.overhead_cpu_us_per_req": {m.cpuPerReq() - base.cpuPerReq(), "us"},
		"trace.overhead_lat_p50_ms":     {ms(m.lat.quantile(0.50)) - ms(base.lat.quantile(0.50)), "ms"},
	}
	detail := m.detail()
	detail["untraced"] = base.detail()
	return res, detail, nil
}
