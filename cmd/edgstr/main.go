// Command edgstr runs the transformation pipeline on a subject
// application and reports its artifacts: the inferred Subject interface,
// per-service analysis (entry/exit points, extracted statements,
// replicated state units), and the generated edge-replica source.
//
// With -trace and/or -metrics the run is observed end to end: the
// pipeline executes under an observability context, the result is
// deployed on a simulated edge cluster and exercised with the subject's
// regression traffic, and the command emits a JSON introspection
// snapshot (see OBSERVABILITY.md) instead of the human-readable report —
// the trace tree covers capture, per-service analysis, datalog solving,
// extraction, and deployment, and the metrics section includes the
// statesync traffic counters.
//
// Usage:
//
//	edgstr -subject fobojet            # summary
//	edgstr -subject fobojet -replica   # print generated replica source
//	edgstr -subject notes -trace -metrics | jq .   # observed quickstart run
//	edgstr -subject notes -metrics -tcp            # sync over real TCP sockets
//	edgstr -subject notes -metrics -tcp -pprof localhost:6060   # with live profiling
//	edgstr -list                       # list subjects
//
// With -tcp the observed deployment synchronizes over the supervised
// TCP transport (real loopback sockets, reconnect with backoff,
// heartbeats) instead of the virtual-time manager; -tcp-heartbeat and
// -tcp-max-retries tune it, and the snapshot gains a per-edge
// "transport" section.
//
// With -data-dir the observed deployment persists every replica's CRDT
// state under the given directory (write-ahead log + snapshots, see
// DESIGN.md §10); -fsync picks the WAL sync policy and -snapshot-every
// the compaction cadence. Running the same command twice over one
// directory exercises crash recovery: the second run's snapshot gains a
// "durability" section with recovered=true per node.
//
// With -placement the observed deployment runs the Datalog placement
// control loop (DESIGN.md §13) instead of static every-service-
// everywhere replication: edges start empty, the regression traffic is
// replayed in waves, and the controller promotes hot services to edges
// and retracts them as the traffic cools. The snapshot gains a
// "placement" section with the decision record. -placement-rules
// substitutes a custom rule program file for the built-in policy (see
// CONTRIBUTING.md for the rule language).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/httpapp"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/simclock"
	"repro/internal/workload"
)

func main() {
	subject := flag.String("subject", "", "subject app to transform (see -list)")
	list := flag.Bool("list", false, "list available subject apps")
	replica := flag.Bool("replica", false, "print the generated replica source")
	workers := flag.Int("workers", 0, "analysis worker pool size (0 = one per core, 1 = sequential)")
	trace := flag.Bool("trace", false, "observe the run and emit the JSON trace tree")
	metrics := flag.Bool("metrics", false, "observe the run and emit the JSON metrics snapshot")
	tcp := flag.Bool("tcp", false, "synchronize over the supervised TCP transport (with -trace/-metrics)")
	tcpHeartbeat := flag.Duration("tcp-heartbeat", 0, "TCP transport heartbeat period (0 = default)")
	tcpMaxRetries := flag.Int("tcp-max-retries", 0, "TCP reconnect attempts before giving up (0 = unlimited)")
	dataDir := flag.String("data-dir", "", "persist replica state under this directory (with -trace/-metrics); reuse it to recover")
	fsync := flag.String("fsync", "always", "WAL fsync policy with -data-dir: always, interval, or never")
	snapshotEvery := flag.Int("snapshot-every", 0, "compact a node's WAL after this many persisted changes (0 = never)")
	placementOn := flag.Bool("placement", false, "run the Datalog placement control loop in the observed deployment (with -trace/-metrics)")
	placementRules := flag.String("placement-rules", "", "placement rule program file (default: built-in policy)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the life of the run")
	flag.Parse()

	if *pprofAddr != "" {
		// The profiling endpoint lives for the whole process; runs are
		// short, so profile with e.g.
		//   go tool pprof http://localhost:6060/debug/pprof/profile?seconds=5
		// while a -tcp run settles.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "edgstr: pprof:", err)
			}
		}()
	}

	if *list {
		for _, s := range workload.Subjects() {
			fmt.Printf("%-16s %d services, primary %s\n", s.Name, len(s.Services), s.PrimaryService().Route)
		}
		q := workload.Quickstart()
		fmt.Printf("%-16s %d services, primary %s (docs quickstart; excluded from the evaluation set)\n",
			q.Name, len(q.Services), q.PrimaryService().Route)
		return
	}
	if *subject == "" {
		fmt.Fprintln(os.Stderr, "edgstr: -subject is required (use -list to see options)")
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	if *trace || *metrics {
		var dur durOptions
		if *dataDir != "" {
			policy, perr := durable.ParseFsyncPolicy(*fsync)
			if perr != nil {
				fmt.Fprintln(os.Stderr, "edgstr:", perr)
				os.Exit(1)
			}
			dur = durOptions{dir: *dataDir, fsync: policy, snapshotEvery: *snapshotEvery}
		}
		err = runObserved(ctx, *subject, *workers, *trace, *metrics,
			tcpOptions{enabled: *tcp, heartbeat: *tcpHeartbeat, maxRetries: *tcpMaxRetries}, dur,
			placementOptions{enabled: *placementOn, rulesFile: *placementRules})
	} else {
		err = run(ctx, *subject, *replica, *workers)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgstr:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, printReplica bool, workers int) error {
	sub, err := workload.ByName(name)
	if err != nil {
		return err
	}
	fmt.Printf("transforming %s (%d routes)…\n", sub.Name, len(sub.Services))
	res, err := core.TransformSubjectTrafficContext(ctx, sub.Name, sub.Source, sub.Routes(), sub.RegressionVectors(), workers)
	if err != nil {
		return err
	}

	fmt.Println("\nSubject interface (inferred from captured traffic):")
	for _, svc := range res.Services {
		fmt.Printf("  %-28s %d samples\n", svc.Name(), len(svc.Samples))
	}

	fmt.Println("\nPer-service analysis:")
	for _, svc := range res.Services {
		plan := res.Plans[svc.Name()]
		if plan == nil {
			continue
		}
		sa := plan.Analysis
		mode := "whole-handler"
		if plan.Extraction != nil {
			mode = "extracted → " + plan.Extraction.FuncName
		}
		fmt.Printf("  %-28s handler=%s %s\n", svc.Name(), sa.Handler, mode)
		fmt.Printf("      entry: stmt %d (%s)  exit: stmt %d (%s)\n",
			sa.Entry, sa.EntryVar, sa.Exit, sa.ExitVar)
		fmt.Printf("      state: tables=%v files=%v globals=%v\n",
			sa.State.Tables, sa.State.Files, sa.State.Globals)
	}

	fmt.Println("\nMerged replicated state units:")
	fmt.Printf("  tables:  %v\n", res.Units.Tables)
	fmt.Printf("  files:   %v\n", res.Units.Files)
	fmt.Printf("  globals: %v (written: %v)\n", res.Units.Globals, res.Units.GlobalWrites)
	fmt.Printf("  state_init snapshot: %d bytes\n", res.InitState.SizeBytes())

	if printReplica {
		fmt.Println("\n---- generated replica source ----")
		fmt.Println(res.ReplicaSource)
	}
	return nil
}

// tcpOptions carries the -tcp* flags into the observed run.
type tcpOptions struct {
	enabled    bool
	heartbeat  time.Duration
	maxRetries int
}

// durOptions carries the -data-dir/-fsync/-snapshot-every flags into
// the observed run. A zero dir leaves the deployment in-memory.
type durOptions struct {
	dir           string
	fsync         durable.FsyncPolicy
	snapshotEvery int
}

// placementOptions carries the -placement flags into the observed run.
type placementOptions struct {
	enabled   bool
	rulesFile string
}

// runObserved runs the full observed lifecycle — capture, transform,
// deploy, serve the regression traffic at the edge, synchronize — and
// prints the introspection snapshot as indented JSON on stdout.
func runObserved(ctx context.Context, name string, workers int, wantTrace, wantMetrics bool, tcp tcpOptions, dur durOptions, plc placementOptions) error {
	sub, err := workload.ByName(name)
	if err != nil {
		return err
	}
	o := obs.New()
	ctx = obs.With(ctx, o)

	res, err := core.TransformSubjectTrafficContext(ctx, sub.Name, sub.Source, sub.Routes(), sub.RegressionVectors(), workers)
	if err != nil {
		return err
	}

	// Deploy on the paper's standard four-Pi topology and replay the
	// regression vectors through the edge so the serving-path and
	// synchronization metrics carry real traffic.
	clock := simclock.New()
	cfg := core.DefaultDeployConfig()
	if tcp.enabled {
		cfg.Transport = core.TransportTCP
		// Real-time sync: a tight interval keeps the settle phase short.
		cfg.TCP.Interval = 50 * time.Millisecond
		cfg.TCP.Heartbeat = tcp.heartbeat
		cfg.TCP.MaxRetries = tcp.maxRetries
	}
	if dur.dir != "" {
		cfg.Durability = core.DurabilityConfig{
			Dir:           dur.dir,
			Fsync:         dur.fsync,
			SnapshotEvery: dur.snapshotEvery,
		}
	}
	if plc.enabled {
		// Thresholds sized for the regression-vector replay below: each
		// wave lands in one control window, so a few requests make a
		// service hot and a silent window cools it.
		cfg.Placement = core.PlacementConfig{
			Enabled:    true,
			Interval:   time.Second,
			Thresholds: placement.Thresholds{HotRequests: 3, ColdRequests: 1},
		}
		if plc.rulesFile != "" {
			rules, rerr := os.ReadFile(plc.rulesFile)
			if rerr != nil {
				return fmt.Errorf("placement rules: %w", rerr)
			}
			cfg.Placement.Rules = string(rules)
		}
	}
	dep, err := core.DeployContext(ctx, clock, res, cfg)
	if err != nil {
		return err
	}
	_, serveSpan := obs.StartSpan(ctx, "serve")
	var served, failed int
	handle := func(req *httpapp.Request) {
		dep.HandleAtEdge(req, func(_ *httpapp.Response, err error) {
			if err != nil {
				failed++
				return
			}
			served++
		})
	}
	if plc.enabled {
		// Replay the traffic in one wave per control round so the loop
		// sees sustained demand: the first wave forwards and promotes,
		// the following waves serve at the edges, and the silence after
		// the last wave cools the services back out (retract).
		for wave := 0; wave < 4; wave++ {
			at := clock.Now() + time.Duration(wave)*time.Second + 500*time.Millisecond
			for _, req := range sub.RegressionVectors() {
				req := req
				clock.At(at, func() { handle(req.Clone()) })
			}
		}
	} else {
		for _, req := range sub.RegressionVectors() {
			handle(req)
		}
	}
	clock.RunUntil(clock.Now() + 30*time.Second)
	serveSpan.SetAttr("served", fmt.Sprint(served))
	serveSpan.SetAttr("failed", fmt.Sprint(failed))
	serveSpan.End()
	_, syncSpan := obs.StartSpan(ctx, "settle_sync")
	settleBudget := 120 * time.Second // virtual time
	if tcp.enabled {
		settleBudget = 10 * time.Second // wall clock
	}
	dep.SettleSync(settleBudget)
	syncSpan.SetAttr("converged", fmt.Sprint(dep.Converged()))
	syncSpan.End()
	dep.Stop()

	observation := core.Observe(dep)
	if snap := observation.Observability; snap != nil {
		if !wantTrace {
			snap.Trace = nil
		}
		if !wantMetrics {
			snap.Metrics = nil
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(observation)
}
