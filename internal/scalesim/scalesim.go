// Package scalesim is the closed-loop scale simulator: it drives
// 10⁴–10⁶ simulated clients against 10–200 edges on one deterministic
// virtual clock and measures how the synchronization topology scales —
// the flat star (master ships every delta once per edge) against the
// two-tier relay fabric (once per group, relays fan out over the LAN).
//
// Every source of nondeterminism is pinned: a single seeded RNG
// consumed in simclock event order, deterministic client→edge
// assignment, and FIFO event scheduling — so the same Config always
// produces the byte-identical Result.
package scalesim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/crdt"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/simclock"
	"repro/internal/statesync"
)

// Mode selects the synchronization topology under test.
type Mode string

// Topologies.
const (
	// ModeStar is the flat baseline: one statesync.Manager connection
	// per edge, master egress O(edges).
	ModeStar Mode = "star"
	// ModeFabric is the two-tier relay fabric: edges grouped behind
	// relays, master egress O(groups).
	ModeFabric Mode = "fabric"
)

// Config parameterizes one simulation run. Zero fields take defaults.
type Config struct {
	Mode    Mode
	Clients int
	Edges   int
	// Groups is the relay group count under ModeFabric (ignored for
	// ModeStar; default ~√edges).
	Groups int
	// RequestsPerClient is the closed-loop depth: each client issues
	// this many requests, each after the previous response plus an
	// exponential think time (default 3, ThinkMean 2s).
	RequestsPerClient int
	ThinkMean         time.Duration
	// ReqOps is the per-request compute on the edge node (default 2000
	// abstract ops); ReqBytes/RespBytes size the access-link transfers.
	ReqOps    float64
	ReqBytes  int
	RespBytes int
	// WriteEvery makes every Nth request (across all clients) a CRDT
	// write at the serving edge (default 50; 0 disables writes).
	WriteEvery int

	SyncInterval time.Duration
	// SettleBudget bounds post-load convergence time (default 120s
	// virtual); MaxVirtual hard-caps the whole run (default 30m).
	SettleBudget time.Duration
	MaxVirtual   time.Duration

	Seed     int64
	EdgeSpec cluster.DeviceSpec
	// Access shapes each edge's shared client access link; WAN shapes
	// master↔edge (star) and master↔relay (fabric) links; LAN shapes
	// relay↔edge links.
	Access netem.Config
	WAN    netem.Config
	LAN    netem.Config
}

func (c Config) withDefaults() Config {
	if c.Mode == "" {
		c.Mode = ModeFabric
	}
	if c.Clients <= 0 {
		c.Clients = 1000
	}
	if c.Edges <= 0 {
		c.Edges = 8
	}
	if c.Groups <= 0 {
		c.Groups = 1
		for c.Groups*c.Groups < c.Edges {
			c.Groups++
		}
	}
	if c.Groups > c.Edges {
		c.Groups = c.Edges
	}
	if c.RequestsPerClient <= 0 {
		c.RequestsPerClient = 3
	}
	if c.ThinkMean <= 0 {
		c.ThinkMean = 2 * time.Second
	}
	if c.ReqOps <= 0 {
		c.ReqOps = 2000
	}
	if c.ReqBytes <= 0 {
		c.ReqBytes = 256
	}
	if c.RespBytes <= 0 {
		c.RespBytes = 512
	}
	if c.WriteEvery < 0 {
		c.WriteEvery = 0
	} else if c.WriteEvery == 0 {
		c.WriteEvery = 50
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = 500 * time.Millisecond
	}
	if c.SettleBudget <= 0 {
		c.SettleBudget = 120 * time.Second
	}
	if c.MaxVirtual <= 0 {
		c.MaxVirtual = 30 * time.Minute
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.EdgeSpec.Cores == 0 {
		c.EdgeSpec = cluster.RPi4Spec
	}
	if c.Access == (netem.Config{}) {
		c.Access = netem.Config{BandwidthBps: 100e6, Latency: 20 * time.Millisecond}
	}
	if c.WAN == (netem.Config{}) {
		c.WAN = netem.FastWAN
	}
	if c.LAN == (netem.Config{}) {
		c.LAN = netem.LAN
	}
	return c
}

// Result is one run's measurement record (the BENCH_scale.json row).
type Result struct {
	Mode    Mode `json:"mode"`
	Clients int  `json:"clients"`
	Edges   int  `json:"edges"`
	Groups  int  `json:"groups"`

	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`
	Writes    int64 `json:"writes"`

	MakespanSec float64 `json:"makespan_sec"`
	SettleSec   float64 `json:"settle_sec"`
	Converged   bool    `json:"converged"`

	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MeanMs     float64 `json:"mean_ms"`
	Throughput float64 `json:"throughput_rps"`
	// ChangesPerSec is the client-visible mutation rate the topology
	// replicated (writes over the makespan).
	ChangesPerSec float64 `json:"changes_per_sec"`

	MasterEgressBytes  int64 `json:"master_egress_bytes"`
	MasterIngressBytes int64 `json:"master_ingress_bytes"`
	RelayFanoutBytes   int64 `json:"relay_fanout_bytes"`
	RelayUpBytes       int64 `json:"relay_up_bytes"`
	// MasterEgressPerSec is the master's downstream rate over the whole
	// run — the quantity the relay tier keeps sublinear in edge count.
	MasterEgressPerSec float64 `json:"master_egress_bytes_per_sec"`
	RelayFanoutPerSec  float64 `json:"relay_fanout_bytes_per_sec"`

	AppliedChanges   int64 `json:"applied_changes,omitempty"`
	DuplicateApplies int64 `json:"duplicate_applies"`
	SyncErrors       int64 `json:"sync_errors"`

	EdgeEnergyJ float64 `json:"edge_energy_j"`
}

// simEdge is one simulated edge: the device model, the shared client
// access link, and the CRDT replica its writes land in.
type simEdge struct {
	node   *cluster.Node
	access *netem.Duplex
	state  *statesync.ReplicaState
}

// Run executes one deterministic simulation.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	clock := simclock.New()

	edges := make([]*simEdge, cfg.Edges)
	for i := range edges {
		access, err := netem.NewDuplex(clock, cfg.Access, int64(10_000+i))
		if err != nil {
			return nil, err
		}
		edges[i] = &simEdge{node: cluster.NewNode(clock, cfg.EdgeSpec), access: access}
	}

	// Synchronization runtime: one master store replicated to every
	// edge under both modes, so the workload and delivery guarantees
	// are identical and only the topology differs.
	var mgr *statesync.Manager
	var fab *statesync.Fabric
	converged := func() bool { return true }
	switch cfg.Mode {
	case ModeStar:
		master, err := statesync.NewReplicaState("master")
		if err != nil {
			return nil, err
		}
		mgr, err = statesync.NewManager(clock, &statesync.Endpoint{Name: "master", State: master}, cfg.SyncInterval)
		if err != nil {
			return nil, err
		}
		for i, e := range edges {
			st, err := master.Fork(crdt.ActorID(actorFor(i)))
			if err != nil {
				return nil, err
			}
			link, err := netem.NewDuplex(clock, cfg.WAN, int64(20_000+i))
			if err != nil {
				return nil, err
			}
			if err := mgr.AddEdge(&statesync.Endpoint{Name: edgeName(i), State: st}, link); err != nil {
				return nil, err
			}
			e.state = st
		}
		mgr.Start()
		converged = mgr.Converged
	case ModeFabric:
		f, err := statesync.NewFabric(clock, cfg.SyncInterval, "app")
		if err != nil {
			return nil, err
		}
		for g := 0; g < cfg.Groups; g++ {
			uplink, err := netem.NewDuplex(clock, cfg.WAN, int64(30_000+g))
			if err != nil {
				return nil, err
			}
			if err := f.AddGroup(groupName(g), uplink); err != nil {
				return nil, err
			}
		}
		for i, e := range edges {
			lan, err := netem.NewDuplex(clock, cfg.LAN, int64(40_000+i))
			if err != nil {
				return nil, err
			}
			if e.state, err = f.AddEdge(groupName(i*cfg.Groups/cfg.Edges), edgeName(i), lan); err != nil {
				return nil, err
			}
		}
		f.Start()
		fab = f
		converged = f.Converged
	default:
		return nil, fmt.Errorf("scalesim: unknown mode %q", cfg.Mode)
	}

	// Closed-loop clients: one seeded RNG consumed in deterministic
	// event order; each client waits for its response, thinks, and
	// issues the next request.
	rng := rand.New(rand.NewSource(cfg.Seed))
	lat := &metrics.Series{}
	total := int64(cfg.Clients) * int64(cfg.RequestsPerClient)
	var issued, completed, writes int64
	think := func() time.Duration {
		return time.Duration(rng.ExpFloat64() * float64(cfg.ThinkMean))
	}
	var runErr error
	var doReq func(c, remaining int)
	doReq = func(c, remaining int) {
		e := edges[c%cfg.Edges]
		start := clock.Now()
		idx := issued
		issued++
		e.access.Up.Send(cfg.ReqBytes, func() {
			e.node.Process(cfg.ReqOps, func(time.Duration) {
				if cfg.WriteEvery > 0 && idx%int64(cfg.WriteEvery) == 0 {
					if err := e.state.JSON.PutScalar(crdt.RootObj, fmt.Sprintf("c%d", c), float64(idx)); err != nil {
						if runErr == nil {
							runErr = fmt.Errorf("scalesim: edge write: %w", err)
						}
					} else {
						writes++
					}
				}
				e.access.Down.Send(cfg.RespBytes, func() {
					completed++
					lat.AddDuration(clock.Now() - start)
					if remaining > 1 {
						clock.After(think(), func() { doReq(c, remaining-1) })
					}
				})
			})
		})
	}
	for c := 0; c < cfg.Clients; c++ {
		c := c
		clock.After(think(), func() { doReq(c, cfg.RequestsPerClient) })
	}

	// Drive virtual time until every client finished (the sync runtime
	// reschedules its tick forever, so Run() would never return).
	for completed < total && clock.Now() < cfg.MaxVirtual && runErr == nil {
		clock.RunUntil(clock.Now() + time.Second)
	}
	makespan := clock.Now()
	settleStart := makespan
	for !converged() && clock.Now() < settleStart+cfg.SettleBudget && runErr == nil {
		clock.RunUntil(clock.Now() + cfg.SyncInterval)
	}
	settled := clock.Now() - settleStart
	if mgr != nil {
		mgr.Stop()
	}
	if fab != nil {
		fab.Stop()
	}
	if runErr != nil {
		return nil, runErr
	}

	r := &Result{
		Mode:        cfg.Mode,
		Clients:     cfg.Clients,
		Edges:       cfg.Edges,
		Groups:      cfg.Groups,
		Requests:    issued,
		Completed:   completed,
		Writes:      writes,
		MakespanSec: makespan.Seconds(),
		SettleSec:   settled.Seconds(),
		Converged:   converged(),
		P50Ms:       lat.Percentile(50),
		P99Ms:       lat.Percentile(99),
		MeanMs:      lat.Mean(),
	}
	if cfg.Mode == ModeStar {
		r.Groups = 0
	}
	elapsed := (makespan + settled).Seconds()
	if elapsed > 0 {
		r.Throughput = float64(completed) / makespan.Seconds()
		r.ChangesPerSec = float64(writes) / makespan.Seconds()
	}
	switch {
	case mgr != nil:
		st := mgr.Stats()
		r.MasterEgressBytes = st.CloudStateBytes
		r.MasterIngressBytes = st.EdgeStateBytes
		r.AppliedChanges = st.AppliedChanges
		r.DuplicateApplies = st.DuplicateApplies
		r.SyncErrors = st.Errors
	case fab != nil:
		st := fab.Stats()
		r.MasterEgressBytes = st.Uplink.CloudStateBytes
		r.MasterIngressBytes = st.Uplink.EdgeStateBytes
		r.RelayFanoutBytes = st.Fanout.CloudStateBytes
		r.RelayUpBytes = st.Fanout.EdgeStateBytes
		r.AppliedChanges = st.Uplink.AppliedChanges + st.Fanout.AppliedChanges
		r.DuplicateApplies = st.Uplink.DuplicateApplies + st.Fanout.DuplicateApplies
		r.SyncErrors = st.Uplink.Errors + st.Fanout.Errors
	}
	if elapsed > 0 {
		r.MasterEgressPerSec = float64(r.MasterEgressBytes) / elapsed
		r.RelayFanoutPerSec = float64(r.RelayFanoutBytes) / elapsed
	}
	for _, e := range edges {
		r.EdgeEnergyJ += e.node.Energy.Joules()
	}
	return r, nil
}

func edgeName(i int) string { return fmt.Sprintf("edge-%03d", i) }

// groupName names relay group g; relay and edge actor IDs embed it.
func groupName(g int) string { return fmt.Sprintf("shard-%02d", g) }

func actorFor(i int) string { return fmt.Sprintf("edge%d", i) }
