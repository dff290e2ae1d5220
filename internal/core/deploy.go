package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/crdt"
	"repro/internal/durable"
	"repro/internal/httpapp"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/statesync"
)

// Transport selects the synchronization runtime a deployment uses.
type Transport int

// Synchronization transports.
const (
	// TransportVirtual runs the statesync.Manager on the deployment's
	// virtual clock over netem-shaped links — the evaluation vehicle.
	TransportVirtual Transport = iota
	// TransportTCP runs the supervised TCP transport over real loopback
	// sockets: reconnect with backoff, heartbeats, and read-deadline
	// dead-peer detection (see DESIGN.md §9). Synchronization then
	// advances in real time, not virtual time.
	TransportTCP
)

// DeployConfig describes the three-tier deployment topology.
type DeployConfig struct {
	// CloudSpec is the cloud node's device model.
	CloudSpec cluster.DeviceSpec
	// EdgeSpecs lists one device model per edge replica.
	EdgeSpecs []cluster.DeviceSpec
	// WAN shapes every edge↔cloud link.
	WAN netem.Config
	// SyncInterval is the background synchronization period.
	SyncInterval time.Duration
	// Policy picks how the balancer routes across edge replicas.
	Policy cluster.Policy
	// Transport selects the synchronization runtime (default
	// TransportVirtual).
	Transport Transport
	// TCP tunes the TCP transport when Transport is TransportTCP. A zero
	// Interval inherits SyncInterval; other zero fields take the
	// DefaultTCPConfig fault-tolerance settings.
	TCP statesync.TCPConfig
	// Durability persists each node's CRDT state (WAL + snapshots) under
	// a per-node data directory and recovers it on redeploy. The zero
	// value keeps the deployment in-memory only.
	Durability DurabilityConfig
	// Placement runs the Datalog-driven placement control loop: edges
	// start serving nothing, and a periodic controller promotes hot
	// services to edges and retracts cold ones from live observability
	// facts. The zero value keeps the static every-service-everywhere
	// placement.
	Placement PlacementConfig
	// Reads configures the analysis-guided concurrent serve path. The
	// zero value enables it: routes the analysis classified read-only
	// (plus, for routes no traffic exercised, the static fallback) run
	// concurrently under a shared lock.
	Reads ReadsConfig
}

// ReadsConfig tunes the reader/writer invocation scheduler.
type ReadsConfig struct {
	// Serialize disables the concurrent read path, forcing every
	// invocation through the exclusive slot — the pre-scheduler
	// behavior, kept for ablations and differential testing.
	Serialize bool
}

// DefaultDeployConfig returns the evaluation's standard topology: one
// cloud server and the paper's four-Pi edge cluster (2 × RPi-3,
// 2 × RPi-4) behind a least-connections balancer.
func DefaultDeployConfig() DeployConfig {
	return DeployConfig{
		CloudSpec: cluster.CloudSpec,
		EdgeSpecs: []cluster.DeviceSpec{
			cluster.RPi3Spec, cluster.RPi3Spec, cluster.RPi4Spec, cluster.RPi4Spec,
		},
		WAN:          netem.FastWAN,
		SyncInterval: 500 * time.Millisecond,
		Policy:       cluster.LeastConnections,
	}
}

// EdgeReplica is one deployed edge node: a generated replica app bound
// to forked CRDT state, proxying for the cloud master.
type EdgeReplica struct {
	Name    string
	Server  *cluster.Server
	Binding *statesync.Binding
	State   *statesync.ReplicaState
	// WAN is the replica's private link to the cloud (used for failure
	// forwarding and, under TransportVirtual, synchronization).
	WAN *netem.Duplex
	// TCP is the replica's supervised connection to the master under
	// TransportTCP (nil otherwise).
	TCP *statesync.TCPEdge
	// Forwarded counts requests redirected to the cloud master.
	Forwarded int64
	// ServedLocally counts requests completed at the edge.
	ServedLocally int64

	afterErrs *afterInvokeErrs
}

// Deployment is a running three-tier system.
type Deployment struct {
	Clock  *simclock.Clock
	Result *Result

	Cloud          *cluster.Server
	CloudBinding   *statesync.Binding
	CloudState     *statesync.ReplicaState
	cloudAfterErrs *afterInvokeErrs

	Edges    []*EdgeReplica
	Balancer *cluster.Balancer
	// Sync is the virtual-time synchronization manager (nil under
	// TransportTCP, where TCPMaster and the per-edge TCP handles own the
	// protocol instead).
	Sync *statesync.Manager
	// TCPMaster is the cloud's TCP listener under TransportTCP (nil
	// otherwise).
	TCPMaster *statesync.TCPMaster

	// Obs is the observability bundle the deployment records into (nil
	// when deployed without one — every hook is then a no-op, except that
	// a placement-enabled deployment always creates its own: the
	// controller reads demand facts back out of the registry).
	Obs *obs.Obs

	// Placement is the placement control loop runtime (nil unless
	// DeployConfig.Placement.Enabled).
	Placement *PlacementRuntime

	// Stores maps node name ("cloud", "edge-1", …) to its durable store;
	// empty when the deployment runs without durability. Stop closes
	// every store.
	Stores       map[string]*durable.Store
	durableNodes []durableNode

	replicated map[string]bool // "METHOD /pattern" served at the edge
	// replicatedNames is the same set in the Result's order, so request
	// → service-name resolution is deterministic when several patterns
	// could match.
	replicatedNames []string
}

// Deploy instantiates the transformation result as a running three-tier
// system on the given virtual clock.
func Deploy(clock *simclock.Clock, res *Result, cfg DeployConfig) (*Deployment, error) {
	return DeployContext(context.Background(), clock, res, cfg)
}

// DeployContext is Deploy under an observability context: it opens a
// "deploy" trace span, and wires the synchronization manager and every
// server into the context's metrics registry (statesync.* and
// cluster.* metric families) for the deployment's lifetime.
func DeployContext(ctx context.Context, clock *simclock.Clock, res *Result, cfg DeployConfig) (*Deployment, error) {
	o := obs.From(ctx)
	if cfg.Placement.Enabled && o == nil {
		// The placement controller snapshots serve.* metrics into Datalog
		// facts each round, so a placement deployment cannot run blind.
		o = obs.New()
	}
	_, span := obs.StartSpan(ctx, "deploy",
		obs.A("app", res.Name),
		obs.A("edges", strconv.Itoa(len(cfg.EdgeSpecs))))
	defer span.End()
	if len(cfg.EdgeSpecs) == 0 {
		return nil, fmt.Errorf("core: deployment needs at least one edge node")
	}
	if cfg.SyncInterval <= 0 {
		return nil, fmt.Errorf("core: sync interval must be positive")
	}

	// Cloud master: normalized app + seeded CRDT state.
	cloudApp, err := httpapp.New(res.Name, res.NormalizedSource, res.Routes)
	if err != nil {
		return nil, fmt.Errorf("core: cloud app: %w", err)
	}
	res.InitState.Restore(cloudApp)

	d := &Deployment{
		Clock:      clock,
		Result:     res,
		Obs:        o,
		Stores:     map[string]*durable.Store{},
		replicated: map[string]bool{},
	}
	for _, name := range res.ReplicatedServiceNames() {
		d.replicated[name] = true
		d.replicatedNames = append(d.replicatedNames, name)
	}

	// cleanup releases TCP transport resources and durable stores on a
	// partial deployment failure.
	cleanup := func(err error) (*Deployment, error) {
		for _, e := range d.Edges {
			if e.TCP != nil {
				_ = e.TCP.Close()
			}
		}
		if d.TCPMaster != nil {
			_ = d.TCPMaster.Close()
		}
		for _, s := range d.Stores {
			_ = s.Close()
		}
		return nil, err
	}

	cloudState, cloudPersist, cloudRecovered, err := d.nodeState(cfg.Durability, "cloud", "cloud",
		func() (*statesync.ReplicaState, error) { return statesync.NewReplicaState("cloud") })
	if err != nil {
		return cleanup(err)
	}
	// A fresh cloud seeds the CRDT from the app's contents; a recovered
	// one holds the authoritative state on disk and pushes it into the
	// app instead.
	var cloudBinding *statesync.Binding
	if cloudRecovered {
		cloudBinding, err = statesync.BindReplica(cloudApp, cloudState, res.Units)
	} else {
		cloudBinding, err = statesync.Bind(cloudApp, cloudState, res.Units)
	}
	if err != nil {
		return cleanup(fmt.Errorf("core: cloud binding: %w", err))
	}
	cloudBinding.SetObs(o, "cloud")
	if cloudPersist != nil {
		if err := cloudPersist.Sync(cloudState); err != nil {
			return cleanup(err)
		}
	}
	cloudNode := cluster.NewNode(clock, cfg.CloudSpec)
	cloudServer := cluster.NewServer("cloud", cloudNode, cloudApp)
	d.cloudAfterErrs = newAfterInvokeErrs(o, cloudServer.Name)
	cloudServer.AfterInvoke = afterInvoke(cloudBinding, cloudPersist, cloudState, d.cloudAfterErrs)
	cloudServer.SetObs(o)
	// Analysis-guided read/write scheduling: requests on routes the
	// analysis observed free of state writes take the shared read path.
	var routeRO map[string]bool
	if !cfg.Reads.Serialize {
		routeRO = res.RouteReadOnly()
		cloudApp.SetReadOnlyRoutes(routeRO)
		cloudServer.ReadOnly = cloudApp.MatchReadOnly
	}
	d.Cloud = cloudServer
	d.CloudBinding = cloudBinding
	d.CloudState = cloudState

	masterEP := &statesync.Endpoint{Name: "cloud", State: cloudState, Binding: cloudBinding, Persist: cloudPersist}
	if cloudPersist != nil {
		masterEP.HeadsSource = cloudPersist.Heads
	}
	var mgr *statesync.Manager
	var tcpCfg statesync.TCPConfig
	if cfg.Transport == TransportTCP {
		tcpCfg = cfg.TCP
		if tcpCfg.Interval == 0 {
			tcpCfg.Interval = cfg.SyncInterval
		}
		tcpCfg = tcpCfg.WithDefaults()
		master, err := statesync.ServeMasterConfig("127.0.0.1:0", masterEP, tcpCfg)
		if err != nil {
			return cleanup(err)
		}
		master.SetObs(o)
		// Application invocations on the cloud mutate the same replicated
		// state the transport goroutines read: serialize them. Read-only
		// invocations share the transport lock with each other via RDo,
		// still excluding writers and the sync goroutines.
		cloudServer.WrapInvoke = master.Do
		cloudServer.WrapRead = master.RDo
		d.TCPMaster = master
	} else {
		mgr, err = statesync.NewManager(clock, masterEP, cfg.SyncInterval)
		if err != nil {
			return cleanup(err)
		}
		mgr.SetObs(o)
		d.Sync = mgr
	}

	servers := make([]*cluster.Server, 0, len(cfg.EdgeSpecs))
	for i, spec := range cfg.EdgeSpecs {
		name := fmt.Sprintf("edge-%d(%s)", i+1, spec.Name)
		replicaApp, err := httpapp.New(res.Name+"-replica", res.ReplicaSource, res.Routes)
		if err != nil {
			return cleanup(fmt.Errorf("core: replica app %s: %w", name, err))
		}
		actor := crdt.ActorID(fmt.Sprintf("edge%d", i+1))
		// A fresh edge forks the cloud snapshot; a restarted one recovers
		// its own persisted replica and re-handshakes for the delta.
		edgeState, edgePersist, _, err := d.nodeState(cfg.Durability, fmt.Sprintf("edge-%d", i+1), actor,
			func() (*statesync.ReplicaState, error) { return cloudState.Fork(actor) })
		if err != nil {
			return cleanup(err)
		}
		// BindReplica loads the snapshot state into the replica app —
		// the paper's "initializes its CRDT data structure with a
		// passed state snapshot".
		binding, err := statesync.BindReplica(replicaApp, edgeState, res.Units)
		if err != nil {
			return cleanup(fmt.Errorf("core: replica binding %s: %w", name, err))
		}
		binding.SetObs(o, name)
		if edgePersist != nil {
			if err := edgePersist.Sync(edgeState); err != nil {
				return cleanup(err)
			}
		}
		node := cluster.NewNode(clock, spec)
		server := cluster.NewServer(name, node, replicaApp)
		afterErrs := newAfterInvokeErrs(o, name)
		server.AfterInvoke = afterInvoke(binding, edgePersist, edgeState, afterErrs)
		server.SetObs(o)
		if !cfg.Reads.Serialize {
			replicaApp.SetReadOnlyRoutes(routeRO)
			server.ReadOnly = replicaApp.MatchReadOnly
		}

		wan, err := netem.NewDuplex(clock, cfg.WAN, int64(1000+i))
		if err != nil {
			return cleanup(err)
		}
		edge := &EdgeReplica{
			Name:      name,
			Server:    server,
			Binding:   binding,
			State:     edgeState,
			WAN:       wan,
			afterErrs: afterErrs,
		}
		ep := &statesync.Endpoint{Name: name, State: edgeState, Binding: binding, Persist: edgePersist}
		if edgePersist != nil {
			ep.HeadsSource = edgePersist.Heads
		}
		if cfg.Transport == TransportTCP {
			tcpEdge, err := statesync.DialEdgeConfig(d.TCPMaster.Addr(), ep, tcpCfg)
			if err != nil {
				return cleanup(fmt.Errorf("core: edge transport %s: %w", name, err))
			}
			tcpEdge.SetObs(o)
			server.WrapInvoke = tcpEdge.Do
			server.WrapRead = tcpEdge.RDo
			edge.TCP = tcpEdge
		} else if err := mgr.AddEdge(ep, wan); err != nil {
			return cleanup(err)
		}
		d.Edges = append(d.Edges, edge)
		servers = append(servers, server)
	}
	d.Balancer = cluster.NewBalancer(cfg.Policy, servers...)
	o.Gauge("deploy.edges").Set(float64(len(d.Edges)))
	if cfg.Placement.Enabled {
		pr, err := newPlacementRuntime(d, cfg.Placement)
		if err != nil {
			return cleanup(err)
		}
		d.Placement = pr
		pr.Start()
	}
	if mgr != nil {
		mgr.Start()
	}
	return d, nil
}

// edgeFor finds the EdgeReplica wrapping a balancer-picked server.
func (d *Deployment) edgeFor(s *cluster.Server) *EdgeReplica {
	for _, e := range d.Edges {
		if e.Server == s {
			return e
		}
	}
	return nil
}

// HandleAtEdge implements the Remote Proxy: the balancer picks an edge
// replica; replicated services execute in place, everything else — and
// every local failure — is forwarded to the cloud master over the WAN.
// Under a placement controller, a replicated service additionally only
// executes at edges where the controller enabled it; until its first
// promotion every request forwards to the cloud (that demand is exactly
// what promotes it). done may be nil for fire-and-forget loads.
func (d *Deployment) HandleAtEdge(req *httpapp.Request, done func(*httpapp.Response, error)) {
	if done == nil {
		done = func(*httpapp.Response, error) {}
	}
	name := d.replicatedServiceName(req)
	if name != "" && d.Obs != nil {
		// Demand accounting: every routed request counts, wherever it
		// executes — the placement controller's load facts measure what
		// clients want, not what edges currently serve.
		d.Obs.Counter("serve.requests." + name).Add(1)
		start := d.Clock.Now()
		inner := done
		done = func(resp *httpapp.Response, err error) {
			d.Obs.Histogram("serve.latency." + name).ObserveDuration(d.Clock.Now() - start)
			inner(resp, err)
		}
	}
	srv, err := d.Balancer.Pick()
	if err != nil {
		done(nil, err)
		return
	}
	edge := d.edgeFor(srv)
	if edge == nil {
		done(nil, fmt.Errorf("core: balancer returned unknown server"))
		return
	}
	if name == "" {
		d.forwardToCloud(edge, req, done)
		return
	}
	if d.Placement != nil {
		target := d.Placement.routeEdge(name, edge)
		if target == nil {
			// No edge serves this service yet; the balancer-picked edge
			// still proxies the WAN hop to the cloud.
			d.forwardToCloud(edge, req, done)
			return
		}
		edge = target
	}
	edge.Server.Handle(req, func(resp *httpapp.Response, _ time.Duration, err error) {
		if err != nil {
			// Failure handling: redirect the failed invocation to the
			// cloud master (§II-B, §IV-F).
			d.forwardToCloud(edge, req, done)
			return
		}
		edge.ServedLocally++
		done(resp, nil)
	})
}

// HandleAtCloud serves a request directly at the cloud (the original
// two-tier path), for baseline comparisons.
func (d *Deployment) HandleAtCloud(req *httpapp.Request, done func(*httpapp.Response, error)) {
	d.Cloud.Handle(req, func(resp *httpapp.Response, _ time.Duration, err error) {
		done(resp, err)
	})
}

func (d *Deployment) isReplicated(req *httpapp.Request) bool {
	return d.replicatedServiceName(req) != ""
}

// replicatedServiceName resolves a request to the inferred service name
// it belongs to ("" when the request's service is not replicated).
func (d *Deployment) replicatedServiceName(req *httpapp.Request) string {
	rt, _, err := d.Cloud.App.Lookup(req.Method, req.Path)
	if err != nil {
		return ""
	}
	for _, name := range d.replicatedNames {
		if matchesServiceName(name, rt, req) {
			return name
		}
	}
	return ""
}

// matchesServiceName matches an inferred service name ("GET /books/:p1")
// against a concrete routed request.
func matchesServiceName(name string, rt httpapp.Route, req *httpapp.Request) bool {
	// The inferred pattern and the route pattern may differ in parameter
	// naming only; compare by method plus route resolution.
	var method string
	var pattern string
	if n, err := fmt.Sscanf(name, "%s %s", &method, &pattern); n != 2 || err != nil {
		return false
	}
	if method != req.Method && method != rt.Method {
		return false
	}
	return samePathShape(pattern, rt.Path)
}

// samePathShape compares path patterns treating any ":x" segment as a
// wildcard.
func samePathShape(a, b string) bool {
	as, bs := splitSegs(a), splitSegs(b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		aParam := len(as[i]) > 0 && as[i][0] == ':'
		bParam := len(bs[i]) > 0 && bs[i][0] == ':'
		if aParam || bParam {
			continue
		}
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func splitSegs(p string) []string {
	var out []string
	cur := ""
	for i := 0; i < len(p); i++ {
		if p[i] == '/' {
			if cur != "" {
				out = append(out, cur)
				cur = ""
			}
			continue
		}
		cur += string(p[i])
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

// forwardToCloud ships a request over the edge's WAN to the cloud master
// and the response back.
func (d *Deployment) forwardToCloud(edge *EdgeReplica, req *httpapp.Request, done func(*httpapp.Response, error)) {
	edge.Forwarded++
	edge.WAN.Up.Send(req.Size(), func() {
		d.Cloud.Handle(req, func(resp *httpapp.Response, _ time.Duration, err error) {
			size := 0
			if resp != nil {
				size = resp.Size()
			}
			edge.WAN.Down.Send(size, func() {
				done(resp, err)
			})
		})
	})
}

// Converged reports whether every replica matches the cloud state.
func (d *Deployment) Converged() bool {
	if d.TCPMaster != nil {
		ok := true
		// Lock order master → edge matches the transport's; nothing locks
		// the other way around.
		d.TCPMaster.Do(func() {
			for _, e := range d.Edges {
				e.TCP.Do(func() {
					if !d.CloudState.Converged(e.State) {
						ok = false
					}
				})
				if !ok {
					return
				}
			}
		})
		return ok
	}
	return d.Sync.Converged()
}

// settleFullEvery is how often, in polls, SettleSync under TransportTCP
// runs the full Converged check although the heads differ.
const settleFullEvery = 25

// headsMatch reports whether every TCP edge holds exactly the cloud's
// changes: the heads of each state component are equal. Each node's
// lock is held only to read its heads.
func (d *Deployment) headsMatch() bool {
	var cloud statesync.Heads
	d.TCPMaster.Do(func() { cloud = d.CloudState.Heads() })
	for _, e := range d.Edges {
		var edge statesync.Heads
		e.TCP.Do(func() { edge = e.State.Heads() })
		for comp, vv := range cloud {
			if !vv.Equal(edge[comp]) {
				return false
			}
		}
	}
	return true
}

// SettleSync runs until synchronization quiesces (or the budget
// elapses): virtual clock stepping under TransportVirtual, real-time
// polling under TransportTCP (the budget is then wall-clock). A TCP
// poll compares every node's heads first, which is cheap, and runs
// Converged, which materializes and compares all state under the
// transport locks, only once they all match — or on every
// settleFullEvery-th poll, so that replicas holding equal state under
// unequal heads still settle.
func (d *Deployment) SettleSync(budget time.Duration) {
	if d.TCPMaster != nil {
		deadline := time.Now().Add(budget)
		for poll := 1; time.Now().Before(deadline); poll++ {
			d.Clock.Run() // flush pending request completions
			if (d.headsMatch() || poll%settleFullEvery == 0) && d.Converged() {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		return
	}
	deadline := d.Clock.Now() + budget
	for d.Clock.Now() < deadline {
		d.Clock.RunUntil(d.Clock.Now() + 200*time.Millisecond)
		if d.Converged() {
			return
		}
	}
}

// Stop halts background synchronization, tearing down every TCP session
// under TransportTCP, and seals every durable store (pending WAL
// appends are synced to disk regardless of fsync policy).
func (d *Deployment) Stop() {
	if d.Placement != nil {
		d.Placement.Stop()
	}
	if d.TCPMaster != nil {
		for _, e := range d.Edges {
			if e.TCP != nil {
				_ = e.TCP.Close()
			}
		}
		_ = d.TCPMaster.Close()
		d.Clock.Run()
	} else {
		d.Sync.Stop()
		d.Clock.Run()
	}
	for _, s := range d.Stores {
		_ = s.Close()
	}
}
