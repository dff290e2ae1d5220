// Package cluster simulates the paper's deployment hardware on virtual
// time: a cloud server (Dell OptiPlex-class), edge nodes (Raspberry Pi 3
// and 4), and mobile clients. Nodes execute real service invocations
// (the interpreter runs for real); only their *duration* is modeled, by
// dividing the invocation's metered ops by the device's speed. The
// package also provides the least-connections load balancer and the
// elasticity controller of §IV-D, which powers replicas up and down with
// client-request volume.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/energy"
	"repro/internal/httpapp"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// ErrNoActiveServer is returned when the balancer has nothing to route
// to.
var ErrNoActiveServer = errors.New("cluster: no active server")

// DeviceSpec describes a device's compute capability and power draw.
type DeviceSpec struct {
	Name string
	// Cores is the number of independent execution units.
	Cores int
	// OpsPerSec is per-core throughput in abstract script ops.
	OpsPerSec float64
	// Power is the device's power profile.
	Power energy.Profile
}

// Device presets. Per-core speeds are calibrated so the RPi-4/RPi-3
// ratio is 1.8 — the processor-benchmark figure the paper cites (its own
// measurement was 1.71) — and the cloud box is roughly an order of
// magnitude faster per core than the edge devices, with twice the cores.
var (
	CloudSpec = DeviceSpec{Name: "cloud-optiplex", Cores: 8, OpsPerSec: 1.0e6,
		Power: energy.Profile{ActiveW: 90, LowPowerW: 25}}
	RPi4Spec   = DeviceSpec{Name: "rpi-4", Cores: 4, OpsPerSec: 0.18e6, Power: energy.RPi4Profile}
	RPi3Spec   = DeviceSpec{Name: "rpi-3", Cores: 4, OpsPerSec: 0.10e6, Power: energy.RPi3Profile}
	MobileSpec = DeviceSpec{Name: "snapdragon", Cores: 8, OpsPerSec: 0.15e6,
		Power: energy.MobileProfile}
)

// ServiceTime converts metered ops to execution time on one core.
func (d DeviceSpec) ServiceTime(ops float64) time.Duration {
	if ops <= 0 {
		return 0
	}
	return time.Duration(ops / d.OpsPerSec * float64(time.Second))
}

// Node is one simulated device: per-core FIFO scheduling plus an energy
// meter.
type Node struct {
	Spec   DeviceSpec
	Energy *energy.Meter

	clock     *simclock.Clock
	coreBusy  []time.Duration
	active    bool
	served    int64
	busyOps   float64
	createdAt time.Duration
}

// NewNode returns an active node on the given clock.
func NewNode(clock *simclock.Clock, spec DeviceSpec) *Node {
	return &Node{
		Spec:      spec,
		Energy:    energy.NewMeter(clock, spec.Power, energy.StateActive),
		clock:     clock,
		coreBusy:  make([]time.Duration, spec.Cores),
		active:    true,
		createdAt: clock.Now(),
	}
}

// Active reports whether the node is powered up for serving.
func (n *Node) Active() bool { return n.active }

// SetActive powers the node up (active) or parks it in low-power mode.
func (n *Node) SetActive(active bool) {
	n.active = active
	if active {
		n.Energy.SetState(energy.StateActive)
	} else {
		n.Energy.SetState(energy.StateLowPower)
	}
}

// Served returns the number of completed executions.
func (n *Node) Served() int64 { return n.served }

// Utilization returns mean busy fraction across cores since creation.
func (n *Node) Utilization() float64 {
	elapsed := (n.clock.Now() - n.createdAt).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return n.busyOps / n.Spec.OpsPerSec / float64(n.Spec.Cores) / elapsed
}

// Process schedules ops on the earliest-free core and calls done with
// the execution latency (queueing + service) when it completes.
func (n *Node) Process(ops float64, done func(execLatency time.Duration)) {
	now := n.clock.Now()
	best := 0
	for i := 1; i < len(n.coreBusy); i++ {
		if n.coreBusy[i] < n.coreBusy[best] {
			best = i
		}
	}
	start := now
	if n.coreBusy[best] > start {
		start = n.coreBusy[best]
	}
	finish := start + n.Spec.ServiceTime(ops)
	n.coreBusy[best] = finish
	n.busyOps += ops
	n.clock.At(finish, func() {
		n.served++
		if done != nil {
			done(finish - now)
		}
	})
}

// QueueDelay returns how long a request arriving now would wait for a
// core.
func (n *Node) QueueDelay() time.Duration {
	best := n.coreBusy[0]
	for _, b := range n.coreBusy[1:] {
		if b < best {
			best = b
		}
	}
	if d := best - n.clock.Now(); d > 0 {
		return d
	}
	return 0
}

// Server is a service instance hosted on a node.
type Server struct {
	Name string
	Node *Node
	App  *httpapp.App

	// conns is atomic: the fleet scaler and balancer read it from
	// control goroutines while request goroutines move it.
	conns atomic.Int64
	// AfterInvoke, when set, runs after every successful mutating
	// invocation — the replica runtime uses it to mirror global-variable
	// changes into the CRDT state.
	AfterInvoke func()
	// WrapInvoke, when set, runs the mutating critical section
	// (App.Invoke plus AfterInvoke) inside it. The TCP transport installs
	// the endpoint's Do here so application mutations serialize with the
	// background synchronization goroutines touching the same state.
	WrapInvoke func(func())
	// WrapRead, when set, runs read-only invocations inside it. The TCP
	// transport installs the endpoint's RDo here, so reads share the
	// transport lock with each other while still excluding writers.
	WrapRead func(func())
	// ReadOnly classifies a request, with the route the app resolved for
	// it, as safe for the concurrent read path (typically
	// App.MatchReadOnly, driven by the analysis pipeline's state-use
	// facts). Requests that match no route take the write path, which
	// reports them. When nil every invocation takes the serialized write
	// path — exactly the pre-scheduler behavior.
	ReadOnly func(*httpapp.Request, *httpapp.Match) bool

	// rwRead/rwWrite/rwMispredict count scheduler outcomes: invocations
	// served on the shared read path, on the exclusive write path, and
	// read-path attempts aborted by the write guard and re-run serialized.
	rwRead       atomic.Int64
	rwWrite      atomic.Int64
	rwMispredict atomic.Int64

	// reqCounter and errCounter mirror per-server request totals into
	// an observability registry (nil-safe no-ops when unset).
	reqCounter *obs.Counter
	errCounter *obs.Counter
	// readCounter/writeCounter/mispredictCounter mirror the scheduler
	// outcome counts as the serve.rw.* observability family.
	readCounter       *obs.Counter
	writeCounter      *obs.Counter
	mispredictCounter *obs.Counter
}

// NewServer hosts app on node.
func NewServer(name string, node *Node, app *httpapp.App) *Server {
	return &Server{Name: name, Node: node, App: app}
}

// SetObs mirrors this server's request totals into the registry as
// "cluster.requests.<name>" and "cluster.errors.<name>" counters. The
// counters are resolved once here so the per-request cost is a
// nil-safe atomic increment.
func (s *Server) SetObs(o *obs.Obs) {
	s.reqCounter = o.Counter("cluster.requests." + s.Name)
	s.errCounter = o.Counter("cluster.errors." + s.Name)
	s.readCounter = o.Counter("serve.rw.read." + s.Name)
	s.writeCounter = o.Counter("serve.rw.write." + s.Name)
	s.mispredictCounter = o.Counter("serve.rw.mispredict." + s.Name)
}

// ActiveConns returns the server's in-flight request count.
func (s *Server) ActiveConns() int { return int(s.conns.Load()) }

// RWStats returns the scheduler outcome counts: read-path invocations,
// write-path invocations, and write-guard mispredict fallbacks.
func (s *Server) RWStats() (read, write, mispredict int64) {
	return s.rwRead.Load(), s.rwWrite.Load(), s.rwMispredict.Load()
}

// Invoke runs one invocation through the reader/writer scheduler.
// Requests the classifier marks read-only take the shared slot
// (App.InvokeRead under WrapRead) and may run concurrently with each
// other; everything else — and any read attempt the interpreter's
// write guard aborts — takes the exclusive slot (App.Invoke plus
// AfterInvoke under WrapInvoke). A guard abort re-runs exactly once on
// the write path: the guard fires before any shared state is touched,
// so the serialized re-run observes pristine state and the final
// response and state transitions are identical to a fully serialized
// execution.
func (s *Server) Invoke(req *httpapp.Request) (*httpapp.Response, float64, error) {
	iv := invocations.Get().(*invocation)
	iv.s, iv.req = s, req
	routed := s.App.Resolve(req, &iv.m) == nil
	if routed && s.ReadOnly != nil && s.ReadOnly(req, &iv.m) {
		if s.WrapRead != nil {
			s.WrapRead(iv.read)
		} else {
			iv.read()
		}
		if iv.err == nil || !errors.Is(iv.err, httpapp.ErrWriteGuard) {
			s.rwRead.Add(1)
			s.readCounter.Add(1)
			return iv.finish()
		}
		s.rwMispredict.Add(1)
		s.mispredictCounter.Add(1)
	}
	if s.WrapInvoke != nil {
		s.WrapInvoke(iv.write)
	} else {
		iv.write()
	}
	s.rwWrite.Add(1)
	s.writeCounter.Add(1)
	return iv.finish()
}

// invocation carries one request through WrapRead or WrapInvoke: the
// route resolved once, and the outcome. Its read and write funcs are
// bound when the pool makes it, so a request allocates no closure. The
// handler never sees it: App builds the handler's req and res afresh.
type invocation struct {
	s    *Server
	req  *httpapp.Request
	m    httpapp.Match
	resp *httpapp.Response
	ops  float64
	err  error

	read, write func()
}

var invocations = sync.Pool{New: func() any {
	iv := new(invocation)
	iv.read = func() { iv.resp, iv.ops, iv.err = iv.s.App.InvokeReadMatch(iv.req, &iv.m) }
	iv.write = func() {
		// An unresolved match fails here with ErrNoRoute, as Invoke
		// would.
		iv.resp, iv.ops, iv.err = iv.s.App.InvokeMatch(iv.req, &iv.m)
		if iv.err == nil && iv.s.AfterInvoke != nil {
			iv.s.AfterInvoke()
		}
	}
	return iv
}}

// finish returns the outcome and puts iv back, holding nothing of the
// request.
func (iv *invocation) finish() (*httpapp.Response, float64, error) {
	resp, ops, err := iv.resp, iv.ops, iv.err
	*iv = invocation{read: iv.read, write: iv.write}
	invocations.Put(iv)
	return resp, ops, err
}

// Handle executes a request: the app runs immediately (its state
// changes take effect now) and the response is delivered after the
// node's simulated execution latency.
func (s *Server) Handle(req *httpapp.Request, done func(*httpapp.Response, time.Duration, error)) {
	s.conns.Add(1)
	s.reqCounter.Add(1)
	resp, ops, err := s.Invoke(req)
	if err != nil {
		s.errCounter.Add(1)
	}
	s.Node.Process(ops, func(lat time.Duration) {
		s.conns.Add(-1)
		done(resp, lat, err)
	})
}

// Policy selects how the balancer picks a server.
type Policy int

// Balancing policies.
const (
	// LeastConnections routes to the active server with the fewest
	// in-flight requests (the paper's choice, §IV-D).
	LeastConnections Policy = iota + 1
	// RoundRobin rotates through active servers (ablation baseline).
	RoundRobin
)

// Balancer distributes client requests across edge replicas.
type Balancer struct {
	servers []*Server
	policy  Policy
	rrNext  int
}

// NewBalancer returns a balancer over the given servers.
func NewBalancer(policy Policy, servers ...*Server) *Balancer {
	return &Balancer{servers: servers, policy: policy}
}

// Servers returns the managed servers.
func (b *Balancer) Servers() []*Server { return b.servers }

// ActiveCount returns how many servers are powered up.
func (b *Balancer) ActiveCount() int {
	n := 0
	for _, s := range b.servers {
		if s.Node.Active() {
			n++
		}
	}
	return n
}

// TotalConns returns in-flight requests across active servers — the
// balancer's traffic-volume estimate (§IV-D capability 2).
func (b *Balancer) TotalConns() int {
	n := 0
	for _, s := range b.servers {
		if s.Node.Active() {
			n += s.ActiveConns()
		}
	}
	return n
}

// Pick selects a server for the next request. With no active server
// (empty balancer, everything parked) it returns ErrNoActiveServer
// rather than panicking, and a RoundRobin pick that skipped parked
// servers keeps its rotation position anchored to the server actually
// chosen, so unparking a server never replays the rotation from a stale
// offset.
func (b *Balancer) Pick() (*Server, error) {
	return b.PickWhere(func(*Server) bool { return true })
}

// PickWhere selects a server under the balancer's policy, considering
// only active servers that satisfy pred — the placement controller
// routes through it so a request lands on a replica where its service
// is actually enabled.
func (b *Balancer) PickWhere(pred func(*Server) bool) (*Server, error) {
	if len(b.servers) == 0 {
		return nil, ErrNoActiveServer
	}
	switch b.policy {
	case RoundRobin:
		for i := 0; i < len(b.servers); i++ {
			idx := (b.rrNext + i) % len(b.servers)
			s := b.servers[idx]
			if s.Node.Active() && pred(s) {
				// Advance from the chosen slot, not the scan start, so
				// skipped (parked) servers don't shift the rotation.
				b.rrNext = (idx + 1) % len(b.servers)
				return s, nil
			}
		}
		return nil, ErrNoActiveServer
	default: // LeastConnections
		var best *Server
		bestConns := 0
		for _, s := range b.servers {
			if !s.Node.Active() || !pred(s) {
				continue
			}
			if c := s.ActiveConns(); best == nil || c < bestConns {
				best, bestConns = s, c
			}
		}
		if best == nil {
			return nil, ErrNoActiveServer
		}
		return best, nil
	}
}

// SetActiveCount powers up the first k servers and parks the rest —
// used by the elasticity controller and by fixed-size experiments.
func (b *Balancer) SetActiveCount(k int) {
	if k < 1 {
		k = 1
	}
	if k > len(b.servers) {
		k = len(b.servers)
	}
	for i, s := range b.servers {
		s.Node.SetActive(i < k)
	}
}

// Autoscaler is the elasticity controller of §IV-D: it monitors the
// number of active connections and adjusts the number of powered-up
// replicas, parking the rest in low-power mode so they "can be brought
// back without incurring unnecessary delays".
type Autoscaler struct {
	clock    *simclock.Clock
	balancer *Balancer
	// ConnsPerReplica is the load one replica is expected to absorb.
	ConnsPerReplica int
	interval        time.Duration
	running         bool
	// transitions counts scale events, for reporting.
	transitions int
}

// NewAutoscaler returns a controller sampling every interval.
func NewAutoscaler(clock *simclock.Clock, b *Balancer, connsPerReplica int, interval time.Duration) (*Autoscaler, error) {
	if connsPerReplica < 1 {
		return nil, fmt.Errorf("cluster: connsPerReplica must be ≥ 1, got %d", connsPerReplica)
	}
	if interval <= 0 {
		return nil, fmt.Errorf("cluster: autoscaler interval must be positive, got %v", interval)
	}
	return &Autoscaler{clock: clock, balancer: b, ConnsPerReplica: connsPerReplica, interval: interval}, nil
}

// Transitions returns the number of scale adjustments made.
func (a *Autoscaler) Transitions() int { return a.transitions }

// Start begins periodic adjustment.
func (a *Autoscaler) Start() {
	if a.running {
		return
	}
	a.running = true
	a.tick()
}

// Stop halts adjustment.
func (a *Autoscaler) Stop() { a.running = false }

func (a *Autoscaler) tick() {
	a.clock.After(a.interval, func() {
		if !a.running {
			return
		}
		a.Adjust()
		a.tick()
	})
}

// Adjust applies one scaling decision immediately.
func (a *Autoscaler) Adjust() {
	conns := a.balancer.TotalConns()
	want := (conns + a.ConnsPerReplica - 1) / a.ConnsPerReplica
	if want < 1 {
		want = 1
	}
	if want > len(a.balancer.servers) {
		want = len(a.balancer.servers)
	}
	if want != a.balancer.ActiveCount() {
		a.balancer.SetActiveCount(want)
		a.transitions++
	}
}
