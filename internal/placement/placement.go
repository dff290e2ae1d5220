// Package placement is the declarative placement engine (ROADMAP item
// 2): each control round it snapshots live observability facts — per-
// service demand, per-edge link/capacity/energy state, the previous
// round's assignment — into Datalog relations, runs a rule program
// through the internal/datalog engine, and derives which extracted
// services run on which edges. The previous assignment re-enters the
// fact base each round, so hysteresis (don't flap near thresholds) is
// expressed in the rules themselves rather than in controller code.
//
// The engine is positive-only (no negation), so continuous quantities
// are discretized into bands before they become facts: request volume
// to hot/warm/cold, link state to up/down, energy to ok/over, capacity
// to free/full, sync traffic to high/low. The rule program derives
// three relations the controller combines in code:
//
//	candidate(S, E)  service S may be promoted to edge E
//	keep(S, E)       assigned service S stays on edge E
//	retract(S, E)    assigned service S drains away from edge E
//
// The next assignment is keep plus capacity-capped candidates; anything
// assigned that did not survive is retracted.
package placement

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/datalog"
)

// Thresholds discretize raw observations into the fact bands the rules
// see.
type Thresholds struct {
	// HotRequests is the per-window request count at or above which a
	// service is load(S, hot).
	HotRequests int64
	// ColdRequests: an assigned service strictly below this count is
	// load(S, cold). The gap between ColdRequests and HotRequests is the
	// warm band — the hysteresis zone where assignments hold steady.
	ColdRequests int64
	// HotLatencyMS, when positive, also marks a service hot once its p95
	// latency reaches it — latency pressure promotes even at moderate
	// volume.
	HotLatencyMS float64
	// DeltaBytesHigh, when positive, marks an edge syncload(E, high)
	// once its per-window replication traffic reaches it. The default
	// policy does not use the relation; custom programs can.
	DeltaBytesHigh int64
}

// DefaultThresholds is a starting point for the evaluation topology.
func DefaultThresholds() Thresholds {
	return Thresholds{HotRequests: 20, ColdRequests: 5, HotLatencyMS: 0, DeltaBytesHigh: 1 << 20}
}

// Service is one replicated service's demand this window.
type Service struct {
	Name string
	// Requests is the number of requests routed to the service this
	// window (served at an edge or forwarded — demand, not supply).
	Requests int64
	// P95LatencyMS is the service's p95 latency so far.
	P95LatencyMS float64
}

// Edge is one edge node's state this window.
type Edge struct {
	Name string
	// Connected reports the sync link is up (always true under the
	// virtual transport; the TCP supervisor's state otherwise).
	Connected bool
	// Capacity is the maximum services this edge may host (≤ 0 means
	// unlimited).
	Capacity int
	// EnergyOver reports the edge exceeded its energy budget this
	// window.
	EnergyOver bool
	// DeltaBytes is the replication traffic attributed to this edge this
	// window.
	DeltaBytes int64
}

// Input is one round's fact snapshot.
type Input struct {
	Services []Service
	Edges    []Edge
	// Assigned is the previous round's assignment: edge name → service
	// names. It becomes the assigned(S, E) relation — the hysteresis
	// memory.
	Assigned map[string][]string
	// Colocate lists service pairs that should land together; each pair
	// is asserted symmetrically.
	Colocate [][2]string
}

// Move is one assignment change.
type Move struct {
	Service string
	Edge    string
}

// Decision is one control round's outcome.
type Decision struct {
	// Promote lists services newly enabled at an edge; Retract lists
	// services to drain. Both are sorted (service, then edge).
	Promote []Move
	Retract []Move
	// Next is the derived assignment: edge name → sorted service names.
	// Every edge in the input appears, possibly with no services.
	Next map[string][]string
	// Stats is the Datalog engine's fixpoint accounting for the round;
	// Facts is the ground-fact count loaded; Elapsed is the wall-clock
	// decision time (fact load + fixpoint + extraction).
	Stats   datalog.RunStats
	Facts   int
	Elapsed time.Duration
}

// Load bands.
const (
	LoadHot  = "hot"
	LoadWarm = "warm"
	LoadCold = "cold"
)

// Controller derives placement decisions from observation snapshots. It
// is stateless between rounds — the hysteresis memory travels in
// Input.Assigned — so a fresh controller resumes an existing deployment
// without a warmup.
type Controller struct {
	thresholds Thresholds
	program    *Program
}

// New returns a controller running the given rule program text; empty
// text selects DefaultRulesText.
func New(th Thresholds, rulesText string) (*Controller, error) {
	if rulesText == "" {
		rulesText = DefaultRulesText
	}
	prog, err := ParseRules(rulesText)
	if err != nil {
		return nil, err
	}
	return &Controller{thresholds: th, program: prog}, nil
}

// Band returns the load band for a service under the controller's
// thresholds.
func (c *Controller) Band(s Service) string {
	th := c.thresholds
	if s.Requests >= th.HotRequests || (th.HotLatencyMS > 0 && s.P95LatencyMS >= th.HotLatencyMS) {
		return LoadHot
	}
	if s.Requests < th.ColdRequests {
		return LoadCold
	}
	return LoadWarm
}

// Decide runs one control round: facts in, rules to fixpoint, and the
// derived relations combined into the next assignment.
func (c *Controller) Decide(in Input) (*Decision, error) {
	start := time.Now()
	db := datalog.NewDB()
	if err := c.program.Load(db); err != nil {
		return nil, err
	}
	facts, err := c.loadFacts(db, in)
	if err != nil {
		return nil, err
	}
	if err := db.Run(); err != nil {
		return nil, err
	}

	capacity := make(map[string]int, len(in.Edges))
	next := make(map[string]map[string]bool, len(in.Edges))
	for _, e := range in.Edges {
		capacity[e.Name] = e.Capacity
		next[e.Name] = map[string]bool{}
	}

	// Retract wins over keep if a custom program derives both — dropping
	// a replica is always safe (the cloud still serves it), keeping one
	// the rules wanted gone is not.
	retracted := map[Move]bool{}
	for _, row := range db.Query(datalog.NewAtom("retract", datalog.V("S"), datalog.V("E"))) {
		retracted[Move{Service: row["S"], Edge: row["E"]}] = true
	}
	for _, row := range db.Query(datalog.NewAtom("keep", datalog.V("S"), datalog.V("E"))) {
		mv := Move{Service: row["S"], Edge: row["E"]}
		if set, ok := next[mv.Edge]; ok && !retracted[mv] {
			set[mv.Service] = true
		}
	}

	// Admit candidates into remaining capacity. Query order is
	// deterministic (sorted), so admission under a full window is too.
	var promote []Move
	for _, row := range db.Query(datalog.NewAtom("candidate", datalog.V("S"), datalog.V("E"))) {
		mv := Move{Service: row["S"], Edge: row["E"]}
		set, ok := next[mv.Edge]
		if !ok || set[mv.Service] || retracted[mv] {
			continue
		}
		if cap := capacity[mv.Edge]; cap > 0 && len(set) >= cap {
			continue
		}
		set[mv.Service] = true
		if !assignedHas(in.Assigned, mv) {
			promote = append(promote, mv)
		}
	}

	// Anything previously assigned that did not survive drains — whether
	// the rules said retract explicitly or simply stopped deriving keep
	// (e.g. the edge vanished from the input).
	var retract []Move
	for edge, svcs := range in.Assigned {
		for _, s := range svcs {
			set, ok := next[edge]
			if !ok || !set[s] {
				retract = append(retract, Move{Service: s, Edge: edge})
			}
		}
	}

	d := &Decision{
		Promote: sortMoves(promote),
		Retract: sortMoves(retract),
		Next:    make(map[string][]string, len(next)),
		Stats:   db.Stats(),
		Facts:   facts,
	}
	for edge, set := range next {
		svcs := make([]string, 0, len(set))
		for s := range set {
			svcs = append(svcs, s)
		}
		sort.Strings(svcs)
		d.Next[edge] = svcs
	}
	d.Elapsed = time.Since(start)
	return d, nil
}

// loadFacts asserts the snapshot into the database, returning the fact
// count.
func (c *Controller) loadFacts(db *datalog.DB, in Input) (int, error) {
	n := 0
	add := func(pred string, args ...string) error {
		if _, err := db.AddFact(pred, args...); err != nil {
			return fmt.Errorf("placement: fact %s%v: %w", pred, args, err)
		}
		n++
		return nil
	}
	for _, s := range in.Services {
		if err := add("service", s.Name); err != nil {
			return n, err
		}
		if err := add("load", s.Name, c.Band(s)); err != nil {
			return n, err
		}
	}
	for _, e := range in.Edges {
		link := "down"
		if e.Connected {
			link = "up"
		}
		en := "ok"
		if e.EnergyOver {
			en = "over"
		}
		cap := "free"
		if e.Capacity > 0 && len(in.Assigned[e.Name]) >= e.Capacity {
			cap = "full"
		}
		sl := "low"
		if c.thresholds.DeltaBytesHigh > 0 && e.DeltaBytes >= c.thresholds.DeltaBytesHigh {
			sl = "high"
		}
		for _, f := range [][]string{
			{"edge", e.Name}, {"link", e.Name, link}, {"energy", e.Name, en},
			{"capacity", e.Name, cap}, {"syncload", e.Name, sl},
		} {
			if err := add(f[0], f[1:]...); err != nil {
				return n, err
			}
		}
	}
	for edge, svcs := range in.Assigned {
		for _, s := range svcs {
			if err := add("assigned", s, edge); err != nil {
				return n, err
			}
		}
	}
	for _, pair := range in.Colocate {
		if err := add("colocate", pair[0], pair[1]); err != nil {
			return n, err
		}
		if err := add("colocate", pair[1], pair[0]); err != nil {
			return n, err
		}
	}
	return n, nil
}

func assignedHas(assigned map[string][]string, mv Move) bool {
	for _, s := range assigned[mv.Edge] {
		if s == mv.Service {
			return true
		}
	}
	return false
}

func sortMoves(ms []Move) []Move {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Service != ms[j].Service {
			return ms[i].Service < ms[j].Service
		}
		return ms[i].Edge < ms[j].Edge
	})
	return ms
}
