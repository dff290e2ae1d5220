package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/sqldb"
	"repro/internal/statesync"
)

// tracer times the calls into each layer's public hooks on the traced
// deployments of a --trace 1 run.
type tracer struct {
	mu     sync.Mutex
	series map[string]durations
}

func newTracer() *tracer { return &tracer{series: map[string]durations{}} }

func (t *tracer) add(name string, d time.Duration) {
	t.mu.Lock()
	t.series[name] = append(t.series[name], d)
	t.mu.Unlock()
}

func (t *tracer) get(name string) durations {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.series[name]
}

// timedSection wraps a lock-taking hook (WrapRead or WrapInvoke) so
// each call records how long it waited for the lock and how long it
// held it.
func (t *tracer) timedSection(wrap func(func()), waitName, holdName string) func(func()) {
	return func(f func()) {
		var entered, left time.Time
		start := time.Now()
		wrap(func() {
			entered = time.Now()
			f()
			left = time.Now()
		})
		t.add(waitName, entered.Sub(start))
		t.add(holdName, left.Sub(entered))
	}
}

// install wraps a server's scheduler hooks: the shared read slot, the
// exclusive write slot, and AfterInvoke (mirror globals + persist).
func (t *tracer) install(s *cluster.Server) {
	s.WrapRead = t.timedSection(s.WrapRead, "shared_wait", "shared_hold")
	s.WrapInvoke = t.timedSection(s.WrapInvoke, "excl_wait", "excl_hold")
	after := s.AfterInvoke
	s.AfterInvoke = func() {
		start := time.Now()
		after()
		t.add("after_invoke", time.Since(start))
	}
}

// applyRounds is how many empty-delta applies the traced run times per
// node.
const applyRounds = 5

// applyCost times Binding.ApplyRemoteCount of an empty delta under each
// node's exclusive transport lock: the fixed cost every inbound delta
// pays at the final state size.
func applyCost(st *stack) (durations, error) {
	dep := st.dep
	type node struct {
		do   func(func())
		bind *statesync.Binding
	}
	nodes := []node{{dep.TCPMaster.Do, dep.CloudBinding}}
	for _, e := range dep.Edges {
		nodes = append(nodes, node{e.TCP.Do, e.Binding})
	}
	var out durations
	for _, n := range nodes {
		for i := 0; i < applyRounds; i++ {
			var err error
			var d time.Duration
			n.do(func() {
				start := time.Now()
				_, err = n.bind.ApplyRemoteCount(statesync.Delta{})
				d = time.Since(start)
			})
			if err != nil {
				return nil, fmt.Errorf("empty-delta apply: %w", err)
			}
			out = append(out, d)
		}
	}
	return out, nil
}

// selectRounds is how many point selects the traced run times.
const selectRounds = 200

// pointSelectCost times a point select of the probe table's highest id
// on the first edge, under its shared transport lock.
func pointSelectCost(st *stack, w workload) (durations, error) {
	e := st.dep.Edges[0]
	db := e.Server.App.DB()
	var key any
	var err error
	e.TCP.RDo(func() {
		var res *sqldb.Result
		if res, err = db.ExecReadOnly("SELECT max(id) FROM " + w.probeTable); err == nil && len(res.Rows) == 1 {
			key = res.Rows[0]["max(id)"]
		}
	})
	if err != nil || key == nil {
		return nil, fmt.Errorf("finding a %s row to probe: %v", w.probeTable, err)
	}
	query := "SELECT * FROM " + w.probeTable + " WHERE id = ?"
	var out durations
	for i := 0; i < selectRounds; i++ {
		var rows int
		var d time.Duration
		e.TCP.RDo(func() {
			start := time.Now()
			var res *sqldb.Result
			res, err = db.ExecReadOnly(query, key)
			d = time.Since(start)
			if err == nil {
				rows = len(res.Rows)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("point select: %w", err)
		}
		if rows != 1 {
			return nil, fmt.Errorf("point select of %s id %v returned %d rows", w.probeTable, key, rows)
		}
		out = append(out, d)
	}
	return out, nil
}
