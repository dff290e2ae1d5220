package main

import (
	"fmt"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/crdt"
	"repro/internal/statesync"
)

// sample is one request's timing.
type sample struct {
	// lat is the request's latency by the queueing recurrence; svc the
	// measured Invoke time; late how far behind schedule it was sent.
	lat, svc, late time.Duration
	write          bool
}

// window is what one open-loop run observed.
type window struct {
	samples []sample
	// lags is the replication lag of every write, both directions.
	lags durations
	// failed counts requests whose Invoke failed or whose response
	// failed its check; firstFailure describes the first.
	failed       int
	firstFailure error
	// elapsed is the time from the first due send to the last
	// completion.
	elapsed time.Duration
	// heapPeak is the highest live heap seen during the run, in bytes.
	heapPeak uint64
	// proc is the process counters when sending starts and when the
	// last request completes.
	proc [2]procCounters
}

// seenHead is one entry of a replica's version vector.
type seenHead struct {
	comp  string
	actor crdt.ActorID
	seq   uint64
}

// pendingWrite is a write whose arrival at the sibling edge the lag
// poller awaits.
type pendingWrite struct {
	origin int
	heads  []seenHead
	at     time.Time
}

// lagProbe resolves each write's own-actor heads against the sibling
// edge's heads. It adds no writes of its own.
type lagProbe struct {
	edges    []*core.EdgeReplica
	prefixes []string // own-actor prefix per edge ("edge1/")

	mu      sync.Mutex
	pending []pendingWrite
	lags    durations
}

func newLagProbe(edges []*core.EdgeReplica) *lagProbe {
	p := &lagProbe{edges: edges}
	for i := range edges {
		// core names edge i's CRDT actors "edge<i+1>/<component>".
		p.prefixes = append(p.prefixes, fmt.Sprintf("edge%d/", i+1))
	}
	return p
}

// heads reads an edge's version vectors under its shared transport
// lock.
func (p *lagProbe) heads(i int) statesync.Heads {
	var h statesync.Heads
	e := p.edges[i]
	e.TCP.RDo(func() { h = e.State.Heads() })
	return h
}

// wrote records a write that returned at at from edge origin.
func (p *lagProbe) wrote(origin int, at time.Time) {
	var own []seenHead
	for comp, vv := range p.heads(origin) {
		for actor, seq := range vv {
			if strings.HasPrefix(string(actor), p.prefixes[origin]) {
				own = append(own, seenHead{comp, actor, seq})
			}
		}
	}
	p.mu.Lock()
	p.pending = append(p.pending, pendingWrite{origin: origin, heads: own, at: at})
	p.mu.Unlock()
}

// poll resolves every pending write the other edges now hold and
// reports how many remain.
func (p *lagProbe) poll() int {
	for dest := range p.edges {
		h := p.heads(dest)
		now := time.Now()
		p.mu.Lock()
		kept := p.pending[:0]
		for _, w := range p.pending {
			if w.origin != dest && covers(h, w.heads) {
				p.lags = append(p.lags, now.Sub(w.at))
				continue
			}
			kept = append(kept, w)
		}
		p.pending = kept
		p.mu.Unlock()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

func covers(h statesync.Heads, want []seenHead) bool {
	for _, w := range want {
		if h[w.comp][w.actor] < w.seq {
			return false
		}
	}
	return true
}

// heapLive reads the live heap after the last GC without stopping the
// world.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// drainBudget bounds the wait for the last writes to replicate.
const drainBudget = 30 * time.Second

// drive sends ops open-loop at rate requests per second from
// clientCount goroutines, plus one lag poller, and waits until every
// write reached the sibling edge.
//
// Request i is due at i/rate after the start. Its latency follows the
// queueing recurrence c_i = max(due_i, c_prev) + s_i over the requests
// of the same client, where s_i is the measured Invoke time: a stall
// still delays the requests queued behind it, but the sleep slack of
// the generator's own timers does not count.
func drive(dep *core.Deployment, ops []op, rate float64) (*window, error) {
	clients := clientCount()
	edgeOf := map[*cluster.Server]int{}
	for i, e := range dep.Edges {
		edgeOf[e.Server] = i
	}
	probe := newLagProbe(dep.Edges)
	w := &window{samples: make([]sample, len(ops))}
	interval := time.Duration(float64(time.Second) / rate)

	var pickMu sync.Mutex // the balancer is not safe for concurrent use
	var failMu sync.Mutex
	fail := func(err error) {
		failMu.Lock()
		defer failMu.Unlock()
		w.failed++
		if w.firstFailure == nil {
			w.firstFailure = err
		}
	}

	w.proc[0] = readProc()
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	ends := make([]time.Duration, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var prev time.Duration // recurrence completion of the previous request
			for i := g; i < len(ops); i += clients {
				o := ops[i]
				due := time.Duration(i) * interval
				if d := due - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				pickMu.Lock()
				srv, err := dep.Balancer.Pick()
				pickMu.Unlock()
				if err != nil {
					fail(err)
					continue
				}
				sent := time.Since(start)
				resp, _, err := srv.Invoke(o.req)
				returned := time.Now()
				done := returned.Sub(start)
				svc := done - sent
				c := due
				if prev > c {
					c = prev
				}
				c += svc
				prev = c
				w.samples[i] = sample{lat: c - due, svc: svc, late: sent - due, write: o.write}
				switch {
				case err != nil:
					fail(fmt.Errorf("%s %s: %w", o.req.Method, o.req.Path, err))
					continue
				case o.check != nil:
					if cerr := o.check(resp); cerr != nil {
						fail(fmt.Errorf("%s %s: %w", o.req.Method, o.req.Path, cerr))
					}
				}
				if o.write {
					probe.wrote(edgeOf[srv], returned)
				}
			}
			ends[g] = time.Since(start)
		}(g)
	}

	genDone := make(chan struct{})
	go func() {
		wg.Wait()
		w.proc[1] = readProc()
		close(genDone)
	}()
	err := w.awaitLags(probe, genDone)
	for _, e := range ends {
		if e > w.elapsed {
			w.elapsed = e
		}
	}
	w.lags = probe.lags
	return w, err
}

// awaitLags polls the lag probe every millisecond, and samples the live
// heap every tenth poll, until the generator is done and every write
// has reached the sibling edge.
func (w *window) awaitLags(probe *lagProbe, genDone <-chan struct{}) error {
	var deadline time.Time
	for polls := 0; ; polls++ {
		time.Sleep(time.Millisecond)
		left := probe.poll()
		if polls%10 == 0 {
			if h := heapLive(); h > w.heapPeak {
				w.heapPeak = h
			}
		}
		select {
		case <-genDone:
		default:
			continue
		}
		switch {
		case left == 0:
			return nil
		case deadline.IsZero():
			deadline = time.Now().Add(drainBudget)
		case time.Now().After(deadline):
			return fmt.Errorf("%d writes had not reached the sibling edge %v after the last request", left, drainBudget)
		}
	}
}
