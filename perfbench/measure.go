package main

import (
	"fmt"
	"os"
	"runtime"

	"repro/internal/obs"
)

// measurement pools what the deployments of one run observed.
type measurement struct {
	// lat is every request's recurrence latency, late its send
	// lateness; readSvc and writeSvc split the measured Invoke times;
	// lags is every write's replication lag.
	lat, late, readSvc, writeSvc, lags durations
	attempted, writes, failed          int
	firstFailure                       error
	// defect is the first failed replicated-state check: a defect of
	// the program.
	defect error
	// proc sums the process counters over the sending windows; stack
	// sums the deployment counters from the first request to the final
	// settle.
	proc     procCounters
	stack    counters
	heapPeak uint64
	setups   []setupPhases

	// Traced runs only: hook timings, the post-run probes, the cloud's
	// CRDT history length and the obs registry counts per deployment.
	trace              *tracer
	apply, pointSelect durations
	historyLen         []float64
	obsCounts          map[string][]float64
}

// minSetups is the least number of set-ups an untraced run times.
const minSetups = 8

// obsCounted are the obs registry counters a traced set-up reports.
var obsCounted = []string{"analysis.services", "datalog.iterations", "datalog.facts_derived"}

// runDeployments sets up w.deployments fresh deployments in turn and
// drives each with its consecutive share of ops. Every deployment
// starts its sync tickers at a new phase, which moves replication lag
// and the latency tail, so a run samples several of them. Without
// tracing, every deployment pools into plain; with tracing, the odd
// ones are traced and pool into traced, so both halves of the run see
// the same mix of state sizes and machine conditions.
func runDeployments(w workload, ops []op, cfg config) (plain, traced *measurement, err error) {
	newMeasurement := func() *measurement {
		return &measurement{stack: counters{}, obsCounts: map[string][]float64{}}
	}
	plain = newMeasurement()
	if cfg.trace {
		traced = newMeasurement()
		traced.trace = newTracer()
	}
	k := w.deployments
	for i := 0; i < k; i++ {
		m := plain
		var o *obs.Obs
		if traced != nil && i%2 == 1 {
			m, o = traced, obs.New()
		}
		st, err := setUp(w, cfg.workdir, o)
		if err != nil {
			return nil, nil, err
		}
		m.setups = append(m.setups, st.phases)
		err = m.segment(st, w, ops[i*len(ops)/k:(i+1)*len(ops)/k], o)
		st.tearDown()
		if err != nil {
			return nil, nil, err
		}
	}
	// setup_s is the median of at least minSetups set-ups: a workload
	// with fewer deployments sets up and tears down extra ones.
	for !cfg.trace && len(plain.setups) < minSetups {
		st, err := setUp(w, cfg.workdir, nil)
		if err != nil {
			return nil, nil, err
		}
		plain.setups = append(plain.setups, st.phases)
		st.tearDown()
	}
	for _, m := range []*measurement{plain, traced} {
		if m == nil {
			continue
		}
		if m.defect != nil {
			fmt.Fprintf(os.Stderr, "edgebench: %s: replicated state check failed: %v\n", w.name, m.defect)
		}
		if m.firstFailure != nil {
			fmt.Fprintf(os.Stderr, "edgebench: %s: %d of %d requests failed; first: %v\n", w.name, m.failed, m.attempted, m.firstFailure)
		}
	}
	return plain, traced, nil
}

// segment drives ops against one deployment, checks its final state
// and pools the observations. A traced segment also runs the post-run
// probes.
func (m *measurement) segment(st *stack, w workload, ops []op, o *obs.Obs) error {
	if m.trace != nil {
		for _, e := range st.dep.Edges {
			m.trace.install(e.Server)
		}
	}
	runtime.GC() // start from the same heap, not the previous deployment's garbage
	before := readCounters(st.dep)
	win, err := drive(st.dep, ops, w.rate)
	m.noteDefect(err)
	m.noteDefect(verify(st))
	m.stack.addGrowth(before, readCounters(st.dep))
	m.proc = m.proc.plus(win.proc[0], win.proc[1])
	if win.heapPeak > m.heapPeak {
		m.heapPeak = win.heapPeak
	}
	m.attempted += len(ops)
	m.failed += win.failed
	if m.firstFailure == nil {
		m.firstFailure = win.firstFailure
	}
	m.lags = append(m.lags, win.lags...)
	for _, s := range win.samples {
		m.lat = append(m.lat, s.lat)
		m.late = append(m.late, s.late)
		if s.write {
			m.writes++
			m.writeSvc = append(m.writeSvc, s.svc)
		} else {
			m.readSvc = append(m.readSvc, s.svc)
		}
	}
	if m.trace == nil || m.defect != nil {
		return nil
	}
	// The probes run after the state check: an apply rewrites the apps
	// from the CRDT state and would hide a divergence.
	apply, err := applyCost(st)
	if err != nil {
		return err
	}
	m.apply = append(m.apply, apply...)
	sel, err := pointSelectCost(st, w)
	if err != nil {
		return err
	}
	m.pointSelect = append(m.pointSelect, sel...)
	var history int
	st.dep.TCPMaster.Do(func() { history = st.dep.CloudState.HistoryLen() })
	m.historyLen = append(m.historyLen, float64(history))
	for _, name := range obsCounted {
		m.obsCounts[name] = append(m.obsCounts[name], float64(o.Counter(name).Value()))
	}
	return nil
}

func (m *measurement) noteDefect(err error) {
	if err != nil && m.defect == nil {
		m.defect = err
	}
}

// result is the run's correctness verdict and counts.
func (m *measurement) result() result {
	return result{Correct: m.defect == nil && m.failed == 0, Attempted: m.attempted, Failed: m.failed}
}

func (m *measurement) completed() float64 { return float64(m.attempted - m.failed) }

// cpuPerReq is process CPU over the sending windows per completed
// request, in microseconds.
func (m *measurement) cpuPerReq() float64 { return ratio(us(m.proc.cpu), m.completed()) }

// perWrite divides a deployment counter's growth by the writes sent.
func (m *measurement) perWrite(name string) float64 {
	return ratio(float64(m.stack[name]), float64(m.writes))
}

// setupSeconds is each deployment's total set-up time.
func (m *measurement) setupSeconds() []float64 {
	out := make([]float64, len(m.setups))
	for i, p := range m.setups {
		out[i] = p.total().Seconds()
	}
	return out
}

// detail is the run's sample counts and schedule check, for the
// provenance line.
func (m *measurement) detail() map[string]any {
	d := map[string]any{
		"requests":        m.attempted,
		"writes":          m.writes,
		"lag_samples":     len(m.lags),
		"failed":          m.failed,
		"setup_s_each":    m.setupSeconds(),
		"gen_late_p50_ms": ms(m.late.quantile(0.50)),
		"gen_late_p99_ms": ms(m.late.quantile(0.99)),
		"cpu_us_per_req":  m.cpuPerReq(),
		"lat_p50_ms":      ms(m.lat.quantile(0.50)),
		"state_check":     "ok",
		// Measured on every run but not a gated end-to-end metric: its
		// run-to-run spread on a shared two-CPU host exceeds any usable
		// bound (see README.md).
		"lat_p99_ms": ms(m.lat.quantile(0.99)),
	}
	if m.defect != nil {
		d["state_check"] = m.defect.Error()
	}
	if m.firstFailure != nil {
		d["first_failure"] = m.firstFailure.Error()
	}
	return d
}
