package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/simclock"
	subjects "repro/internal/workload"
)

// Deployment settings shared by every workload.
const (
	edgeCount    = 2
	syncInterval = 100 * time.Millisecond
	fsyncPolicy  = durable.FsyncNever
	fsyncName    = "never"
	// settleBudget bounds every wait for convergence.
	settleBudget = 60 * time.Second
)

// stack is one transformed subject deployed as a cloud master and two
// edge replicas syncing over loopback TCP, with durable state under
// its own directory.
type stack struct {
	res *core.Result
	dep *core.Deployment
	dir string
	// phases times each set-up step.
	phases setupPhases
}

// setupPhases is the set-up time per step.
type setupPhases struct {
	capture, transform, deploy, preload, settle time.Duration
}

func (p setupPhases) total() time.Duration {
	return p.capture + p.transform + p.deploy + p.preload + p.settle
}

// setUp captures the subject's traffic, transforms it, deploys it,
// preloads the cloud and waits for the first convergence. With o set,
// capture and transform record into it.
func setUp(w workload, workdir string, o *obs.Obs) (*stack, error) {
	sub, err := subjects.ByName(w.subject)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if o != nil {
		ctx = obs.With(ctx, o)
	}
	st := &stack{}

	t := time.Now()
	app, err := sub.NewApp()
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", sub.Name, err)
	}
	records, err := core.CaptureTrafficContext(ctx, app, sub.RegressionVectors())
	if err != nil {
		return nil, fmt.Errorf("capturing %s: %w", sub.Name, err)
	}
	st.phases.capture = time.Since(t)

	t = time.Now()
	st.res, err = core.TransformContext(ctx, core.Input{
		Name: sub.Name, Source: sub.Source, Routes: sub.Routes(), Records: records,
	})
	if err != nil {
		return nil, fmt.Errorf("transforming %s: %w", sub.Name, err)
	}
	st.phases.transform = time.Since(t)

	t = time.Now()
	if st.dir, err = os.MkdirTemp(workdir, "deploy-"); err != nil {
		return nil, err
	}
	cfg := core.DefaultDeployConfig()
	cfg.EdgeSpecs = make([]cluster.DeviceSpec, edgeCount)
	for i := range cfg.EdgeSpecs {
		cfg.EdgeSpecs[i] = cluster.RPi4Spec
	}
	cfg.SyncInterval = syncInterval
	// Invoke does not move a server's connection count, so
	// least-connections would send everything to the first edge.
	cfg.Policy = cluster.RoundRobin
	cfg.Transport = core.TransportTCP
	cfg.Durability = core.DurabilityConfig{Dir: st.dir, Fsync: fsyncPolicy}
	st.dep, err = core.DeployContext(context.Background(), simclock.New(), st.res, cfg)
	if err != nil {
		_ = os.RemoveAll(st.dir)
		return nil, fmt.Errorf("deploying %s: %w", sub.Name, err)
	}
	st.phases.deploy = time.Since(t)

	t = time.Now()
	if err := st.preload(w.preloadRows); err != nil {
		st.tearDown()
		return nil, err
	}
	st.phases.preload = time.Since(t)

	t = time.Now()
	if err := st.settle(); err != nil {
		st.tearDown()
		return nil, err
	}
	st.phases.settle = time.Since(t)
	return st, nil
}

// preload adds books at the cloud through its serve path until the
// books table holds rows rows.
func (st *stack) preload(rows int) error {
	for id := 6; id <= rows; id++ {
		body := fmt.Sprintf(`{"title": "Book %d", "author": "Author %d", "stock": %d}`, id, id, bookStock)
		resp, _, err := st.dep.Cloud.Invoke(postReq("/books", []byte(body), nil))
		if err != nil {
			return fmt.Errorf("preloading book %d: %w", id, err)
		}
		var out struct {
			ID float64 `json:"id"`
		}
		if resp.Status != http.StatusOK || json.Unmarshal(resp.Body, &out) != nil || out.ID != float64(id) {
			return fmt.Errorf("preloading book %d: status %d body %s", id, resp.Status, resp.Body)
		}
	}
	return nil
}

// settle waits until every replica holds the cloud's state.
func (st *stack) settle() error {
	st.dep.SettleSync(settleBudget)
	if !st.dep.Converged() {
		return fmt.Errorf("replicas did not converge within %v", settleBudget)
	}
	return nil
}

// tearDown stops the deployment and deletes its durable state.
func (st *stack) tearDown() {
	st.dep.Stop()
	_ = os.RemoveAll(st.dir)
}
