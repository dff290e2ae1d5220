package core

import (
	"testing"
	"time"

	"repro/internal/httpapp"
	"repro/internal/simclock"
	"repro/internal/statesync"
	"repro/internal/workload"
)

// TestDeployTCPTransportConverges deploys with the real TCP transport:
// edge invocations execute under the per-edge connection lock, deltas
// cross loopback sockets in real time, and the deployment converges
// and reports per-edge transport state in its Observation.
func TestDeployTCPTransportConverges(t *testing.T) {
	res := transformSubject(t, "sensor-hub")
	clock := simclock.New()
	cfg := DefaultDeployConfig()
	cfg.EdgeSpecs = cfg.EdgeSpecs[:2]
	cfg.Transport = TransportTCP
	cfg.TCP.Interval = 10 * time.Millisecond
	d, err := Deploy(clock, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if d.Sync != nil {
		t.Fatal("virtual-time manager should not run under TransportTCP")
	}
	if d.TCPMaster == nil || d.Edges[0].TCP == nil || d.Edges[1].TCP == nil {
		t.Fatal("TCP transport handles missing")
	}

	sub, err := workload.ByName("sensor-hub")
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for i := 0; i < 5; i++ {
		d.HandleAtEdge(sub.SampleRequest(0, i, 17), func(_ *httpapp.Response, err error) {
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			served++
		})
		clock.RunUntil(clock.Now() + time.Second)
	}
	if served != 5 {
		t.Fatalf("served %d of 5", served)
	}

	d.SettleSync(15 * time.Second) // wall clock in TCP mode
	if !d.Converged() {
		t.Fatal("no convergence over the TCP transport")
	}
	// SettleSync polls the heads first: settled replicas hold the same.
	if !d.headsMatch() {
		t.Fatal("settled replicas report unequal heads")
	}
	// The cloud's live database received the edge writes through the
	// socket path, not the virtual-time manager.
	var rows int
	var rowErr error
	d.TCPMaster.Do(func() {
		rows, rowErr = d.Cloud.App.DB().RowCount("readings")
	})
	if rowErr != nil || rows != 5 {
		t.Fatalf("cloud rows = %d, %v; want 5", rows, rowErr)
	}

	ob := Observe(d)
	if len(ob.Transport) != 2 {
		t.Fatalf("transport observations = %d, want 2", len(ob.Transport))
	}
	for _, tr := range ob.Transport {
		if tr.State != string(statesync.ConnConnected) {
			t.Fatalf("edge %s state = %q, want connected", tr.Name, tr.State)
		}
		if tr.BytesSent == 0 || tr.BytesReceived == 0 {
			t.Fatalf("edge %s moved no traffic: %+v", tr.Name, tr)
		}
	}
	if !ob.Converged {
		t.Fatal("observation does not report convergence")
	}

	d.Stop()
	if st := d.Edges[0].TCP.Status(); st.State != statesync.ConnDisconnected {
		t.Fatalf("edge state after Stop = %q, want disconnected", st.State)
	}
}

// TestDeployTCPTransportDefaultsInterval pins the config plumbing: a
// zero TCP.Interval inherits SyncInterval, and deploys cleanly.
func TestDeployTCPTransportDefaultsInterval(t *testing.T) {
	res := transformSubject(t, "sensor-hub")
	cfg := DefaultDeployConfig()
	cfg.EdgeSpecs = cfg.EdgeSpecs[:1]
	cfg.SyncInterval = 20 * time.Millisecond
	cfg.Transport = TransportTCP
	d, err := Deploy(simclock.New(), res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.SettleSync(10 * time.Second)
	if !d.Converged() {
		t.Fatal("quiescent TCP deployment should be trivially converged")
	}
	d.Stop()
}
