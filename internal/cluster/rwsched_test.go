package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/httpapp"
	"repro/internal/simclock"
)

// statSrc has a conditional write on an argument the static classifier
// flags — the scheduler tests force it read-only to exercise the
// mispredict fallback.
const statSrc = `
var count = 0

func stat(req any, res any) any {
	if req.param("mode") == "write" {
		count = count + 1
	}
	res.send(map[string]any{"count": count})
	return nil
}`

var statRoutes = []httpapp.Route{{Method: "GET", Path: "/stat", Handler: "stat"}}

func newStatServer(t testing.TB, readOnly func(*httpapp.Request, *httpapp.Match) bool) *Server {
	t.Helper()
	app, err := httpapp.New("stat", statSrc, statRoutes)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer("stat", NewNode(simclock.New(), CloudSpec), app)
	srv.ReadOnly = readOnly
	return srv
}

func statReq(mode string) *httpapp.Request {
	q := map[string]string{}
	if mode != "" {
		q["mode"] = mode
	}
	return &httpapp.Request{Method: "GET", Path: "/stat", Query: q}
}

func TestSchedulerMispredictFallback(t *testing.T) {
	// Misclassify everything as read-only: writes must abort on the
	// guard and re-run exactly once on the exclusive path.
	srv := newStatServer(t, func(*httpapp.Request, *httpapp.Match) bool { return true })
	resp, _, err := srv.Invoke(statReq("write"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != `{"count":1}` {
		t.Fatalf("body = %s (write applied %s times?)", resp.Body, resp.Body)
	}
	read, write, mis := srv.RWStats()
	if read != 0 || write != 1 || mis != 1 {
		t.Fatalf("rw stats = %d/%d/%d, want 0/1/1", read, write, mis)
	}
	// A genuine read stays on the shared path.
	if _, _, err := srv.Invoke(statReq("")); err != nil {
		t.Fatal(err)
	}
	read, write, mis = srv.RWStats()
	if read != 1 || write != 1 || mis != 1 {
		t.Fatalf("rw stats after read = %d/%d/%d, want 1/1/1", read, write, mis)
	}
}

func TestSchedulerDifferentialAgainstSerialized(t *testing.T) {
	// The same request sequence through a fully serialized server and a
	// scheduler server (with a deliberately wrong classifier) must yield
	// byte-identical responses at every step.
	serialized := newStatServer(t, nil)
	scheduled := newStatServer(t, func(*httpapp.Request, *httpapp.Match) bool { return true })
	seq := []string{"", "write", "", "write", "write", "", ""}
	for i, mode := range seq {
		r1, c1, err1 := serialized.Invoke(statReq(mode))
		r2, c2, err2 := scheduled.Invoke(statReq(mode))
		if err1 != nil || err2 != nil {
			t.Fatalf("step %d: errs %v / %v", i, err1, err2)
		}
		if !bytes.Equal(r1.Body, r2.Body) || r1.Status != r2.Status {
			t.Fatalf("step %d (%q): serialized %s vs scheduled %s", i, mode, r1.Body, r2.Body)
		}
		if c1 != c2 {
			t.Fatalf("step %d (%q): cost %v vs %v", i, mode, c1, c2)
		}
	}
	_, write, mis := scheduled.RWStats()
	if mis != 3 || write != 3 {
		t.Fatalf("scheduled write/mispredict = %d/%d, want 3/3", write, mis)
	}
}

func TestSchedulerConcurrentMispredicts(t *testing.T) {
	// Readers and misclassified writers race through the scheduler; the
	// write guard plus exclusive fallback must keep the final count
	// exactly equal to the number of writes. The app's RWMutex is the
	// only coordination — run under -race this is the satellite's
	// correctness sweep.
	srv := newStatServer(t, func(*httpapp.Request, *httpapp.Match) bool { return true })
	const writers, readers, perWorker = 4, 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, _, err := srv.Invoke(statReq("write")); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, _, err := srv.Invoke(statReq("")); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	resp, _, err := srv.Invoke(statReq(""))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`{"count":%d}`, writers*perWorker)
	if string(resp.Body) != want {
		t.Fatalf("final state %s, want %s", resp.Body, want)
	}
	_, _, mis := srv.RWStats()
	if mis != writers*perWorker {
		t.Fatalf("mispredicts = %d, want %d", mis, writers*perWorker)
	}
}

func TestBalancerNoRoutableServer(t *testing.T) {
	for _, policy := range []Policy{LeastConnections, RoundRobin} {
		empty := NewBalancer(policy)
		if s, err := empty.Pick(); s != nil || !errors.Is(err, ErrNoActiveServer) {
			t.Fatalf("policy %v empty: %v, %v", policy, s, err)
		}
		clock := simclock.New()
		var servers []*Server
		for i := 0; i < 3; i++ {
			servers = append(servers, NewServer(fmt.Sprintf("s%d", i), NewNode(clock, RPi4Spec), newWorkApp(t)))
		}
		b := NewBalancer(policy, servers...)
		for _, s := range servers {
			s.Node.SetActive(false)
		}
		if s, err := b.Pick(); s != nil || !errors.Is(err, ErrNoActiveServer) {
			t.Fatalf("policy %v all-parked: %v, %v", policy, s, err)
		}
		if s, err := b.PickWhere(func(*Server) bool { return true }); s != nil || !errors.Is(err, ErrNoActiveServer) {
			t.Fatalf("policy %v all-parked PickWhere: %v, %v", policy, s, err)
		}
	}
}

// TestPickWhereEdgeCases covers the balancer's empty and exhausted
// candidate sets under both policies: no servers at all, every server
// parked, and a predicate rejecting everything.
func TestPickWhereEdgeCases(t *testing.T) {
	clock := simclock.New()
	anyServer := func(*Server) bool { return true }
	for _, policy := range []Policy{LeastConnections, RoundRobin} {
		empty := NewBalancer(policy)
		if _, err := empty.PickWhere(anyServer); !errors.Is(err, ErrNoActiveServer) {
			t.Fatalf("policy %v: empty balancer: err = %v, want ErrNoActiveServer", policy, err)
		}

		servers := []*Server{
			NewServer("s0", NewNode(clock, RPi4Spec), newWorkApp(t)),
			NewServer("s1", NewNode(clock, RPi4Spec), newWorkApp(t)),
		}
		b := NewBalancer(policy, servers...)
		for _, s := range servers {
			s.Node.SetActive(false)
		}
		if _, err := b.PickWhere(anyServer); !errors.Is(err, ErrNoActiveServer) {
			t.Fatalf("policy %v: all-parked: err = %v, want ErrNoActiveServer", policy, err)
		}
		servers[0].Node.SetActive(true)
		if s, err := b.PickWhere(anyServer); err != nil || s != servers[0] {
			t.Fatalf("policy %v: unparked server not picked (err=%v)", policy, err)
		}
		servers[1].Node.SetActive(true)
		if _, err := b.PickWhere(func(*Server) bool { return false }); !errors.Is(err, ErrNoActiveServer) {
			t.Fatalf("policy %v: reject-all predicate: err = %v, want ErrNoActiveServer", policy, err)
		}
	}
}

func TestRoundRobinSkipsParkedKeepsRotation(t *testing.T) {
	clock := simclock.New()
	var servers []*Server
	for i := 0; i < 3; i++ {
		servers = append(servers, NewServer(fmt.Sprintf("s%d", i), NewNode(clock, RPi4Spec), newWorkApp(t)))
	}
	b := NewBalancer(RoundRobin, servers...)
	pick := func() *Server {
		s, err := b.Pick()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Full rotation first.
	if pick() != servers[0] || pick() != servers[1] || pick() != servers[2] {
		t.Fatal("initial rotation broken")
	}
	// Park s1: rotation alternates s0/s2 without skipping either.
	servers[1].Node.SetActive(false)
	got := []*Server{pick(), pick(), pick(), pick()}
	want := []*Server{servers[0], servers[2], servers[0], servers[2]}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parked rotation pick %d = %s, want %s", i, got[i].Name, want[i].Name)
		}
	}
	// Unpark: rotation resumes from the last chosen slot (s2 was the
	// last pick, so s0, then s1 rejoins in order).
	servers[1].Node.SetActive(true)
	if pick() != servers[0] || pick() != servers[1] || pick() != servers[2] {
		t.Fatal("rotation lost position after unparking")
	}
}

func TestActiveConnsReadableMidFlight(t *testing.T) {
	// A controller may read connection counts from its own goroutine
	// while requests are in flight; under -race this fails if conns is
	// not atomic.
	clock := simclock.New()
	srv := NewServer("s", NewNode(clock, CloudSpec), newWorkApp(t))
	b := NewBalancer(LeastConnections, srv)
	stop := make(chan struct{})
	var observer sync.WaitGroup
	observer.Add(1)
	go func() {
		defer observer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = srv.ActiveConns()
				_ = b.TotalConns()
			}
		}
	}()
	for i := 0; i < 200; i++ {
		srv.Handle(workReq("10"), nil2)
	}
	clock.Run()
	close(stop)
	observer.Wait()
	if srv.ActiveConns() != 0 {
		t.Fatalf("conns = %d after drain", srv.ActiveConns())
	}
}

func nil2(*httpapp.Response, time.Duration, error) {}
