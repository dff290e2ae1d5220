package placement

import (
	"reflect"
	"testing"
)

func mustController(t *testing.T, th Thresholds, rules string) *Controller {
	t.Helper()
	c, err := New(th, rules)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func th() Thresholds { return Thresholds{HotRequests: 10, ColdRequests: 3} }

func TestParseRulesDefaultProgram(t *testing.T) {
	p, err := ParseRules(DefaultRulesText)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 8 {
		t.Fatalf("default program has %d rules, want 8", len(p.Rules))
	}
	if len(p.Facts) != 0 {
		t.Fatalf("default program asserts %d facts, want 0", len(p.Facts))
	}
}

func TestParseRulesSyntax(t *testing.T) {
	p, err := ParseRules(`
# facts with quoted constants survive spaces and commas
colocate("GET /a,b", "POST /c").
candidate(S, E) :- load(S, hot), edge(E).
keep(S,E) :- assigned(S,E),
	load(S, warm).
retract(S, E) :- assigned(S, E), load(S, cold).
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 3 || len(p.Facts) != 1 {
		t.Fatalf("rules=%d facts=%d, want 3/1", len(p.Rules), len(p.Facts))
	}
	if f := p.Facts[0]; f.Pred != "colocate" || f.Args[0] != "GET /a,b" || f.Args[1] != "POST /c" {
		t.Fatalf("fact = %+v", f)
	}

	for _, bad := range []string{
		"",                             // no rules
		"colocate(a, b).",              // facts only
		"p(X) :- .",                    // empty body
		"p(X).",                        // variable in fact
		"p :- q(X).",                   // head not an atom
		`p(X) :- q("unterminated).`,    // bad quote
		"p(X) :- q(a b).",              // unquoted constant with space
		"keep(S, E) :- assigned(S, E)", // missing terminator is fine...
		"keep() :- assigned(S, E).",    // empty args
	} {
		if bad == "keep(S, E) :- assigned(S, E)" {
			// A missing final '.' still parses (the last clause is
			// implicit); assert it does NOT error.
			if _, err := ParseRules(bad); err != nil {
				t.Fatalf("trailing clause without '.' rejected: %v", err)
			}
			continue
		}
		if _, err := ParseRules(bad); err == nil {
			t.Fatalf("ParseRules(%q) accepted", bad)
		}
	}
}

func TestDecidePromotesHotService(t *testing.T) {
	c := mustController(t, th(), "")
	d, err := c.Decide(Input{
		Services: []Service{{Name: "GET /books", Requests: 50}},
		Edges:    []Edge{{Name: "e1", Connected: true}, {Name: "e2", Connected: true}},
		Assigned: map[string][]string{},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Move{{Service: "GET /books", Edge: "e1"}, {Service: "GET /books", Edge: "e2"}}
	if !reflect.DeepEqual(d.Promote, want) {
		t.Fatalf("Promote = %v, want %v", d.Promote, want)
	}
	if len(d.Retract) != 0 {
		t.Fatalf("Retract = %v, want none", d.Retract)
	}
	if !reflect.DeepEqual(d.Next["e1"], []string{"GET /books"}) {
		t.Fatalf("Next[e1] = %v", d.Next["e1"])
	}
	if d.Stats.Rounds == 0 || d.Facts == 0 {
		t.Fatalf("stats empty: %+v facts=%d", d.Stats, d.Facts)
	}
}

func TestDecideRetractsColdService(t *testing.T) {
	c := mustController(t, th(), "")
	d, err := c.Decide(Input{
		Services: []Service{{Name: "s", Requests: 0}},
		Edges:    []Edge{{Name: "e1", Connected: true}},
		Assigned: map[string][]string{"e1": {"s"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []Move{{Service: "s", Edge: "e1"}}; !reflect.DeepEqual(d.Retract, want) {
		t.Fatalf("Retract = %v, want %v", d.Retract, want)
	}
	if len(d.Next["e1"]) != 0 {
		t.Fatalf("Next[e1] = %v, want empty", d.Next["e1"])
	}
}

// TestDecideHysteresis pins the warm band: a service that cooled from
// hot to warm keeps its assignment but gains no new edges, so small
// oscillations around the hot threshold cannot flap placement.
func TestDecideHysteresis(t *testing.T) {
	c := mustController(t, th(), "")
	d, err := c.Decide(Input{
		Services: []Service{{Name: "s", Requests: 5}}, // warm: 3 ≤ 5 < 10
		Edges:    []Edge{{Name: "e1", Connected: true}, {Name: "e2", Connected: true}},
		Assigned: map[string][]string{"e1": {"s"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Promote) != 0 || len(d.Retract) != 0 {
		t.Fatalf("warm service moved: promote=%v retract=%v", d.Promote, d.Retract)
	}
	if !reflect.DeepEqual(d.Next["e1"], []string{"s"}) || len(d.Next["e2"]) != 0 {
		t.Fatalf("Next = %v, want s pinned to e1 only", d.Next)
	}

	// The same warm service with no assignment stays unplaced — warm
	// alone never promotes.
	d2, err := c.Decide(Input{
		Services: []Service{{Name: "s", Requests: 5}},
		Edges:    []Edge{{Name: "e1", Connected: true}},
		Assigned: map[string][]string{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Promote) != 0 {
		t.Fatalf("warm unassigned service promoted: %v", d2.Promote)
	}
}

func TestDecideCapacityCap(t *testing.T) {
	c := mustController(t, th(), "")
	d, err := c.Decide(Input{
		Services: []Service{
			{Name: "a", Requests: 100},
			{Name: "b", Requests: 100},
			{Name: "c", Requests: 100},
		},
		Edges:    []Edge{{Name: "e1", Connected: true, Capacity: 2}},
		Assigned: map[string][]string{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Next["e1"]) != 2 {
		t.Fatalf("capacity 2 edge got %v", d.Next["e1"])
	}
	// Deterministic admission: sorted candidate order admits a, b.
	if !reflect.DeepEqual(d.Next["e1"], []string{"a", "b"}) {
		t.Fatalf("admission order = %v, want [a b]", d.Next["e1"])
	}

	// An edge already at capacity emits capacity(E, full): no candidates
	// at all, and existing assignments stay.
	d2, err := c.Decide(Input{
		Services: []Service{{Name: "a", Requests: 100}, {Name: "b", Requests: 100}, {Name: "c", Requests: 100}},
		Edges:    []Edge{{Name: "e1", Connected: true, Capacity: 2}},
		Assigned: map[string][]string{"e1": {"a", "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Promote) != 0 || !reflect.DeepEqual(d2.Next["e1"], []string{"a", "b"}) {
		t.Fatalf("full edge changed: promote=%v next=%v", d2.Promote, d2.Next["e1"])
	}
}

func TestDecideDeadAndOverBudgetEdgesShed(t *testing.T) {
	c := mustController(t, th(), "")
	d, err := c.Decide(Input{
		Services: []Service{{Name: "s", Requests: 100}},
		Edges: []Edge{
			{Name: "down", Connected: false},
			{Name: "hotbox", Connected: true, EnergyOver: true},
			{Name: "ok", Connected: true},
		},
		Assigned: map[string][]string{"down": {"s"}, "hotbox": {"s"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRetract := []Move{{Service: "s", Edge: "down"}, {Service: "s", Edge: "hotbox"}}
	if !reflect.DeepEqual(d.Retract, wantRetract) {
		t.Fatalf("Retract = %v, want %v", d.Retract, wantRetract)
	}
	// The hot service still lands on the healthy edge.
	if want := []Move{{Service: "s", Edge: "ok"}}; !reflect.DeepEqual(d.Promote, want) {
		t.Fatalf("Promote = %v, want %v", d.Promote, want)
	}
}

func TestDecideColocation(t *testing.T) {
	c := mustController(t, th(), "")
	d, err := c.Decide(Input{
		Services: []Service{
			{Name: "api", Requests: 100},
			{Name: "helper", Requests: 0}, // cold on its own
		},
		Edges:    []Edge{{Name: "e1", Connected: true}},
		Assigned: map[string][]string{},
		Colocate: [][2]string{{"api", "helper"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Next["e1"], []string{"api", "helper"}) {
		t.Fatalf("colocation ignored: Next[e1] = %v", d.Next["e1"])
	}
}

// TestDecideDeterministic runs the same mixed input repeatedly and
// requires identical decisions — placement must not depend on map
// iteration order.
func TestDecideDeterministic(t *testing.T) {
	c := mustController(t, th(), "")
	in := Input{
		Services: []Service{
			{Name: "a", Requests: 50}, {Name: "b", Requests: 50},
			{Name: "c", Requests: 5}, {Name: "d", Requests: 0},
		},
		Edges: []Edge{
			{Name: "e1", Connected: true, Capacity: 2},
			{Name: "e2", Connected: true, Capacity: 2},
			{Name: "e3", Connected: false},
		},
		Assigned: map[string][]string{"e1": {"c", "d"}, "e3": {"a"}},
	}
	first, err := c.Decide(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := c.Decide(in)
		if err != nil {
			t.Fatal(err)
		}
		again.Stats, again.Elapsed = first.Stats, first.Elapsed
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged:\nfirst: %+v\nagain: %+v", i, first, again)
		}
	}
}

// TestDecideCustomProgram swaps the policy: pin everything everywhere
// regardless of load.
func TestDecideCustomProgram(t *testing.T) {
	c := mustController(t, th(), `
candidate(S, E) :- service(S), edge(E), link(E, up).
keep(S, E) :- assigned(S, E), link(E, up).
`)
	d, err := c.Decide(Input{
		Services: []Service{{Name: "s", Requests: 0}},
		Edges:    []Edge{{Name: "e1", Connected: true}},
		Assigned: map[string][]string{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []Move{{Service: "s", Edge: "e1"}}; !reflect.DeepEqual(d.Promote, want) {
		t.Fatalf("custom program Promote = %v, want %v", d.Promote, want)
	}
}

func TestBandThresholds(t *testing.T) {
	c := mustController(t, Thresholds{HotRequests: 10, ColdRequests: 3, HotLatencyMS: 200}, "")
	cases := []struct {
		s    Service
		want string
	}{
		{Service{Name: "x", Requests: 10}, LoadHot},
		{Service{Name: "x", Requests: 9}, LoadWarm},
		{Service{Name: "x", Requests: 3}, LoadWarm},
		{Service{Name: "x", Requests: 2}, LoadCold},
		{Service{Name: "x", Requests: 0, P95LatencyMS: 250}, LoadHot}, // latency pressure
	}
	for _, tc := range cases {
		if got := c.Band(tc.s); got != tc.want {
			t.Fatalf("Band(%+v) = %s, want %s", tc.s, got, tc.want)
		}
	}
}
