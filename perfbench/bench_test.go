package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/crdt"
	"repro/internal/statesync"
)

func TestQuantileNearestRank(t *testing.T) {
	d := durations{5, 1, 4, 2, 3}
	for p, want := range map[float64]time.Duration{0.2: 1, 0.5: 3, 0.99: 5, 1: 5} {
		if got := d.quantile(p); got != want {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := (durations{}).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestShuffledKindsExactAndSeeded(t *testing.T) {
	a := shuffledKinds(rand.New(rand.NewSource(7)), 1000, []float64{0.3, 0.2, 0.5})
	b := shuffledKinds(rand.New(rand.NewSource(7)), 1000, []float64{0.3, 0.2, 0.5})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different sequences")
	}
	count := map[int]int{}
	for _, k := range a {
		count[k]++
	}
	if count[0] != 300 || count[1] != 200 || count[2] != 500 {
		t.Fatalf("kind counts = %v, want 300/200/500", count)
	}
}

func TestBookwormOpsPairUpdates(t *testing.T) {
	ops := bookwormOps(rand.New(rand.NewSource(1)), 400, 0.5, 0.05)
	var writes []string
	for _, o := range ops {
		if o.write {
			writes = append(writes, o.req.Path+" "+string(o.req.Body))
		}
	}
	if len(writes) != 200 {
		t.Fatalf("%d writes, want 200", len(writes))
	}
	for i := 0; i+1 < len(writes); i += 2 {
		co, ret := writes[i], writes[i+1]
		if co[:len("/checkout")] != "/checkout" || ret[:len("/return")] != "/return" ||
			co[len("/checkout"):] != ret[len("/return"):] {
			t.Fatalf("updates %d-%d are not a checkout/return pair of one book: %q, %q", i, i+1, co, ret)
		}
	}
}

func TestCovers(t *testing.T) {
	h := statesync.Heads{statesync.CompTables: crdt.VersionVector{"edge1/t": 4}}
	if !covers(h, []seenHead{{statesync.CompTables, "edge1/t", 4}}) {
		t.Error("heads at the write's sequence should cover it")
	}
	if covers(h, []seenHead{{statesync.CompTables, "edge1/t", 5}}) {
		t.Error("heads behind the write should not cover it")
	}
	if covers(h, []seenHead{{statesync.CompJSON, "edge1/j", 1}}) {
		t.Error("a component the peer has not seen should not cover")
	}
}
