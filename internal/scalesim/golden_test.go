package scalesim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSmokeRowsGolden runs the CI smoke sweep (1k clients, 8 edges, 2
// relay groups, seed 42) and compares both rows field for field with
// the recorded ones. The rows fix the traffic each topology moves —
// every encoded change carries its actor ID, so byte counts pin the
// replica names as well as the protocol. The file is the `.rows` array
// of `edgesim -scale -clients 1000 -scaleedges 8 -scalegroups 2 -seed 42`.
func TestSmokeRowsGolden(t *testing.T) {
	rep, err := Bench(BenchConfig{Clients: 1000, EdgePoints: []int{8}, Groups: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "smoke_rows.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []*Result
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(rep.Rows) {
		t.Fatalf("got %d rows, want %d", len(rep.Rows), len(want))
	}
	for i, got := range rep.Rows {
		g, w := reflect.ValueOf(*got), reflect.ValueOf(*want[i])
		for f := 0; f < g.NumField(); f++ {
			if !reflect.DeepEqual(g.Field(f).Interface(), w.Field(f).Interface()) {
				t.Errorf("row %d (%s) %s = %v, want %v", i, got.Mode,
					g.Type().Field(f).Name, g.Field(f).Interface(), w.Field(f).Interface())
			}
		}
	}
}
