package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/httpapp"
	"repro/internal/script"
)

// appState is one node's application-level replicated state.
type appState struct {
	// tables maps each tracked table to its rows, JSON-encoded in key
	// order (integer and float columns encode alike).
	tables map[string]string
	files  map[string]string
	// globals holds every synced global.
	globals map[string]any
}

func readAppState(app *httpapp.App, res *core.Result) (appState, error) {
	st := appState{tables: map[string]string{}, files: map[string]string{}, globals: map[string]any{}}
	dump := app.DB().Dump()
	for _, t := range res.Units.Tables {
		b, err := json.Marshal(dump[t])
		if err != nil {
			return st, fmt.Errorf("encoding table %s: %w", t, err)
		}
		st.tables[t] = string(b)
	}
	fs := app.FS()
	for _, p := range fs.List("") {
		b, err := fs.Read(p)
		if err != nil {
			return st, fmt.Errorf("reading %s: %w", p, err)
		}
		st.files[p] = string(b)
	}
	for _, g := range res.Units.GlobalsToSync() {
		if v, ok := app.Interp().GetGlobal(g); ok {
			st.globals[g] = v
		}
	}
	return st, nil
}

// diff describes the first difference between two nodes' states.
func (a appState) diff(b appState) string {
	for _, t := range sortedKeys(a.tables, b.tables) {
		if a.tables[t] != b.tables[t] {
			return "table " + t
		}
	}
	for _, p := range sortedKeys(a.files, b.files) {
		ca, oka := a.files[p]
		cb, okb := b.files[p]
		if oka != okb || ca != cb {
			return "file " + p
		}
	}
	for _, g := range sortedKeys(a.globals, b.globals) {
		if !script.Equal(a.globals[g], b.globals[g]) {
			return fmt.Sprintf("global %s (%v vs %v)", g, a.globals[g], b.globals[g])
		}
	}
	return ""
}

func sortedKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range []map[string]V{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// verify settles replication and requires the CRDT states to have
// converged and the cloud and every edge to hold equal tracked tables,
// files and synced globals. A failure here is a defect of the program.
func verify(st *stack) error {
	if err := st.settle(); err != nil {
		return err
	}
	dep := st.dep
	var cloud appState
	var err error
	dep.TCPMaster.Do(func() { cloud, err = readAppState(dep.Cloud.App, st.res) })
	if err != nil {
		return fmt.Errorf("cloud: %w", err)
	}
	for _, e := range dep.Edges {
		var edge appState
		e.TCP.Do(func() { edge, err = readAppState(e.Server.App, st.res) })
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if d := cloud.diff(edge); d != "" {
			return fmt.Errorf("CRDT states converged but the cloud and %s apps differ in %s", e.Name, d)
		}
	}
	return nil
}
