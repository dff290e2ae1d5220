package statesync

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/crdt"
	"repro/internal/httpapp"
	"repro/internal/obs"
	"repro/internal/script"
	"repro/internal/sqldb"
	"repro/internal/vfs"
)

// Binding connects a live service instance to its replicated state —
// the role of the CRDT templates the paper's transformation weaves into
// the identified statements. Outbound: committed SQL mutations, file
// writes, and global-variable changes are mirrored into the CRDT
// components. Inbound: remote changes are pushed into the running
// database, filesystem, and interpreter (with hooks muted so inbound
// state is not echoed back out).
type Binding struct {
	app   *httpapp.App
	state *ReplicaState
	units analysis.StateUnits

	trackedTables map[string]bool
	trackedFiles  bool
	synced        map[string]bool // globals the units sync
	lastGlobals   map[string]any

	// errMu guards the outbound-mirror failure record. The mutation
	// hooks run synchronously under the app's db/fs locks but may fire
	// from both the invocation path and test harnesses, so the record
	// keeps its own lock.
	errMu       sync.Mutex
	applyErrors int64
	firstErr    error
	// applyErrCounter mirrors failures into an observability registry
	// (nil-safe no-op until SetObs).
	applyErrCounter *obs.Counter
}

// SetObs mirrors the binding's outbound mutation-apply failures into
// the registry as the "statesync.bind.apply_errors.<node>" counter (see
// OBSERVABILITY.md). A nil Obs disables mirroring.
func (b *Binding) SetObs(o *obs.Obs, node string) {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	b.applyErrCounter = o.Counter("statesync.bind.apply_errors." + node)
}

// noteApplyErr records one failed outbound mirror operation: the first
// error is kept verbatim (later ones are usually the same root cause),
// and every failure bumps the count and the registry counter. A replica
// whose app DB diverged from its CRDT state is no longer silent.
func (b *Binding) noteApplyErr(err error) {
	if err == nil {
		return
	}
	b.errMu.Lock()
	if b.firstErr == nil {
		b.firstErr = err
	}
	b.applyErrors++
	c := b.applyErrCounter
	b.errMu.Unlock()
	c.Add(1)
}

// ApplyErrors reports how many outbound mutation mirrors have failed
// since Bind, along with the first failure (nil when none). Mutations
// that fail to mirror are lost to the CRDT components — a nonzero count
// means this replica's app state may have diverged from what it
// replicates.
func (b *Binding) ApplyErrors() (int64, error) {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return b.applyErrors, b.firstErr
}

// Bind wires the app to the replicated state, seeding the CRDT
// components from the app's current contents for the tracked units.
// Use it on the cloud master, whose app holds the authoritative state.
func Bind(app *httpapp.App, state *ReplicaState, units analysis.StateUnits) (*Binding, error) {
	return bind(app, state, units, true)
}

// BindReplica wires an edge replica to state forked from the cloud
// snapshot: instead of seeding the CRDT from the (empty) replica app, it
// pushes the snapshot state into the app — the paper's "each edge node
// initializes its CRDT data structure with a passed state snapshot".
func BindReplica(app *httpapp.App, state *ReplicaState, units analysis.StateUnits) (*Binding, error) {
	return bind(app, state, units, false)
}

func bind(app *httpapp.App, state *ReplicaState, units analysis.StateUnits, seed bool) (*Binding, error) {
	b := &Binding{
		app:           app,
		state:         state,
		units:         units,
		trackedTables: map[string]bool{},
		synced:        map[string]bool{},
		lastGlobals:   map[string]any{},
	}
	for _, t := range units.Tables {
		b.trackedTables[t] = true
	}
	for _, g := range units.GlobalsToSync() {
		b.synced[g] = true
	}
	b.trackedFiles = len(units.Files) > 0 || len(units.FileStmts) > 0

	// A row of a table without a primary key replicates under the key
	// its DB minted; scoping minted keys to this replica's table actor
	// keeps two replicas' concurrent inserts from landing on one key.
	app.DB().SetKeyScope(string(state.Tables.Doc().Actor()))
	app.DB().OnMutation(func(m sqldb.Mutation) {
		if !b.trackedTables[m.Table] {
			return
		}
		// Mirror the committed row change into CRDT-Table. A failure at
		// any step loses the mutation for replication, so it must be
		// recorded — a silently dropped mirror diverges the replica from
		// its app DB with zero signal.
		if err := b.state.Tables.EnsureTable(m.Table); err != nil {
			b.noteApplyErr(fmt.Errorf("statesync: bind: ensure table %q: %w", m.Table, err))
			return
		}
		switch m.Kind {
		case sqldb.MutDelete:
			if err := b.state.Tables.DeleteRow(m.Table, m.Key); err != nil {
				b.noteApplyErr(fmt.Errorf("statesync: bind: delete %s/%s: %w", m.Table, m.Key, err))
			}
		default:
			if err := b.state.Tables.UpsertRow(m.Table, m.Key, normalizeCols(m.Cols)); err != nil {
				b.noteApplyErr(fmt.Errorf("statesync: bind: upsert %s/%s: %w", m.Table, m.Key, err))
			}
		}
	})
	app.FS().OnMutation(func(a vfs.Access) {
		if !b.trackedFiles {
			return
		}
		switch a.Kind {
		case vfs.AccessWrite:
			// a.Content carries the written bytes; the hook must not
			// call back into the locked filesystem.
			if err := b.state.Files.Write(a.Path, a.Content); err != nil {
				b.noteApplyErr(fmt.Errorf("statesync: bind: file write %q: %w", a.Path, err))
			}
		case vfs.AccessRemove:
			if err := b.state.Files.Remove(a.Path); err != nil {
				b.noteApplyErr(fmt.Errorf("statesync: bind: file remove %q: %w", a.Path, err))
			}
		}
	})
	if seed {
		// Seed: current table rows, files, and globals.
		if err := b.seed(); err != nil {
			return nil, err
		}
		return b, nil
	}
	// Replica path: load the snapshot state into the app.
	if err := b.PushIntoApp(); err != nil {
		return nil, err
	}
	return b, nil
}

// normalizeCols converts sqldb values to CRDT scalars.
func normalizeCols(cols map[string]any) map[string]any {
	out := make(map[string]any, len(cols))
	for k, v := range cols {
		if i, ok := v.(int64); ok {
			out[k] = float64(i)
			continue
		}
		out[k] = v
	}
	return out
}

func (b *Binding) seed() error {
	dump := b.app.DB().Dump()
	names := make([]string, 0, len(dump))
	for name := range dump {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !b.trackedTables[name] {
			continue
		}
		if err := b.state.Tables.EnsureTable(name); err != nil {
			return err
		}
	}
	// Replay current rows through SQL SELECT to get keys: use the dump
	// plus key recovery via a full SELECT per table.
	for _, name := range names {
		if !b.trackedTables[name] {
			continue
		}
		rows, keys, err := tableRows(b.app.DB(), name)
		if err != nil {
			return err
		}
		for i, row := range rows {
			if err := b.state.Tables.UpsertRow(name, keys[i], normalizeCols(row)); err != nil {
				return err
			}
		}
	}
	if b.trackedFiles {
		for _, p := range b.app.FS().List("") {
			content, err := b.app.FS().Read(p)
			if err != nil {
				continue
			}
			if err := b.state.Files.Write(p, content); err != nil {
				return err
			}
		}
	}
	return b.MirrorGlobals()
}

// tableRows returns a table's rows along with their primary keys.
func tableRows(db *sqldb.DB, table string) ([]map[string]any, []string, error) {
	res, err := db.Exec("SELECT * FROM " + table)
	if err != nil {
		return nil, nil, err
	}
	keys := make([]string, len(res.Rows))
	rows := make([]map[string]any, len(res.Rows))
	pk := primaryKeyCol(res.Cols, res.Rows)
	for i, r := range res.Rows {
		rows[i] = r
		if pk != "" {
			keys[i] = fmt.Sprint(r[pk])
		} else {
			keys[i] = fmt.Sprintf("_row%d", i)
		}
	}
	return rows, keys, nil
}

// primaryKeyCol guesses the key column: "id" if present, else the first
// column.
func primaryKeyCol(cols []string, rows []sqldb.Row) string {
	for _, c := range cols {
		if strings.EqualFold(c, "id") {
			return c
		}
	}
	if len(cols) > 0 {
		return cols[0]
	}
	_ = rows
	return ""
}

// MirrorGlobals copies changed tracked globals into CRDT-JSON. The
// replica runtime calls it after every service invocation — the analog
// of the generated set-accessor instrumentation.
func (b *Binding) MirrorGlobals() error {
	for _, name := range b.units.GlobalsToSync() {
		cur, ok := b.app.Interp().GetGlobal(name)
		if !ok {
			continue
		}
		if prev, seen := b.lastGlobals[name]; seen && script.Equal(prev, cur) {
			continue
		}
		b.lastGlobals[name] = script.DeepCopy(cur)
		if err := putGlobal(b.state, name, cur); err != nil {
			return err
		}
	}
	return nil
}

// globalPrefix marks the JSON component's root keys that hold synced
// globals.
const globalPrefix = "g:"

func putGlobal(state *ReplicaState, name string, v any) error {
	return state.JSON.PutGo(crdt.RootObj, globalPrefix+name, goValue(v))
}

// ApplyRemote integrates a delta and pushes the resulting state into the
// running app, with mutation hooks muted.
func (b *Binding) ApplyRemote(d Delta) error {
	_, err := b.ApplyRemoteCount(d)
	return err
}

// ApplyRemoteCount is ApplyRemote reporting how many changes the CRDT
// layer actually integrated (duplicates are ignored and not counted).
// Only the keys the integrated changes touched are pushed into the app,
// each from its final CRDT value, so the cost follows the delta, not
// the replicated state; a delta that integrates nothing leaves the app
// alone. When integration fails part-way, what was integrated is still
// pushed before the error returns.
func (b *Binding) ApplyRemoteCount(d Delta) (int, error) {
	n, touched, err := b.state.ApplyCount(d)
	if touched.Empty() {
		return n, err
	}
	if perr := b.pushTouched(touched); err == nil {
		err = perr
	}
	return n, err
}

// pushTouched brings the app's copy of every touched key up to date.
func (b *Binding) pushTouched(t *Touched) error {
	defer b.mute()()
	rebuilt := make(map[string]bool, len(t.Tables))
	for _, name := range t.Tables {
		if !b.trackedTables[name] {
			continue
		}
		rebuilt[name] = true
		if err := b.pushTable(name); err != nil {
			return err
		}
	}
	for _, r := range t.Rows {
		if !b.trackedTables[r.Table] || rebuilt[r.Table] {
			continue
		}
		if err := b.pushRow(r.Table, r.Row); err != nil {
			return err
		}
	}
	if b.trackedFiles {
		for _, p := range t.Files {
			if err := b.pushFile(p); err != nil {
				return err
			}
		}
	}
	for _, k := range t.JSON {
		if name, ok := strings.CutPrefix(k, globalPrefix); ok && b.synced[name] {
			if err := b.pushGlobal(name); err != nil {
				return err
			}
		}
	}
	return nil
}

// PushIntoApp materializes the whole CRDT state into the live database,
// filesystem, and interpreter globals: every tracked table is rebuilt in
// row-key order, every file written, and files and globals whose CRDT
// entry was deleted are removed. BindReplica runs it once; afterwards
// ApplyRemoteCount pushes only what each delta touched.
func (b *Binding) PushIntoApp() error {
	defer b.mute()()
	for _, name := range b.state.Tables.TableNames() {
		if !b.trackedTables[name] {
			continue
		}
		if err := b.pushTable(name); err != nil {
			return err
		}
	}
	if b.trackedFiles {
		for _, paths := range [][]string{b.state.Files.Paths(), b.state.Files.Removed()} {
			for _, p := range paths {
				if err := b.pushFile(p); err != nil {
					return err
				}
			}
		}
	}
	deleted := map[string]bool{}
	for _, k := range b.state.JSON.MapTombstones(crdt.RootObj) {
		deleted[k] = true
	}
	for _, name := range b.units.GlobalsToSync() {
		// A global the CRDT never held keeps the app's own value.
		if _, ok := b.state.JSON.MapGet(crdt.RootObj, globalPrefix+name); !ok && !deleted[globalPrefix+name] {
			continue
		}
		if err := b.pushGlobal(name); err != nil {
			return err
		}
	}
	return nil
}

// mute suppresses the app's mutation hooks, so pushed state is not
// mirrored back out, and returns the function that restores them.
func (b *Binding) mute() func() {
	db, fs := b.app.DB(), b.app.FS()
	db.SetMuted(true)
	fs.SetMuted(true)
	return func() {
		db.SetMuted(false)
		fs.SetMuted(false)
	}
}

// ensureTable creates a table the app has not declared, keyed like the
// CRDT rows it will hold.
func (b *Binding) ensureTable(name string) error {
	_, err := b.app.DB().Exec("CREATE TABLE IF NOT EXISTS " + name + " (id INT PRIMARY KEY)")
	return err
}

// pushTable replaces a table's rows with the CRDT's, in row-key order.
func (b *Binding) pushTable(name string) error {
	if err := b.ensureTable(name); err != nil {
		return err
	}
	db := b.app.DB()
	if _, err := db.Exec("DELETE FROM " + name); err != nil {
		return err
	}
	for _, key := range b.state.Tables.RowKeys(name) {
		if row, ok := b.state.Tables.Row(name, key); ok {
			if err := db.PutRow(name, key, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// pushRow copies one row's final CRDT value into the database under its
// CRDT key, or removes the row the CRDT deleted.
func (b *Binding) pushRow(table, key string) error {
	db := b.app.DB()
	row, ok := b.state.Tables.Row(table, key)
	if !ok {
		db.RemoveRow(table, key)
		return nil
	}
	err := db.PutRow(table, key, row)
	if errors.Is(err, sqldb.ErrNoTable) {
		if err := b.ensureTable(table); err != nil {
			return err
		}
		err = db.PutRow(table, key, row)
	}
	return err
}

// pushFile writes a file's CRDT content when the app's copy differs, or
// removes the file the CRDT deleted.
func (b *Binding) pushFile(p string) error {
	fs := b.app.FS()
	content, ok := b.state.Files.Read(p)
	if !ok {
		if fs.Exists(p) {
			return fs.Remove(p)
		}
		return nil
	}
	if cur, err := fs.Read(p); err == nil && bytes.Equal(cur, content) {
		return nil
	}
	return fs.Write(p, content)
}

// pushGlobal sets a synced global to its CRDT value, or deletes it from
// the interpreter when the CRDT holds none, and records what was pushed
// so MirrorGlobals does not echo it back.
func (b *Binding) pushGlobal(name string) error {
	v, ok := b.state.JSON.MapGet(crdt.RootObj, globalPrefix+name)
	if !ok {
		b.app.Interp().DeleteGlobal(name)
		delete(b.lastGlobals, name)
		return nil
	}
	var sv any
	if v.Kind == crdt.ValObj { // materialize the nested object
		m, err := b.state.JSON.Materialize(v.Obj)
		if err != nil {
			return err
		}
		sv = scriptValue(m)
	} else {
		sv = scriptValue(v.ToGo())
	}
	b.app.Interp().SetGlobal(name, sv)
	b.lastGlobals[name] = script.DeepCopy(sv)
	return nil
}
