package crdt

import (
	"fmt"
	"sort"
)

// Table is the paper's CRDT-Table: replicated relational state. Each
// table is a map of rows keyed by primary key; each row is a map of
// column values resolved last-writer-wins per cell. The transformation
// rewrites the SQL statements it identified in the service into calls on
// this type.
//
// Structural containers (the tables themselves) must be created on the
// master before replicas are forked from its snapshot, mirroring how
// EdgStr initializes every replica from the same cloud snapshot. Rows and
// cells may then be mutated concurrently at any replica.
type Table struct {
	doc    *Doc
	tables ObjID
}

const tablesKey = "tables"

// NewTable returns an empty replicated table store for the given actor.
func NewTable(actor ActorID) (*Table, error) {
	doc := NewDoc(actor)
	id, err := doc.PutNewMap(RootObj, tablesKey)
	if err != nil {
		return nil, err
	}
	return &Table{doc: doc, tables: id}, nil
}

// TableFromDoc wraps an existing document (e.g. one produced by Fork or
// Load) as a table store.
func TableFromDoc(doc *Doc) (*Table, error) {
	v, ok := doc.MapGet(RootObj, tablesKey)
	if !ok || v.Kind != ValObj {
		return nil, fmt.Errorf("crdt: document has no %q container", tablesKey)
	}
	return &Table{doc: doc, tables: v.Obj}, nil
}

// Doc exposes the underlying document for synchronization.
func (t *Table) Doc() *Doc { return t.doc }

// Fork snapshots the store for a new replica actor.
func (t *Table) Fork(actor ActorID) (*Table, error) {
	nd, err := t.doc.Fork(actor)
	if err != nil {
		return nil, err
	}
	return TableFromDoc(nd)
}

// EnsureTable creates the named table if it does not exist.
func (t *Table) EnsureTable(name string) error {
	if _, ok := t.doc.MapGet(t.tables, name); ok {
		return nil
	}
	_, err := t.doc.PutNewMap(t.tables, name)
	return err
}

// tableObj returns the object ID of the named table.
func (t *Table) tableObj(name string) (ObjID, error) {
	v, ok := t.doc.MapGet(t.tables, name)
	if !ok || v.Kind != ValObj {
		return "", fmt.Errorf("crdt: table %q does not exist", name)
	}
	return v.Obj, nil
}

// TableNames returns the existing table names, sorted.
func (t *Table) TableNames() []string { return t.doc.MapKeys(t.tables) }

// UpsertRow writes the given columns of row key in the named table,
// creating the row as needed. Only the provided columns that change are
// touched: a column already holding an equal value costs no op, so an
// UPDATE of one cell ships one op and cannot overwrite a sibling
// replica's concurrent edit of another column.
func (t *Table) UpsertRow(table, key string, cols map[string]any) error {
	tid, err := t.tableObj(table)
	if err != nil {
		return err
	}
	var rid ObjID
	if v, ok := t.doc.MapGet(tid, key); ok && v.Kind == ValObj {
		rid = v.Obj
	} else {
		rid, err = t.doc.PutNewMap(tid, key)
		if err != nil {
			return err
		}
	}
	names := make([]string, 0, len(cols))
	for c := range cols {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		if cur, ok := t.doc.MapGet(rid, c); ok {
			if val, err := Scalar(cols[c]); err == nil && cur.Equal(val) {
				continue
			}
		}
		if err := t.doc.PutScalar(rid, c, cols[c]); err != nil {
			return fmt.Errorf("crdt: column %q: %w", c, err)
		}
	}
	return nil
}

// DeleteRow removes row key from the named table.
func (t *Table) DeleteRow(table, key string) error {
	tid, err := t.tableObj(table)
	if err != nil {
		return err
	}
	if _, ok := t.doc.MapGet(tid, key); !ok {
		return nil
	}
	return t.doc.Delete(tid, key)
}

// Row returns the named row's columns as Go scalars.
func (t *Table) Row(table, key string) (map[string]any, bool) {
	tid, err := t.tableObj(table)
	if err != nil {
		return nil, false
	}
	v, ok := t.doc.MapGet(tid, key)
	if !ok || v.Kind != ValObj {
		return nil, false
	}
	m, err := t.doc.Materialize(v.Obj)
	if err != nil {
		return nil, false
	}
	row, ok := m.(map[string]any)
	return row, ok
}

// RowKeys returns the primary keys of the named table, sorted.
func (t *Table) RowKeys(table string) []string {
	tid, err := t.tableObj(table)
	if err != nil {
		return nil
	}
	return t.doc.MapKeys(tid)
}

// Rows returns every row of the named table ordered by primary key.
func (t *Table) Rows(table string) []map[string]any {
	keys := t.RowKeys(table)
	rows := make([]map[string]any, 0, len(keys))
	for _, k := range keys {
		if row, ok := t.Row(table, k); ok {
			rows = append(rows, row)
		}
	}
	return rows
}

// GetChanges returns the changes a peer with version vector since is
// missing.
func (t *Table) GetChanges(since VersionVector) []Change { return t.doc.GetChanges(since) }

// ApplyChanges integrates changes from a peer.
func (t *Table) ApplyChanges(chs []Change) (int, error) { return t.doc.ApplyChanges(chs) }

// RowTouch is what one integrated op wrote in a table store: one row,
// or — with Whole set and Row empty — the table entry itself, after
// which any of its rows may differ.
type RowTouch struct {
	Table string
	Row   string
	Whole bool
}

// ApplyChangesTouched integrates changes from a peer and reports the row
// (or whole table) each integrated op wrote, deletions included. Ops
// outside the tables container cannot change what Row or RowKeys read
// and are not reported.
func (t *Table) ApplyChangesTouched(chs []Change, touched func(RowTouch)) (int, error) {
	return t.doc.ApplyChangesTouched(chs, func(s Slot) {
		if rt, ok := t.resolve(s); ok {
			touched(rt)
		}
	})
}

// resolve maps a written slot to its row in O(1): an entry of the
// container is a table, an entry of a table object is a row, and an
// entry of a row object is one of that row's columns.
func (t *Table) resolve(s Slot) (RowTouch, bool) {
	if s.Obj == t.tables {
		return RowTouch{Table: s.Key, Whole: true}, true
	}
	p, ok := t.doc.parents[s.Obj]
	if !ok {
		return RowTouch{}, false
	}
	if p.Obj == t.tables {
		return RowTouch{Table: p.Key, Row: s.Key}, true
	}
	if pp, ok := t.doc.parents[p.Obj]; ok && pp.Obj == t.tables {
		return RowTouch{Table: pp.Key, Row: p.Key}, true
	}
	return RowTouch{}, false
}

// Heads returns the store's version vector.
func (t *Table) Heads() VersionVector { return t.doc.Heads() }
