// Package sqldb implements a small in-memory SQL database engine.
//
// The subject services persist state in SQL databases; the EdgStr
// transformation identifies SQL statements by argument inspection,
// shadows them with snapshot and START TRANSACTION/ROLLBACK executions
// during dynamic analysis, and rewrites them onto CRDT-Table at
// replication time. This engine supports exactly that surface:
//
//   - CREATE TABLE t (col TYPE [PRIMARY KEY], ...)
//   - INSERT INTO t (cols) VALUES (...), (...)
//   - SELECT cols|*|aggregates FROM t [WHERE ...] [ORDER BY col [DESC]] [LIMIT n]
//   - UPDATE t SET col = expr, ... [WHERE ...]
//   - DELETE FROM t [WHERE ...]
//   - START TRANSACTION | BEGIN, COMMIT, ROLLBACK
//   - SNAPSHOT (whole-database dump, used by the shadow execution)
//
// Values are dynamically typed (int64, float64, string, bool, []byte,
// nil) with numeric coercion on comparison, mirroring how the paper's
// JavaScript services treat SQL results. Mutation hooks let the
// generated CRDT wiring observe every committed row change.
package sqldb

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Common errors.
var (
	ErrNoTable       = errors.New("sqldb: no such table")
	ErrNoTransaction = errors.New("sqldb: no active transaction")
	ErrInTransaction = errors.New("sqldb: transaction already active")
	ErrDuplicateKey  = errors.New("sqldb: duplicate primary key")
	// ErrMutation is returned by ExecReadOnly for statements that would
	// mutate database state.
	ErrMutation = errors.New("sqldb: statement mutates state")
)

// Row is a single table row: column name → value.
type Row map[string]any

// clone deep-copies a row (values are scalars, so shallow per value).
func (r Row) clone() Row {
	c := make(Row, len(r))
	for k, v := range r {
		if b, ok := v.([]byte); ok {
			cp := make([]byte, len(b))
			copy(cp, b)
			c[k] = cp
			continue
		}
		c[k] = v
	}
	return c
}

// Result is the outcome of executing one statement.
type Result struct {
	// Cols lists result column names for SELECT. It is shared with
	// other results and must not be modified.
	Cols []string
	// Rows holds the result set for SELECT.
	Rows []Row
	// Affected counts rows changed by INSERT/UPDATE/DELETE.
	Affected int
	// LastKey is the primary key of the last inserted row.
	LastKey string
}

// MutationKind distinguishes committed row changes.
type MutationKind int

// Mutation kinds.
const (
	MutInsert MutationKind = iota + 1
	MutUpdate
	MutDelete
)

func (k MutationKind) String() string {
	switch k {
	case MutInsert:
		return "insert"
	case MutUpdate:
		return "update"
	case MutDelete:
		return "delete"
	default:
		return fmt.Sprintf("MutationKind(%d)", int(k))
	}
}

// Mutation describes one committed row change, as observed by hooks.
type Mutation struct {
	Table string
	Kind  MutationKind
	Key   string
	// Cols holds the row's full column set after the change (nil for
	// deletes).
	Cols map[string]any
}

// MutationHook observes committed mutations. Hooks run synchronously in
// statement order; transaction rollbacks suppress the hooks of the
// rolled-back statements.
type MutationHook func(Mutation)

// colDef describes one declared column.
type colDef struct {
	name string
	typ  string
	pk   bool
}

// tableData is the storage for one table.
type tableData struct {
	name     string
	cols     []colDef
	colNames []string // the names of cols, shared by SELECT * results
	pkCol    string   // "" means synthetic row IDs
	rows     map[string]Row
	keyOrder []string
	nextID   int64
	// drift counts rows held under a key that no lookup of their
	// primary-key value probes (an UPDATE rewrote the key column, or a
	// replicated row arrived under a foreign key); see drifted. Point
	// lookups are exact only while it is zero.
	drift int
}

// countDrift adds delta (±1) to the drift count when row, held under
// key, is not where an INSERT of it would put it. Removals skip the key
// formatting while nothing has drifted.
func (t *tableData) countDrift(key string, row Row, delta int) {
	if t.pkCol == "" || (delta < 0 && t.drift == 0) {
		return
	}
	if t.drifted(key, row) {
		t.drift += delta
	}
}

// drifted reports whether row, held under key, is where no lookup of
// its key value would look: key is neither keyString of the value nor
// one of its probe keys. A replicated numeric key of 1e6 or more is
// held under its origin's integer spelling ("1000000"), which the probe
// set lists beside the float spelling ("1e+06"), so it does not drift.
func (t *tableData) drifted(key string, row Row) bool {
	if t.pkCol == "" {
		return false
	}
	v := row[t.pkCol]
	var ps probeSet
	if ps.fill(v) && ps.has(key) {
		return false
	}
	return keyString(v) != key
}

// removeKey drops key from the table's row order.
func (t *tableData) removeKey(key string) {
	for i, k := range t.keyOrder {
		if k == key {
			t.keyOrder = append(t.keyOrder[:i], t.keyOrder[i+1:]...)
			return
		}
	}
}

func (t *tableData) clone() *tableData {
	c := &tableData{
		name:     t.name,
		cols:     append([]colDef(nil), t.cols...),
		colNames: t.colNames,
		pkCol:    t.pkCol,
		rows:     make(map[string]Row, len(t.rows)),
		keyOrder: append([]string(nil), t.keyOrder...),
		nextID:   t.nextID,
		drift:    t.drift,
	}
	for k, r := range t.rows {
		c.rows[k] = r.clone()
	}
	return c
}

// DB is an in-memory SQL database. It is safe for concurrent use;
// SELECT statements take the lock in shared mode, so concurrent reads
// execute in parallel and only mutations serialize.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*tableData
	txSnap map[string]*tableData // pre-transaction state, nil when idle
	txMuts []Mutation            // mutations buffered until commit
	hooks  []MutationHook
	probe  MutationHook
	muted  bool
	// scanOnly disables primary-key lookups, so tests can compare them
	// with the scan they replace.
	scanOnly bool
	// keyScope, when set, is part of every synthetic row key this DB
	// mints; see SetKeyScope.
	keyScope string
	// stmts holds the parsed statements of Exec and ExecReadOnly.
	stmts stmtCache
}

// Open returns an empty database.
func Open() *DB {
	return &DB{tables: make(map[string]*tableData)}
}

// OnMutation registers a hook for committed row changes.
func (db *DB) OnMutation(h MutationHook) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.hooks = append(db.hooks, h)
}

// SetKeyScope makes the synthetic keys this DB mints for rows of tables
// without a primary key unique to scope: "_rowid_<n>@<scope>" instead of
// "_rowid_<n>". Replicas that insert before they sync mint keys under
// distinct scopes, so replication keeps each of their rows rather than
// merging rows that happen to share a counter value. Set it before the
// first INSERT that should carry it.
func (db *DB) SetKeyScope(scope string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.keyScope = scope
}

// ownRowID reports the counter value in key when key is a synthetic key
// this DB's scope mints.
func (db *DB) ownRowID(key string) (int64, bool) {
	rest, ok := strings.CutPrefix(key, rowIDPrefix)
	if ok && db.keyScope != "" {
		rest, ok = strings.CutSuffix(rest, "@"+db.keyScope)
	}
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	return n, err == nil
}

// SetMuted toggles hook suppression. The synchronization runtime mutes
// hooks while applying remote state, so inbound changes are not echoed
// back out as fresh local mutations.
func (db *DB) SetMuted(m bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.muted = m
}

// SetProbe installs (or, with nil, removes) a removable observation
// hook. The dynamic analysis uses it as the paper's shadow execution of
// identified SQL invocations: mutations are observed per statement while
// the analysis run is active, then the probe is detached. Unlike
// OnMutation hooks, a probe also sees mutations buffered inside an open
// transaction (shadow executions wrap statements in
// START TRANSACTION/ROLLBACK and still need to observe them).
func (db *DB) SetProbe(h MutationHook) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.probe = h
}

// TableNames returns the table names, sorted.
func (db *DB) TableNames() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RowCount returns the number of rows in a table.
func (db *DB) RowCount(table string) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	return len(t.rows), nil
}

// Snapshot returns a deep copy of the database state — the paper's
// whole-database snapshot appended by the shadow execution.
type Snapshot struct {
	tables map[string]*tableData
}

// Snapshot captures the full database state.
func (db *DB) Snapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	return &Snapshot{tables: cloneTables(db.tables)}
}

// Restore replaces the database state with a snapshot. Any active
// transaction is discarded.
func (db *DB) Restore(s *Snapshot) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tables = cloneTables(s.tables)
	db.txSnap = nil
	db.txMuts = nil
}

func cloneTables(src map[string]*tableData) map[string]*tableData {
	dst := make(map[string]*tableData, len(src))
	for n, t := range src {
		dst[n] = t.clone()
	}
	return dst
}

// SizeBytes estimates the in-memory footprint of the database contents;
// the evaluation uses it to report replicated-state sizes.
func (db *DB) SizeBytes() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	var n int64
	for name, t := range db.tables {
		n += int64(len(name))
		for k, r := range t.rows {
			n += int64(len(k))
			for c, v := range r {
				n += int64(len(c)) + valueSize(v)
			}
		}
	}
	return n
}

func valueSize(v any) int64 {
	switch x := v.(type) {
	case nil:
		return 1
	case bool:
		return 1
	case int64, float64:
		return 8
	case string:
		return int64(len(x))
	case []byte:
		return int64(len(x))
	default:
		return 16
	}
}

// Dump returns all rows of every table, ordered by table name and primary
// key — a canonical form used to compare database states for equality.
func (db *DB) Dump() map[string][]Row {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make(map[string][]Row, len(db.tables))
	for name, t := range db.tables {
		keys := append([]string(nil), t.keyOrder...)
		sort.Strings(keys)
		rows := make([]Row, 0, len(keys))
		for _, k := range keys {
			rows = append(rows, t.rows[k].clone())
		}
		out[name] = rows
	}
	return out
}

// PutRow stores cols as the whole row held under key in table, without
// SQL text and without firing mutation hooks — the synchronization
// runtime applies replicated rows through it. An existing row keeps its
// place in the table's order; a new one is appended, as INSERT does.
// Values are coerced like statement arguments. In a table without a
// primary key, a synthetic key of this DB's own scope (see SetKeyScope)
// advances the row-ID counter past its n, so a later INSERT never reuses
// it; keys of other scopes cannot collide and leave it alone. The table
// must exist (ErrNoTable otherwise).
func (db *DB) PutRow(table, key string, cols map[string]any) error {
	row := make(Row, len(cols))
	for c, v := range cols {
		nv, err := normalizeArg(v)
		if err != nil {
			return fmt.Errorf("sqldb: column %q: %w", c, err)
		}
		row[c] = nv
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(table)
	if err != nil {
		return err
	}
	if old, ok := t.rows[key]; ok {
		t.countDrift(key, old, -1)
	} else {
		t.keyOrder = append(t.keyOrder, key)
	}
	t.rows[key] = row
	t.countDrift(key, row, +1)
	if n, ok := db.ownRowID(key); t.pkCol == "" && ok && n > t.nextID {
		t.nextID = n
	}
	return nil
}

// RemoveRow deletes the row held under key in table, without SQL text
// and without firing mutation hooks. A missing table or row is not an
// error: there is nothing to remove.
func (db *DB) RemoveRow(table, key string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return
	}
	row, ok := t.rows[key]
	if !ok {
		return
	}
	t.countDrift(key, row, -1)
	delete(t.rows, key)
	t.removeKey(key)
}

// Exec parses and executes one SQL statement; a text this DB has parsed
// before is taken from its statement cache. Placeholders (?) are
// substituted from args in order. SELECT statements run under the
// shared lock: they read db.tables whether or not a transaction is
// open (buffered transaction writes land in the live tables, with the
// pre-transaction state parked in txSnap), never emit mutations, and
// build fresh result rows — so concurrent selects are safe.
func (db *DB) Exec(query string, args ...any) (*Result, error) {
	return db.exec(query, args, false, false)
}

// ExecReadOnly executes a statement that must not mutate state; any
// statement other than SELECT fails with ErrMutation before touching
// the database. Write-guarded (read-only) service invocations route
// their db calls through it.
func (db *DB) ExecReadOnly(query string, args ...any) (*Result, error) {
	return db.exec(query, args, true, false)
}

// ExecFloat executes a statement as ExecReadOnly does when readOnly is
// set, and as Exec does otherwise, but delivers every int64 of a
// SELECT's result as a float64. A caller whose values have one number
// type gets its rows converted as they are built instead of walking
// them again.
func (db *DB) ExecFloat(query string, readOnly bool, args ...any) (*Result, error) {
	return db.exec(query, args, readOnly, true)
}

func (db *DB) exec(query string, args []any, readOnly, floats bool) (*Result, error) {
	stmt, err := db.stmts.get(query)
	if err != nil {
		return nil, err
	}
	s, ok := stmt.(*selectStmt)
	if ok {
		db.mu.RLock()
		defer db.mu.RUnlock()
		if want := s.nparams(); want != len(args) {
			return nil, fmt.Errorf("sqldb: statement has %d placeholders, got %d args", want, len(args))
		}
		return db.execSelect(s, args, floats)
	}
	if readOnly {
		return nil, fmt.Errorf("%w: %s", ErrMutation, firstKeyword(query))
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.execStmt(stmt, args)
}

// IsReadOnlyQuery reports whether query parses as a SELECT. The static
// route classifier uses it to decide whether a literal SQL command can
// run on the shared read path.
func IsReadOnlyQuery(query string) bool {
	stmt, err := parse(query)
	if err != nil {
		return false
	}
	_, ok := stmt.(*selectStmt)
	return ok
}

// firstKeyword returns the statement's leading word, for error text.
func firstKeyword(query string) string {
	fields := strings.Fields(query)
	if len(fields) == 0 {
		return "(empty)"
	}
	return strings.ToUpper(fields[0])
}

// InTransaction reports whether a transaction is active.
func (db *DB) InTransaction() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.txSnap != nil
}

func (db *DB) execStmt(st stmt, args []any) (*Result, error) {
	if want := st.nparams(); want != len(args) {
		return nil, fmt.Errorf("sqldb: statement has %d placeholders, got %d args", want, len(args))
	}
	switch s := st.(type) {
	case *createStmt:
		return db.execCreate(s)
	case *insertStmt:
		return db.execInsert(s, args)
	case *selectStmt:
		return db.execSelect(s, args, false)
	case *updateStmt:
		return db.execUpdate(s, args)
	case *deleteStmt:
		return db.execDelete(s, args)
	case *txStmt:
		return db.execTx(s)
	default:
		return nil, fmt.Errorf("sqldb: unsupported statement %T", st)
	}
}

// emit dispatches a mutation: buffered while a transaction is active,
// delivered to hooks immediately otherwise.
func (db *DB) emit(m Mutation) {
	if db.muted {
		return
	}
	if db.probe != nil {
		db.probe(m)
	}
	if db.txSnap != nil {
		db.txMuts = append(db.txMuts, m)
		return
	}
	for _, h := range db.hooks {
		h(m)
	}
}

func (db *DB) execTx(s *txStmt) (*Result, error) {
	switch s.kind {
	case txBegin:
		if db.txSnap != nil {
			return nil, ErrInTransaction
		}
		db.txSnap = cloneTables(db.tables)
		return &Result{}, nil
	case txCommit:
		if db.txSnap == nil {
			return nil, ErrNoTransaction
		}
		muts := db.txMuts
		db.txSnap, db.txMuts = nil, nil
		for _, m := range muts {
			for _, h := range db.hooks {
				h(m)
			}
		}
		return &Result{}, nil
	case txRollback:
		if db.txSnap == nil {
			return nil, ErrNoTransaction
		}
		db.tables = db.txSnap
		db.txSnap, db.txMuts = nil, nil
		return &Result{}, nil
	default:
		return nil, fmt.Errorf("sqldb: unknown transaction statement")
	}
}

func (db *DB) execCreate(s *createStmt) (*Result, error) {
	if _, exists := db.tables[s.table]; exists {
		if s.ifNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("sqldb: table %q already exists", s.table)
	}
	t := &tableData{
		name: s.table,
		// A copy, so the table never shares memory with the cached
		// statement.
		cols: append([]colDef(nil), s.cols...),
		rows: make(map[string]Row),
	}
	for _, c := range s.cols {
		t.colNames = append(t.colNames, c.name)
		if c.pk && t.pkCol == "" {
			t.pkCol = c.name
		}
	}
	db.tables[s.table] = t
	return &Result{}, nil
}

func (db *DB) table(name string) (*tableData, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t, nil
}

// rowIDPrefix starts the synthetic keys of tables without a primary key.
const rowIDPrefix = "_rowid_"

func keyString(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	case nil:
		return ""
	default:
		return fmt.Sprint(x)
	}
}

func (db *DB) execInsert(s *insertStmt, args []any) (*Result, error) {
	t, err := db.table(s.table)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, tuple := range s.rows {
		if len(tuple) != len(s.cols) {
			return nil, fmt.Errorf("sqldb: INSERT has %d values for %d columns", len(tuple), len(s.cols))
		}
		row := make(Row, len(s.cols))
		for i, c := range s.cols {
			v, err := evalExpr(tuple[i], nil, args)
			if err != nil {
				return nil, err
			}
			row[c] = v
		}
		var key string
		if t.pkCol != "" {
			pkv, ok := row[t.pkCol]
			if !ok {
				return nil, fmt.Errorf("sqldb: INSERT into %q missing primary key %q", s.table, t.pkCol)
			}
			key = keyString(pkv)
			if _, dup := t.rows[key]; dup {
				return nil, fmt.Errorf("%w: %s=%s", ErrDuplicateKey, t.pkCol, key)
			}
		} else {
			t.nextID++
			key = rowIDPrefix + strconv.FormatInt(t.nextID, 10)
			if db.keyScope != "" {
				key += "@" + db.keyScope
			}
		}
		t.rows[key] = row
		t.keyOrder = append(t.keyOrder, key)
		res.Affected++
		res.LastKey = key
		db.emit(Mutation{Table: s.table, Kind: MutInsert, Key: key, Cols: row.clone()})
	}
	return res, nil
}

func (db *DB) execUpdate(s *updateStmt, args []any) (*Result, error) {
	t, err := db.table(s.table)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	_, setsKey := s.sets[t.pkCol]
	var one [1]string
	for _, key := range db.candidates(t, s.where, args, &one) {
		row := t.rows[key]
		match, err := rowMatches(s.where, row, args)
		if err != nil {
			return nil, err
		}
		if !match {
			continue
		}
		// Evaluate every SET expression against the pre-update row so
		// that "SET a = b, b = a" behaves like SQL, not like sequential
		// assignment, and so that a failing one leaves the row and the
		// drift count as they were.
		newVals := make(map[string]any, len(s.sets))
		for _, col := range s.setOrder {
			v, err := evalExpr(s.sets[col], row, args)
			if err != nil {
				return nil, err
			}
			newVals[col] = v
		}
		if setsKey {
			t.countDrift(key, row, -1)
		}
		for col, v := range newVals {
			row[col] = v
		}
		if setsKey {
			t.countDrift(key, row, +1)
		}
		res.Affected++
		db.emit(Mutation{Table: s.table, Kind: MutUpdate, Key: key, Cols: row.clone()})
	}
	return res, nil
}

func (db *DB) execDelete(s *deleteStmt, args []any) (*Result, error) {
	t, err := db.table(s.table)
	if err != nil {
		return nil, err
	}
	// Match first and mutate after, so a WHERE that fails on some row
	// leaves the table untouched.
	var one [1]string
	var doomed []string
	for _, key := range db.candidates(t, s.where, args, &one) {
		match, err := rowMatches(s.where, t.rows[key], args)
		if err != nil {
			return nil, err
		}
		if match {
			doomed = append(doomed, key)
		}
	}
	for _, key := range doomed {
		t.countDrift(key, t.rows[key], -1)
		delete(t.rows, key)
		db.emit(Mutation{Table: s.table, Kind: MutDelete, Key: key})
	}
	switch {
	case len(doomed) == 1:
		t.removeKey(doomed[0])
	case len(doomed) > 1:
		kept := t.keyOrder[:0]
		for _, key := range t.keyOrder {
			if _, live := t.rows[key]; live {
				kept = append(kept, key)
			}
		}
		t.keyOrder = kept
	}
	return &Result{Affected: len(doomed)}, nil
}

func rowMatches(where expr, row Row, args []any) (bool, error) {
	if where == nil {
		return true, nil
	}
	v, err := evalExpr(where, row, args)
	if err != nil {
		return false, err
	}
	return truthy(v), nil
}
