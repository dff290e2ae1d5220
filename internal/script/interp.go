package script

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strconv"
)

// Hooks receives Jalangi-style dynamic-analysis callbacks. Any field may
// be nil. Hook functions run synchronously inside the interpreter; they
// must not re-enter it.
type Hooks struct {
	// EnterStmt fires before each statement executes.
	EnterStmt func(id StmtID)
	// Read fires when a named variable is read.
	Read func(id StmtID, name string, val any)
	// Write fires when a named variable is written (including index and
	// selector assignment, with the base variable's name).
	Write func(id StmtID, name string, val any)
	// Invoke fires after each function invocation completes — the analog
	// of Jalangi's INVOKEFUNCTION(loc, f, args, val) callback the paper
	// modifies to inspect SQL commands and file URLs in args.
	Invoke func(id StmtID, fn string, args []any, result any)
}

// Meter accumulates abstract compute cost: one unit per executed
// statement plus whatever builtins add. The cluster's device model
// divides metered ops by a node's speed to obtain service time.
type Meter struct {
	ops float64
}

// Ops returns the accumulated cost.
func (m *Meter) Ops() float64 { return m.ops }

// Reset zeroes the meter.
func (m *Meter) Reset() { m.ops = 0 }

// Add accumulates cost units.
func (m *Meter) Add(n float64) {
	if n > 0 {
		m.ops += n
	}
}

// env is a lexical scope. Local scopes store values directly in vars
// (allocated lazily on first define, so scopes that never declare a
// variable cost nothing). The base and globals scopes are "boxed": each
// binding lives behind a stable *any cell so the bytecode VM can cache
// the cell once and then read/write globals without a map lookup.
type env struct {
	parent *env
	vars   map[string]any  // local bindings (nil until first define)
	boxes  map[string]*any // boxed bindings (non-nil only for base/globals)
	genp   *uint64         // bumped when a boxed scope gains a new name
}

func newEnv(parent *env) *env { return &env{parent: parent} }

func newBoxedEnv(parent *env, genp *uint64) *env {
	return &env{parent: parent, boxes: map[string]*any{}, genp: genp}
}

func (e *env) get(name string) (any, bool) {
	for s := e; s != nil; s = s.parent {
		if s.boxes != nil {
			if p, ok := s.boxes[name]; ok {
				return *p, true
			}
		} else if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// set assigns to an existing binding, walking outward. It reports whether
// a binding was found.
func (e *env) set(name string, v any) bool {
	for s := e; s != nil; s = s.parent {
		if s.boxes != nil {
			if p, ok := s.boxes[name]; ok {
				*p = v
				return true
			}
		} else if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return true
		}
	}
	return false
}

// owner returns the scope holding name's binding, or nil when unbound.
func (e *env) owner(name string) *env {
	for s := e; s != nil; s = s.parent {
		if s.boxes != nil {
			if _, ok := s.boxes[name]; ok {
				return s
			}
		} else if _, ok := s.vars[name]; ok {
			return s
		}
	}
	return nil
}

func (e *env) define(name string, v any) {
	if e.boxes != nil {
		if p, ok := e.boxes[name]; ok {
			*p = v
			return
		}
		p := new(any)
		*p = v
		e.boxes[name] = p
		if e.genp != nil {
			*e.genp++
		}
		return
	}
	if e.vars == nil {
		e.vars = make(map[string]any, 4)
	}
	e.vars[name] = v
}

// Interp executes a Program. It is not safe for concurrent use — each
// service instance owns one interpreter and serializes invocations, the
// way a Node.js process serializes its event loop.
//
// By default Call executes functions on the bytecode VM (see compile.go
// and vm.go); SetReferenceEval(true) switches the instance back to the
// tree-walking reference evaluator, which is retained as a differential
// oracle the way datalog.SetReferenceJoin retains the nested-loop join.
type Interp struct {
	prog    *Program
	base    *env // builtins and registered native objects
	globals *env
	hooks   Hooks
	meter   Meter
	cur     StmtID
	depth   int

	// refEval selects the tree-walking reference evaluator for Call.
	refEval bool
	// guarded marks a read-only fork (see ReadOnlyFork): any attempt to
	// write shared base/globals state aborts with ErrWriteGuard.
	guarded bool
	// defineGen counts new-name defines (and deletions) in the boxed
	// base/globals scopes; the VM uses it to invalidate cached global
	// lookups. It is a pointer because read-only forks share their
	// parent's boxed scopes and must observe the same generation counter.
	defineGen *uint64
	// cfuncs caches this interpreter's link to compiled functions.
	cfuncs map[string]*compiledFunc
	// refs is the per-interpreter global-reference link table, indexed by
	// the program's gref IDs (see progComp).
	refs []gref
	// argScratch is the reusable argument buffer for builtin/function
	// calls on the unhooked tree-walker path.
	argScratch []any
	// callFree pools Call headers passed to builtins. Builtins must not
	// retain the *Call or its Args slice past their return.
	callFree []*Call
}

// SetReferenceEval selects the evaluator used by Call: true routes
// invocations through the tree-walking reference interpreter, false
// (the default) through the bytecode VM. The switch exists so tests and
// the serve benchmark can compare both evaluators.
func (in *Interp) SetReferenceEval(on bool) { in.refEval = on }

// errSignal distinguishes control flow from real errors.
type ctl int

const (
	ctlNone ctl = iota
	ctlReturn
	ctlBreak
	ctlContinue
)

// ErrUndefined is returned when a name is not bound.
var ErrUndefined = errors.New("script: undefined")

// maxDepth bounds recursion.
const maxDepth = 256

// New returns an interpreter for prog with the standard library
// installed. Global var declarations are not evaluated until RunInit.
func New(prog *Program) *Interp {
	in := &Interp{prog: prog, defineGen: new(uint64)}
	in.base = newBoxedEnv(nil, in.defineGen)
	in.globals = newBoxedEnv(in.base, in.defineGen)
	in.cfuncs = make(map[string]*compiledFunc, len(prog.Funcs))
	installStdlib(in)
	return in
}

// Program returns the program under execution.
func (in *Interp) Program() *Program { return in.prog }

// Meter returns the interpreter's cost meter.
func (in *Interp) Meter() *Meter { return &in.meter }

// SetHooks installs dynamic-analysis hooks.
func (in *Interp) SetHooks(h Hooks) { in.hooks = h }

// Register binds a native object or builtin under name, visible to all
// script code. The httpapp framework registers db, fs, and similar
// infrastructure objects this way.
func (in *Interp) Register(name string, v any) { in.base.define(name, v) }

// RunInit evaluates the top-level var declarations in order — the
// paper's server "init" step producing state_init.
func (in *Interp) RunInit() error {
	in.cur = NoStmt
	for _, vs := range in.prog.Globals {
		for i, ident := range vs.Names {
			v, err := in.eval(in.globals, vs.Values[i])
			if err != nil {
				return fmt.Errorf("script: initializing %s: %w", ident.Name, err)
			}
			in.globals.define(ident.Name, v)
		}
	}
	return nil
}

// Globals returns the current global bindings (excluding builtins).
func (in *Interp) Globals() map[string]any {
	out := make(map[string]any, len(in.globals.boxes))
	for k, p := range in.globals.boxes {
		out[k] = *p
	}
	return out
}

// GetGlobal returns a global's current value.
func (in *Interp) GetGlobal(name string) (any, bool) { return in.globals.get(name) }

// SetGlobal overwrites a global binding; it is how restore operations and
// CRDT wiring push state into the running service.
func (in *Interp) SetGlobal(name string, v any) { in.globals.define(name, v) }

// DeleteGlobal removes a global binding: later references fail as
// undefined until it is set again. It is how the CRDT wiring applies a
// global another replica deleted.
func (in *Interp) DeleteGlobal(name string) {
	if _, ok := in.globals.boxes[name]; !ok {
		return
	}
	delete(in.globals.boxes, name)
	*in.defineGen++
}

// Call invokes a declared function with the given arguments, on the
// bytecode VM by default or on the tree-walking reference evaluator when
// SetReferenceEval(true) was called.
func (in *Interp) Call(name string, args ...any) (any, error) {
	fn, ok := in.prog.Funcs[name]
	if !ok {
		return nil, fmt.Errorf("%w: function %q", ErrUndefined, name)
	}
	if in.refEval {
		return in.callFunc(fn, args)
	}
	return in.vmCallTop(name, args)
}

func (in *Interp) callFunc(fn *ast.FuncDecl, args []any) (any, error) {
	if in.depth >= maxDepth {
		return nil, fmt.Errorf("script: call depth exceeds %d in %s", maxDepth, fn.Name.Name)
	}
	in.depth++
	defer func() { in.depth-- }()

	frame := newEnv(in.globals)
	i := 0
	for _, field := range fn.Type.Params.List {
		for _, ident := range field.Names {
			var v any
			if i < len(args) {
				v = args[i]
			}
			frame.define(ident.Name, v)
			i++
		}
	}
	c, ret, err := in.execBlock(frame, fn.Body)
	if err != nil {
		return nil, err
	}
	if c == ctlBreak || c == ctlContinue {
		return nil, fmt.Errorf("script: break/continue outside loop in %s", fn.Name.Name)
	}
	return ret, nil
}

// ---- Statements ----

func (in *Interp) execBlock(e *env, b *ast.BlockStmt) (ctl, any, error) {
	scope := newEnv(e)
	for _, st := range b.List {
		c, ret, err := in.exec(scope, st)
		if err != nil || c != ctlNone {
			return c, ret, err
		}
	}
	return ctlNone, nil, nil
}

func (in *Interp) exec(e *env, st ast.Stmt) (ctl, any, error) {
	id := in.prog.IDOf(st)
	prev := in.cur
	in.cur = id
	defer func() { in.cur = prev }()
	in.meter.ops++
	if in.hooks.EnterStmt != nil && id != NoStmt {
		in.hooks.EnterStmt(id)
	}

	switch s := st.(type) {
	case *ast.DeclStmt:
		return in.execDecl(e, s)
	case *ast.AssignStmt:
		return ctlNone, nil, in.execAssign(e, s)
	case *ast.ExprStmt:
		_, err := in.eval(e, s.X)
		return ctlNone, nil, err
	case *ast.ReturnStmt:
		if len(s.Results) == 0 {
			return ctlReturn, nil, nil
		}
		if len(s.Results) > 1 {
			return ctlNone, nil, fmt.Errorf("script: multiple return values are not supported")
		}
		v, err := in.eval(e, s.Results[0])
		if err != nil {
			return ctlNone, nil, err
		}
		return ctlReturn, v, nil
	case *ast.IfStmt:
		return in.execIf(e, s)
	case *ast.ForStmt:
		return in.execFor(e, s)
	case *ast.RangeStmt:
		return in.execRange(e, s)
	case *ast.BlockStmt:
		return in.execBlock(e, s)
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			return ctlBreak, nil, nil
		case token.CONTINUE:
			return ctlContinue, nil, nil
		default:
			return ctlNone, nil, fmt.Errorf("script: unsupported branch %v", s.Tok)
		}
	case *ast.IncDecStmt:
		return ctlNone, nil, in.execIncDec(e, s)
	case *ast.SwitchStmt:
		return in.execSwitch(e, s)
	case *ast.EmptyStmt:
		return ctlNone, nil, nil
	default:
		return ctlNone, nil, fmt.Errorf("script: unsupported statement %T", st)
	}
}

func (in *Interp) execDecl(e *env, s *ast.DeclStmt) (ctl, any, error) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return ctlNone, nil, fmt.Errorf("script: unsupported declaration")
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, ident := range vs.Names {
			var v any
			if i < len(vs.Values) {
				var err error
				v, err = in.eval(e, vs.Values[i])
				if err != nil {
					return ctlNone, nil, err
				}
			}
			e.define(ident.Name, v)
			in.fireWrite(ident.Name, v)
		}
	}
	return ctlNone, nil, nil
}

func (in *Interp) execAssign(e *env, s *ast.AssignStmt) error {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return fmt.Errorf("script: only single assignment is supported")
	}
	rhs, err := in.eval(e, s.Rhs[0])
	if err != nil {
		return err
	}
	switch s.Tok {
	case token.DEFINE:
		ident, ok := s.Lhs[0].(*ast.Ident)
		if !ok {
			return fmt.Errorf("script: := target must be an identifier")
		}
		e.define(ident.Name, rhs)
		in.fireWrite(ident.Name, rhs)
		return nil
	case token.ASSIGN:
		return in.assignTo(e, s.Lhs[0], rhs)
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN, token.REM_ASSIGN:
		cur, err := in.eval(e, s.Lhs[0])
		if err != nil {
			return err
		}
		op := map[token.Token]token.Token{
			token.ADD_ASSIGN: token.ADD,
			token.SUB_ASSIGN: token.SUB,
			token.MUL_ASSIGN: token.MUL,
			token.QUO_ASSIGN: token.QUO,
			token.REM_ASSIGN: token.REM,
		}[s.Tok]
		v, err := binaryOp(op, cur, rhs)
		if err != nil {
			return err
		}
		return in.assignTo(e, s.Lhs[0], v)
	default:
		return fmt.Errorf("script: unsupported assignment %v", s.Tok)
	}
}

// assignTo writes a value through an lvalue expression.
func (in *Interp) assignTo(e *env, lhs ast.Expr, v any) error {
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return nil // discard
		}
		s := e.owner(l.Name)
		if s == nil {
			return fmt.Errorf("%w: variable %q (declare with := or var)", ErrUndefined, l.Name)
		}
		if s.boxes != nil {
			if in.guarded {
				return in.guardErr(l.Name)
			}
			*s.boxes[l.Name] = v
		} else {
			s.vars[l.Name] = v
		}
		in.fireWrite(l.Name, v)
		return nil
	case *ast.IndexExpr:
		base, err := in.eval(e, l.X)
		if err != nil {
			return err
		}
		idx, err := in.eval(e, l.Index)
		if err != nil {
			return err
		}
		if in.guarded {
			if err := in.guardContainer(baseName(l.X), base); err != nil {
				return err
			}
		}
		if err := containerSet(base, idx, v); err != nil {
			return err
		}
		in.fireWrite(baseName(l.X), base)
		return nil
	case *ast.SelectorExpr:
		base, err := in.eval(e, l.X)
		if err != nil {
			return err
		}
		m, ok := base.(map[string]any)
		if !ok {
			return fmt.Errorf("script: selector assignment on %T", base)
		}
		if in.guarded {
			if err := in.guardContainer(baseName(l.X), base); err != nil {
				return err
			}
		}
		m[l.Sel.Name] = v
		in.fireWrite(baseName(l.X), base)
		return nil
	default:
		return fmt.Errorf("script: unsupported assignment target %T", lhs)
	}
}

// baseName returns the root identifier of an lvalue chain (a[0].b → a).
func baseName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return ""
		}
	}
}

func containerSet(base, idx, v any) error {
	switch b := base.(type) {
	case *List:
		f, ok := ToNumber(idx)
		i := int(f)
		if !ok || i < 0 || i >= len(b.Elems) {
			return fmt.Errorf("script: list index %v out of range [0,%d)", idx, len(b.Elems))
		}
		b.Elems[i] = v
		return nil
	case map[string]any:
		b[ToString(idx)] = v
		return nil
	case []byte:
		f, ok := ToNumber(idx)
		i := int(f)
		if !ok || i < 0 || i >= len(b) {
			return fmt.Errorf("script: byte index %v out of range [0,%d)", idx, len(b))
		}
		n, ok := ToNumber(v)
		if !ok {
			return fmt.Errorf("script: byte assignment needs a number, got %T", v)
		}
		b[i] = byte(int(n) & 0xFF)
		return nil
	default:
		return fmt.Errorf("script: cannot index-assign into %T", base)
	}
}

func (in *Interp) execIncDec(e *env, s *ast.IncDecStmt) error {
	cur, err := in.eval(e, s.X)
	if err != nil {
		return err
	}
	n, ok := ToNumber(cur)
	if !ok {
		return fmt.Errorf("script: ++/-- on non-number %T", cur)
	}
	if s.Tok == token.INC {
		n++
	} else {
		n--
	}
	return in.assignTo(e, s.X, n)
}

func (in *Interp) execIf(e *env, s *ast.IfStmt) (ctl, any, error) {
	scope := newEnv(e)
	if s.Init != nil {
		if c, ret, err := in.exec(scope, s.Init); err != nil || c != ctlNone {
			return c, ret, err
		}
	}
	cond, err := in.eval(scope, s.Cond)
	if err != nil {
		return ctlNone, nil, err
	}
	if Truthy(cond) {
		return in.execBlock(scope, s.Body)
	}
	if s.Else != nil {
		return in.exec(scope, s.Else)
	}
	return ctlNone, nil, nil
}

// maxLoopIters bounds runaway loops so a buggy script cannot hang the
// analysis pipeline.
const maxLoopIters = 10_000_000

func (in *Interp) execFor(e *env, s *ast.ForStmt) (ctl, any, error) {
	scope := newEnv(e)
	if s.Init != nil {
		if c, ret, err := in.exec(scope, s.Init); err != nil || c != ctlNone {
			return c, ret, err
		}
	}
	for iter := 0; ; iter++ {
		if iter >= maxLoopIters {
			return ctlNone, nil, fmt.Errorf("script: loop exceeded %d iterations", maxLoopIters)
		}
		if s.Cond != nil {
			cond, err := in.eval(scope, s.Cond)
			if err != nil {
				return ctlNone, nil, err
			}
			if !Truthy(cond) {
				break
			}
		}
		c, ret, err := in.execBlock(scope, s.Body)
		if err != nil {
			return ctlNone, nil, err
		}
		if c == ctlReturn {
			return c, ret, nil
		}
		if c == ctlBreak {
			break
		}
		if s.Post != nil {
			if c, ret, err := in.exec(scope, s.Post); err != nil || c != ctlNone {
				return c, ret, err
			}
		}
	}
	return ctlNone, nil, nil
}

func (in *Interp) execRange(e *env, s *ast.RangeStmt) (ctl, any, error) {
	coll, err := in.eval(e, s.X)
	if err != nil {
		return ctlNone, nil, err
	}
	scope := newEnv(e)
	keyName, valName := rangeVar(s.Key), rangeVar(s.Value)
	bind := func(k, v any) {
		if keyName != "" {
			scope.define(keyName, k)
			in.fireWrite(keyName, k)
		}
		if valName != "" {
			scope.define(valName, v)
			in.fireWrite(valName, v)
		}
	}
	runBody := func() (ctl, any, error) { return in.execBlock(scope, s.Body) }

	switch c := coll.(type) {
	case *List:
		for i, v := range c.Elems {
			bind(float64(i), v)
			ct, ret, err := runBody()
			if err != nil || ct == ctlReturn {
				return ct, ret, err
			}
			if ct == ctlBreak {
				return ctlNone, nil, nil
			}
		}
	case map[string]any:
		keys := make([]string, 0, len(c))
		for k := range c {
			keys = append(keys, k)
		}
		sort.Strings(keys) // deterministic iteration
		for _, k := range keys {
			bind(k, c[k])
			ct, ret, err := runBody()
			if err != nil || ct == ctlReturn {
				return ct, ret, err
			}
			if ct == ctlBreak {
				return ctlNone, nil, nil
			}
		}
	case string:
		for i := 0; i < len(c); i++ {
			bind(float64(i), string(c[i]))
			ct, ret, err := runBody()
			if err != nil || ct == ctlReturn {
				return ct, ret, err
			}
			if ct == ctlBreak {
				return ctlNone, nil, nil
			}
		}
	case []byte:
		for i, b := range c {
			bind(float64(i), float64(b))
			ct, ret, err := runBody()
			if err != nil || ct == ctlReturn {
				return ct, ret, err
			}
			if ct == ctlBreak {
				return ctlNone, nil, nil
			}
		}
	default:
		return ctlNone, nil, fmt.Errorf("script: cannot range over %T", coll)
	}
	return ctlNone, nil, nil
}

func rangeVar(e ast.Expr) string {
	ident, ok := e.(*ast.Ident)
	if !ok || ident == nil || ident.Name == "_" {
		return ""
	}
	return ident.Name
}

func (in *Interp) execSwitch(e *env, s *ast.SwitchStmt) (ctl, any, error) {
	scope := newEnv(e)
	if s.Init != nil {
		if c, ret, err := in.exec(scope, s.Init); err != nil || c != ctlNone {
			return c, ret, err
		}
	}
	var tag any = true
	if s.Tag != nil {
		v, err := in.eval(scope, s.Tag)
		if err != nil {
			return ctlNone, nil, err
		}
		tag = v
	}
	var defaultClause *ast.CaseClause
	for _, raw := range s.Body.List {
		clause, ok := raw.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			defaultClause = clause
			continue
		}
		for _, ce := range clause.List {
			v, err := in.eval(scope, ce)
			if err != nil {
				return ctlNone, nil, err
			}
			if Equal(tag, v) || (s.Tag == nil && Truthy(v)) {
				return in.execClause(scope, clause)
			}
		}
	}
	if defaultClause != nil {
		return in.execClause(scope, defaultClause)
	}
	return ctlNone, nil, nil
}

func (in *Interp) execClause(e *env, clause *ast.CaseClause) (ctl, any, error) {
	scope := newEnv(e)
	for _, st := range clause.Body {
		c, ret, err := in.exec(scope, st)
		if err != nil || c == ctlReturn || c == ctlContinue {
			return c, ret, err
		}
		if c == ctlBreak {
			return ctlNone, nil, nil
		}
	}
	return ctlNone, nil, nil
}

// ---- Expressions ----

func (in *Interp) eval(e *env, ex ast.Expr) (any, error) {
	switch x := ex.(type) {
	case *ast.BasicLit:
		return evalLit(x)
	case *ast.Ident:
		return in.evalIdent(e, x)
	case *ast.ParenExpr:
		return in.eval(e, x.X)
	case *ast.BinaryExpr:
		return in.evalBinary(e, x)
	case *ast.UnaryExpr:
		v, err := in.eval(e, x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case token.SUB:
			n, ok := ToNumber(v)
			if !ok {
				return nil, fmt.Errorf("script: unary minus on %T", v)
			}
			return -n, nil
		case token.NOT:
			return !Truthy(v), nil
		default:
			return nil, fmt.Errorf("script: unsupported unary op %v", x.Op)
		}
	case *ast.CallExpr:
		return in.evalCall(e, x)
	case *ast.IndexExpr:
		return in.evalIndex(e, x)
	case *ast.SliceExpr:
		return in.evalSlice(e, x)
	case *ast.SelectorExpr:
		return in.evalSelector(e, x)
	case *ast.CompositeLit:
		return in.evalComposite(e, x)
	default:
		return nil, fmt.Errorf("script: unsupported expression %T", ex)
	}
}

func evalLit(x *ast.BasicLit) (any, error) {
	switch x.Kind {
	case token.INT, token.FLOAT:
		f, err := strconv.ParseFloat(x.Value, 64)
		if err != nil {
			return nil, fmt.Errorf("script: bad number %q: %w", x.Value, err)
		}
		return f, nil
	case token.STRING:
		s, err := strconv.Unquote(x.Value)
		if err != nil {
			return nil, fmt.Errorf("script: bad string %s: %w", x.Value, err)
		}
		return s, nil
	case token.CHAR:
		s, err := strconv.Unquote(x.Value)
		if err != nil {
			return nil, fmt.Errorf("script: bad char %s: %w", x.Value, err)
		}
		return s, nil
	default:
		return nil, fmt.Errorf("script: unsupported literal %v", x.Kind)
	}
}

func (in *Interp) evalIdent(e *env, x *ast.Ident) (any, error) {
	switch x.Name {
	case "true":
		return true, nil
	case "false":
		return false, nil
	case "nil":
		return nil, nil
	case "_":
		return nil, fmt.Errorf("script: cannot read _")
	}
	v, ok := e.get(x.Name)
	if !ok {
		// A bare function name evaluates to a callable reference only in
		// call position; reading it otherwise is an error.
		if _, isFn := in.prog.Funcs[x.Name]; isFn {
			return nil, fmt.Errorf("script: function %q used as value", x.Name)
		}
		return nil, fmt.Errorf("%w: %q", ErrUndefined, x.Name)
	}
	in.fireRead(x.Name, v)
	return v, nil
}

func (in *Interp) evalBinary(e *env, x *ast.BinaryExpr) (any, error) {
	// Short-circuit logical operators.
	if x.Op == token.LAND || x.Op == token.LOR {
		l, err := in.eval(e, x.X)
		if err != nil {
			return nil, err
		}
		if x.Op == token.LAND && !Truthy(l) {
			return false, nil
		}
		if x.Op == token.LOR && Truthy(l) {
			return true, nil
		}
		r, err := in.eval(e, x.Y)
		if err != nil {
			return nil, err
		}
		return Truthy(r), nil
	}
	l, err := in.eval(e, x.X)
	if err != nil {
		return nil, err
	}
	r, err := in.eval(e, x.Y)
	if err != nil {
		return nil, err
	}
	return binaryOp(x.Op, l, r)
}

func binaryOp(op token.Token, l, r any) (any, error) {
	switch op {
	case token.ADD:
		if ls, ok := l.(string); ok {
			return ls + ToString(r), nil
		}
		if rs, ok := r.(string); ok {
			return ToString(l) + rs, nil
		}
		if lb, ok := l.([]byte); ok {
			if rb, ok := r.([]byte); ok {
				out := make([]byte, 0, len(lb)+len(rb))
				out = append(out, lb...)
				return append(out, rb...), nil
			}
		}
		return numOp(op, l, r)
	case token.SUB, token.MUL, token.QUO, token.REM:
		return numOp(op, l, r)
	case token.EQL:
		return Equal(l, r), nil
	case token.NEQ:
		return !Equal(l, r), nil
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
		c, ok := orderValues(l, r)
		if !ok {
			return nil, fmt.Errorf("script: cannot compare %T and %T", l, r)
		}
		switch op {
		case token.LSS:
			return c < 0, nil
		case token.LEQ:
			return c <= 0, nil
		case token.GTR:
			return c > 0, nil
		default:
			return c >= 0, nil
		}
	default:
		return nil, fmt.Errorf("script: unsupported operator %v", op)
	}
}

func numOp(op token.Token, l, r any) (any, error) {
	lf, lok := ToNumber(l)
	rf, rok := ToNumber(r)
	if !lok || !rok {
		return nil, fmt.Errorf("script: numeric op %v on %T and %T", op, l, r)
	}
	switch op {
	case token.ADD:
		return lf + rf, nil
	case token.SUB:
		return lf - rf, nil
	case token.MUL:
		return lf * rf, nil
	case token.QUO:
		if rf == 0 {
			return nil, fmt.Errorf("script: division by zero")
		}
		return lf / rf, nil
	case token.REM:
		if int64(rf) == 0 {
			return nil, fmt.Errorf("script: modulo by zero")
		}
		return float64(int64(lf) % int64(rf)), nil
	default:
		return nil, fmt.Errorf("script: unsupported numeric op %v", op)
	}
}

func orderValues(l, r any) (int, bool) {
	if ls, ok := l.(string); ok {
		if rs, ok := r.(string); ok {
			switch {
			case ls < rs:
				return -1, true
			case ls > rs:
				return 1, true
			default:
				return 0, true
			}
		}
	}
	lf, lok := ToNumber(l)
	rf, rok := ToNumber(r)
	if lok && rok {
		switch {
		case lf < rf:
			return -1, true
		case lf > rf:
			return 1, true
		default:
			return 0, true
		}
	}
	return 0, false
}

func (in *Interp) evalIndex(e *env, x *ast.IndexExpr) (any, error) {
	base, err := in.eval(e, x.X)
	if err != nil {
		return nil, err
	}
	idx, err := in.eval(e, x.Index)
	if err != nil {
		return nil, err
	}
	return containerGet(base, idx)
}

// containerGet reads base[idx]; it is shared by the tree-walker and the
// VM so both produce identical values and error text.
func containerGet(base, idx any) (any, error) {
	switch b := base.(type) {
	case *List:
		f, ok := ToNumber(idx)
		i := int(f)
		if !ok || i < 0 || i >= len(b.Elems) {
			return nil, fmt.Errorf("script: list index %v out of range [0,%d)", idx, len(b.Elems))
		}
		return b.Elems[i], nil
	case map[string]any:
		return b[ToString(idx)], nil
	case string:
		f, ok := ToNumber(idx)
		i := int(f)
		if !ok || i < 0 || i >= len(b) {
			return nil, fmt.Errorf("script: string index %v out of range [0,%d)", idx, len(b))
		}
		return string(b[i]), nil
	case []byte:
		f, ok := ToNumber(idx)
		i := int(f)
		if !ok || i < 0 || i >= len(b) {
			return nil, fmt.Errorf("script: byte index %v out of range [0,%d)", idx, len(b))
		}
		return float64(b[i]), nil
	default:
		return nil, fmt.Errorf("script: cannot index %T", base)
	}
}

func (in *Interp) evalSlice(e *env, x *ast.SliceExpr) (any, error) {
	base, err := in.eval(e, x.X)
	if err != nil {
		return nil, err
	}
	if sliceLen(base) < 0 {
		return nil, fmt.Errorf("script: cannot slice %T", base)
	}
	var loV, hiV any
	if x.Low != nil {
		if loV, err = in.eval(e, x.Low); err != nil {
			return nil, err
		}
	}
	if x.High != nil {
		if hiV, err = in.eval(e, x.High); err != nil {
			return nil, err
		}
	}
	return sliceRange(base, loV, hiV, x.Low != nil, x.High != nil)
}

// sliceLen returns the sliceable length of a value, or -1.
func sliceLen(base any) int {
	switch b := base.(type) {
	case *List:
		return len(b.Elems)
	case string:
		return len(b)
	case []byte:
		return len(b)
	default:
		return -1
	}
}

// sliceRange performs base[lo:hi]; shared by tree-walker and VM.
func sliceRange(base any, loV, hiV any, hasLo, hasHi bool) (any, error) {
	length := sliceLen(base)
	if length < 0 {
		return nil, fmt.Errorf("script: cannot slice %T", base)
	}
	lo, hi := 0, length
	if hasLo {
		f, _ := ToNumber(loV)
		lo = int(f)
	}
	if hasHi {
		f, _ := ToNumber(hiV)
		hi = int(f)
	}
	if lo < 0 || hi > length || lo > hi {
		return nil, fmt.Errorf("script: slice bounds [%d:%d] out of range [0,%d]", lo, hi, length)
	}
	switch b := base.(type) {
	case *List:
		cp := make([]any, hi-lo)
		copy(cp, b.Elems[lo:hi])
		return &List{Elems: cp}, nil
	case string:
		return b[lo:hi], nil
	default:
		src := base.([]byte)
		cp := make([]byte, hi-lo)
		copy(cp, src[lo:hi])
		return cp, nil
	}
}

func (in *Interp) evalSelector(e *env, x *ast.SelectorExpr) (any, error) {
	base, err := in.eval(e, x.X)
	if err != nil {
		return nil, err
	}
	return selectValue(base, x.Sel.Name)
}

// selectValue reads base.name; shared by tree-walker and VM. A method
// of an object with a receiver is returned bound to it, so the value
// calls the method on that object wherever it is called from.
func selectValue(base any, name string) (any, error) {
	switch b := base.(type) {
	case map[string]any:
		return b[name], nil
	case *Object:
		m, ok := b.Methods[name]
		if !ok {
			return nil, fmt.Errorf("script: object %s has no method %q", b.Name, name)
		}
		if recv := b.Recv; recv != nil {
			return Builtin(func(c *Call) (any, error) {
				c.Recv = recv
				return m(c)
			}), nil
		}
		return m, nil
	default:
		return nil, fmt.Errorf("script: selector on %T", base)
	}
}

func (in *Interp) evalComposite(e *env, x *ast.CompositeLit) (any, error) {
	switch t := x.Type.(type) {
	case *ast.ArrayType:
		lst := &List{Elems: make([]any, 0, len(x.Elts))}
		for _, el := range x.Elts {
			v, err := in.eval(e, el)
			if err != nil {
				return nil, err
			}
			lst.Elems = append(lst.Elems, v)
		}
		return lst, nil
	case *ast.MapType:
		m := make(map[string]any, len(x.Elts))
		for _, el := range x.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				return nil, fmt.Errorf("script: map literal needs key: value pairs")
			}
			k, err := in.eval(e, kv.Key)
			if err != nil {
				return nil, err
			}
			v, err := in.eval(e, kv.Value)
			if err != nil {
				return nil, err
			}
			m[ToString(k)] = v
		}
		return m, nil
	default:
		return nil, fmt.Errorf("script: unsupported composite literal type %T", t)
	}
}

func (in *Interp) evalCall(e *env, x *ast.CallExpr) (any, error) {
	// Evaluate arguments first (left to right). On the unhooked path the
	// values land in the interpreter's scratch buffer; when an Invoke hook
	// is installed a fresh slice is allocated instead, because the hook
	// consumer (analysis) retains the slice in its trace.
	var args []any
	scratchBase := -1
	if in.hooks.Invoke == nil {
		scratchBase = len(in.argScratch)
		for _, a := range x.Args {
			v, err := in.eval(e, a)
			if err != nil {
				in.argScratch = in.argScratch[:scratchBase]
				return nil, err
			}
			in.argScratch = append(in.argScratch, v)
		}
		args = in.argScratch[scratchBase:]
	} else {
		args = make([]any, 0, len(x.Args))
		for _, a := range x.Args {
			v, err := in.eval(e, a)
			if err != nil {
				return nil, err
			}
			args = append(args, v)
		}
	}
	releaseArgs := func() {
		if scratchBase >= 0 {
			for i := scratchBase; i < len(in.argScratch); i++ {
				in.argScratch[i] = nil
			}
			in.argScratch = in.argScratch[:scratchBase]
		}
	}

	var (
		result any
		err    error
		name   string
	)
	switch callee := x.Fun.(type) {
	case *ast.Ident:
		name = callee.Name
		// Local binding holding a builtin wins over declarations.
		if v, ok := e.get(name); ok {
			if bf, isB := v.(Builtin); isB {
				result, err = in.callBuiltin(bf, nil, args)
				break
			}
		}
		if fn, ok := in.prog.Funcs[name]; ok {
			result, err = in.callFunc(fn, args)
			break
		}
		if v, ok := e.get(name); ok {
			releaseArgs()
			return nil, fmt.Errorf("script: %q (%T) is not callable", name, v)
		}
		releaseArgs()
		return nil, fmt.Errorf("%w: function %q", ErrUndefined, name)
	case *ast.SelectorExpr:
		base, berr := in.eval(e, callee.X)
		if berr != nil {
			releaseArgs()
			return nil, berr
		}
		obj, ok := base.(*Object)
		if !ok {
			releaseArgs()
			return nil, fmt.Errorf("script: method call on %T", base)
		}
		m, ok := obj.Methods[callee.Sel.Name]
		if !ok {
			releaseArgs()
			return nil, fmt.Errorf("script: object %s has no method %q", obj.Name, callee.Sel.Name)
		}
		name = obj.Name + "." + callee.Sel.Name
		result, err = in.callBuiltin(m, obj.Recv, args)
	default:
		releaseArgs()
		return nil, fmt.Errorf("script: unsupported call target %T", x.Fun)
	}
	releaseArgs()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if in.hooks.Invoke != nil {
		in.hooks.Invoke(in.cur, name, args, result)
	}
	return result, nil
}

// callBuiltin invokes a native function through a pooled Call header,
// with recv as its Call.Recv. Builtins must treat c.Args as borrowed:
// the slice (and the *Call) are reused for the next invocation as soon
// as the builtin returns.
func (in *Interp) callBuiltin(bf Builtin, recv any, args []any) (any, error) {
	var c *Call
	if n := len(in.callFree); n > 0 {
		c = in.callFree[n-1]
		in.callFree = in.callFree[:n-1]
		c.Args, c.Recv = args, recv
	} else {
		c = &Call{Args: args, Interp: in, Recv: recv}
	}
	res, err := bf(c)
	c.Args, c.Recv = nil, nil
	in.callFree = append(in.callFree, c)
	return res, err
}

func (in *Interp) fireRead(name string, v any) {
	if in.hooks.Read != nil && in.cur != NoStmt {
		in.hooks.Read(in.cur, name, v)
	}
}

func (in *Interp) fireWrite(name string, v any) {
	if in.hooks.Write != nil && in.cur != NoStmt {
		in.hooks.Write(in.cur, name, v)
	}
}
