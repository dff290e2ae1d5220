package script

// vm.go executes the bytecode produced by compile.go. The run loop
// mirrors the tree-walking evaluator's observable behavior instruction
// for instruction: meter increments on every statement entry, hook
// events with the same statement IDs and names, the same dispatch order
// for calls, and error values built with the same format strings
// (several shared helpers — binaryOp, containerGet, containerSet,
// selectValue, sliceRange — are the same functions the tree-walker
// runs, so their error text cannot drift).

import (
	"fmt"
	"go/token"
	"sort"
)

// vmCallTop is Interp.Call's entry into the VM: link the program's
// bytecode, borrow a pooled machine, run, release.
func (in *Interp) vmCallTop(name string, args []any) (any, error) {
	cf := in.linkFunc(name)
	m := acquireMachine()
	for _, a := range args {
		m.push(a)
	}
	v, err := in.vmCall(m, cf, len(args))
	releaseMachine(m)
	return v, err
}

// linkFunc resolves a declared function to its bytecode, sizing the
// per-interpreter global link table on first use.
func (in *Interp) linkFunc(name string) *compiledFunc {
	if cf, ok := in.cfuncs[name]; ok {
		vmStats.cacheHits.Add(1)
		return cf
	}
	comp := in.prog.compiledProg()
	if in.refs == nil {
		in.refs = make([]gref, len(comp.grefs))
	}
	cf := comp.funcs[name]
	in.cfuncs[name] = cf
	return cf
}

// vmCall invokes cf with the top nargs stack values as arguments,
// popping them before returning. It enforces maxDepth with the same
// error the tree-walker produces and restores in.cur afterwards (the
// tree-walker's exec defers do the equivalent restore).
func (in *Interp) vmCall(m *machine, cf *compiledFunc, nargs int) (any, error) {
	if in.depth >= maxDepth {
		m.sp -= nargs
		return nil, cf.depthErr
	}
	in.depth++
	argBase := m.sp - nargs
	bp := m.sp
	m.grow(bp + cf.nslots)
	stack := m.stack
	for i := bp; i < bp+cf.nslots; i++ {
		stack[i] = nil
	}
	for i, slot := range cf.paramSlots {
		if i < nargs {
			stack[bp+int(slot)] = stack[argBase+i]
		}
	}
	m.sp = bp + cf.nslots
	savedCur := in.cur
	res, err := in.vmRun(m, cf, bp)
	in.cur = savedCur
	in.depth--
	m.sp = argBase
	return res, err
}

func (in *Interp) vmRun(m *machine, cf *compiledFunc, bp int) (any, error) {
	comp := cf.comp
	code := cf.code
	consts := cf.consts
	lb := len(m.loops)
	for len(m.loops) < lb+cf.nloops {
		m.loops = append(m.loops, 0)
	}
	rb := len(m.ranges)
	for len(m.ranges) < rb+cf.nranges {
		m.ranges = append(m.ranges, rangeIter{})
	}

	var ret any
	var err error
loop:
	for pc := 0; pc < len(code); pc++ {
		ins := code[pc]
		switch ins.op {
		case opStmt:
			in.meter.ops++
			in.cur = StmtID(ins.a)
			if in.hooks.EnterStmt != nil {
				in.hooks.EnterStmt(StmtID(ins.a))
			}
		case opMeter:
			in.meter.ops++
		case opCur:
			in.cur = StmtID(ins.a)
		case opConst:
			m.push(consts[ins.a])
		case opLoadLocal:
			v := m.stack[bp+int(ins.a)]
			if in.hooks.Read != nil && in.cur != NoStmt {
				in.hooks.Read(in.cur, comp.names[ins.b], v)
			}
			m.push(v)
		case opStoreLocal:
			v := m.pop()
			m.stack[bp+int(ins.a)] = v
			if ins.b >= 0 && in.hooks.Write != nil && in.cur != NoStmt {
				in.hooks.Write(in.cur, comp.names[ins.b], v)
			}
		case opLoadGlobal:
			p := in.globalBox(ins.a, comp)
			if p == nil {
				err = consts[ins.b].(error)
				break loop
			}
			v := *p
			if in.hooks.Read != nil && in.cur != NoStmt {
				in.hooks.Read(in.cur, comp.grefs[ins.a], v)
			}
			m.push(v)
		case opStoreGlobal:
			p := in.globalBox(ins.a, comp)
			if p == nil {
				err = consts[ins.b].(error)
				break loop
			}
			if in.guarded {
				err = in.guardErr(comp.grefs[ins.a])
				break loop
			}
			v := m.pop()
			*p = v
			if in.hooks.Write != nil && in.cur != NoStmt {
				in.hooks.Write(in.cur, comp.grefs[ins.a], v)
			}
		case opPop:
			m.sp--
		case opSwap:
			s := m.stack
			s[m.sp-1], s[m.sp-2] = s[m.sp-2], s[m.sp-1]
		case opJump:
			pc = int(ins.a) - 1
		case opJumpFalsy:
			if !Truthy(m.pop()) {
				pc = int(ins.a) - 1
			}
		case opJumpTruthy:
			if Truthy(m.pop()) {
				pc = int(ins.a) - 1
			}
		case opAnd:
			if !Truthy(m.pop()) {
				m.push(false)
				pc = int(ins.a) - 1
			}
		case opOr:
			if Truthy(m.pop()) {
				m.push(true)
				pc = int(ins.a) - 1
			}
		case opTruthy:
			m.stack[m.sp-1] = Truthy(m.stack[m.sp-1])
		case opNot:
			m.stack[m.sp-1] = !Truthy(m.stack[m.sp-1])
		case opNeg:
			v := m.stack[m.sp-1]
			n, ok := ToNumber(v)
			if !ok {
				err = fmt.Errorf("script: unary minus on %T", v)
				break loop
			}
			m.stack[m.sp-1] = boxFloat(-n)
		case opBinop:
			r := m.pop()
			l := m.stack[m.sp-1]
			op := token.Token(ins.a)
			if lf, lok := l.(float64); lok {
				if rf, rok := r.(float64); rok {
					switch op {
					case token.ADD:
						m.stack[m.sp-1] = boxFloat(lf + rf)
						continue
					case token.SUB:
						m.stack[m.sp-1] = boxFloat(lf - rf)
						continue
					case token.MUL:
						m.stack[m.sp-1] = boxFloat(lf * rf)
						continue
					case token.LSS:
						m.stack[m.sp-1] = lf < rf
						continue
					case token.LEQ:
						m.stack[m.sp-1] = lf <= rf
						continue
					case token.GTR:
						m.stack[m.sp-1] = lf > rf
						continue
					case token.GEQ:
						m.stack[m.sp-1] = lf >= rf
						continue
					case token.EQL:
						m.stack[m.sp-1] = lf == rf
						continue
					case token.NEQ:
						m.stack[m.sp-1] = lf != rf
						continue
					}
				}
			}
			v, e := binaryOp(op, l, r)
			if e != nil {
				err = e
				break loop
			}
			m.stack[m.sp-1] = v
		case opIndexGet:
			idx := m.pop()
			v, e := containerGet(m.stack[m.sp-1], idx)
			if e != nil {
				err = e
				break loop
			}
			m.stack[m.sp-1] = v
		case opSliceCheck:
			if sliceLen(m.stack[m.sp-1]) < 0 {
				err = fmt.Errorf("script: cannot slice %T", m.stack[m.sp-1])
				break loop
			}
		case opSliceGet:
			hasLo := ins.a&1 != 0
			hasHi := ins.a&2 != 0
			var loV, hiV any
			if hasHi {
				hiV = m.pop()
			}
			if hasLo {
				loV = m.pop()
			}
			v, e := sliceRange(m.stack[m.sp-1], loV, hiV, hasLo, hasHi)
			if e != nil {
				err = e
				break loop
			}
			m.stack[m.sp-1] = v
		case opSelectGet:
			v, e := selectValue(m.stack[m.sp-1], comp.names[ins.a])
			if e != nil {
				err = e
				break loop
			}
			m.stack[m.sp-1] = v
		case opIndexSet:
			idx := m.pop()
			base := m.pop()
			v := m.pop()
			if in.guarded {
				if e := in.guardContainer(comp.names[ins.a], base); e != nil {
					err = e
					break loop
				}
			}
			if e := containerSet(base, idx, v); e != nil {
				err = e
				break loop
			}
			if in.hooks.Write != nil && in.cur != NoStmt {
				in.hooks.Write(in.cur, comp.names[ins.a], base)
			}
		case opSelectSet:
			base := m.pop()
			v := m.pop()
			mp, ok := base.(map[string]any)
			if !ok {
				err = fmt.Errorf("script: selector assignment on %T", base)
				break loop
			}
			if in.guarded {
				if e := in.guardContainer(comp.names[ins.b], base); e != nil {
					err = e
					break loop
				}
			}
			mp[comp.names[ins.a]] = v
			if in.hooks.Write != nil && in.cur != NoStmt {
				in.hooks.Write(in.cur, comp.names[ins.b], base)
			}
		case opCaseMatch:
			v := m.pop()
			if ins.b != 0 {
				m.push(Truthy(v))
			} else {
				m.push(Equal(m.stack[bp+int(ins.a)], v))
			}
		case opMakeList:
			n := int(ins.a)
			elems := make([]any, n)
			copy(elems, m.stack[m.sp-n:m.sp])
			m.sp -= n
			m.push(&List{Elems: elems})
		case opMakeMap:
			n := int(ins.a)
			mp := make(map[string]any, n)
			base := m.sp - 2*n
			for i := 0; i < n; i++ {
				mp[ToString(m.stack[base+2*i])] = m.stack[base+2*i+1]
			}
			m.sp = base
			m.push(mp)
		case opCall:
			res, e := in.vmOpCall(m, comp, ins, bp)
			if e != nil {
				err = e
				break loop
			}
			m.push(res)
		case opCallMethod:
			res, e := in.vmOpCallMethod(m, comp, ins)
			if e != nil {
				err = e
				break loop
			}
			m.push(res)
		case opIncDec:
			v := m.stack[m.sp-1]
			n, ok := ToNumber(v)
			if !ok {
				err = fmt.Errorf("script: ++/-- on non-number %T", v)
				break loop
			}
			m.stack[m.sp-1] = boxFloat(n + float64(ins.a))
		case opReturn:
			ret = m.pop()
			break loop
		case opReturnNil:
			break loop
		case opErr:
			err = consts[ins.a].(error)
			break loop
		case opLoopInit:
			m.loops[lb+int(ins.a)] = 0
		case opLoopCheck:
			i := lb + int(ins.a)
			if m.loops[i] >= maxLoopIters {
				err = consts[ins.b].(error)
				break loop
			}
			m.loops[i]++
		case opRangeInit:
			if e := m.rangeInit(rb+int(ins.a), m.pop()); e != nil {
				err = e
				break loop
			}
		case opRangeNext:
			if !m.ranges[rb+int(ins.a)].next(m) {
				pc = int(ins.b) - 1
			}
		default:
			err = fmt.Errorf("script: internal error: bad opcode %d", ins.op)
			break loop
		}
	}

	m.loops = m.loops[:lb]
	for i := rb; i < len(m.ranges); i++ {
		m.ranges[i].release()
	}
	m.ranges = m.ranges[:rb]
	return ret, err
}

// vmOpCall dispatches a plain `f(args)` call with the tree-walker's
// exact priority: a bound Builtin value wins, then a declared function,
// then a not-callable error for any other bound value, then undefined.
func (in *Interp) vmOpCall(m *machine, comp *progComp, ins instr, bp int) (any, error) {
	nargs := int(ins.b)
	var v any
	bound := false
	if ins.c >= 0 {
		v = m.stack[bp+int(ins.c)]
		bound = true
	} else if p := in.globalBox(ins.a, comp); p != nil {
		v = *p
		bound = true
	}
	if bound {
		if bf, ok := v.(Builtin); ok {
			return in.vmBuiltin(m, bf, nil, "", comp.grefs[ins.a], nargs)
		}
	}
	if cf := comp.grefCfs[ins.a]; cf != nil {
		name := comp.grefs[ins.a]
		var hargs []any
		if in.hooks.Invoke != nil {
			hargs = make([]any, nargs)
			copy(hargs, m.stack[m.sp-nargs:m.sp])
		}
		res, err := in.vmCall(m, cf, nargs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if in.hooks.Invoke != nil {
			in.hooks.Invoke(in.cur, name, hargs, res)
		}
		return res, nil
	}
	m.sp -= nargs
	if bound {
		return nil, fmt.Errorf("script: %q (%T) is not callable", comp.grefs[ins.a], v)
	}
	return nil, fmt.Errorf("%w: function %q", ErrUndefined, comp.grefs[ins.a])
}

// vmOpCallMethod dispatches `obj.method(args)`; the receiver is on top
// of the stack, above the arguments.
func (in *Interp) vmOpCallMethod(m *machine, comp *progComp, ins instr) (any, error) {
	base := m.pop()
	obj, ok := base.(*Object)
	if !ok {
		m.sp -= int(ins.b)
		return nil, fmt.Errorf("script: method call on %T", base)
	}
	sel := comp.names[ins.a]
	bf, ok := obj.Methods[sel]
	if !ok {
		m.sp -= int(ins.b)
		return nil, fmt.Errorf("script: object %s has no method %q", obj.Name, sel)
	}
	return in.vmBuiltin(m, bf, obj.Recv, obj.Name, sel, int(ins.b))
}

// vmBuiltin invokes a native function, with receiver recv, on the top
// nargs stack values. Without an Invoke hook the builtin sees the stack
// window directly (zero-copy; builtins must not retain c.Args); with a
// hook installed the arguments are copied, because the analysis trace
// retains them.
func (in *Interp) vmBuiltin(m *machine, bf Builtin, recv any, objName, sel string, nargs int) (any, error) {
	args := m.stack[m.sp-nargs : m.sp]
	var hargs []any
	if in.hooks.Invoke != nil {
		hargs = make([]any, nargs)
		copy(hargs, args)
		args = hargs
	}
	res, err := in.callBuiltin(bf, recv, args)
	m.sp -= nargs
	if err != nil {
		return nil, fmt.Errorf("%s: %w", callName(objName, sel), err)
	}
	if in.hooks.Invoke != nil {
		in.hooks.Invoke(in.cur, callName(objName, sel), hargs, res)
	}
	return res, nil
}

func callName(objName, sel string) string {
	if objName == "" {
		return sel
	}
	return objName + "." + sel
}

// smallFloats interns the small non-negative integers so hot-loop
// counters and small arithmetic results don't heap-allocate when boxed
// into an interface (Go interns bools but not float64s).
var smallFloats = func() [1024]any {
	var a [1024]any
	for i := range a {
		a[i] = float64(i)
	}
	return a
}()

func boxFloat(f float64) any {
	if f >= 0 && f < 1024 {
		if i := int(f); float64(i) == f {
			return smallFloats[i]
		}
	}
	return f
}

// rangeInit captures a collection into iterator slot i, snapshotting
// list/byte headers and sorting map keys exactly like the tree-walker.
func (m *machine) rangeInit(i int, coll any) error {
	it := &m.ranges[i]
	it.i = 0
	switch c := coll.(type) {
	case *List:
		it.kind = rangeList
		it.elems = c.Elems
	case map[string]any:
		it.kind = rangeMap
		it.m = c
		it.keys = it.keys[:0]
		for k := range c {
			it.keys = append(it.keys, k)
		}
		sort.Strings(it.keys)
	case string:
		it.kind = rangeString
		it.s = c
	case []byte:
		it.kind = rangeBytes
		it.b = c
	default:
		return fmt.Errorf("script: cannot range over %T", coll)
	}
	return nil
}

// next pushes the current element as value-then-key (key on top, so the
// key binds first like the tree-walker) and advances; it reports false
// when the iteration is done.
func (it *rangeIter) next(m *machine) bool {
	i := it.i
	switch it.kind {
	case rangeList:
		if i >= len(it.elems) {
			return false
		}
		m.push(it.elems[i])
		m.push(boxFloat(float64(i)))
	case rangeMap:
		if i >= len(it.keys) {
			return false
		}
		k := it.keys[i]
		m.push(it.m[k])
		m.push(k)
	case rangeString:
		if i >= len(it.s) {
			return false
		}
		m.push(string(it.s[i]))
		m.push(boxFloat(float64(i)))
	case rangeBytes:
		if i >= len(it.b) {
			return false
		}
		m.push(smallFloats[it.b[i]])
		m.push(boxFloat(float64(i)))
	default:
		return false
	}
	it.i = i + 1
	return true
}
