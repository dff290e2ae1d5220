// Package script implements the service-script dialect that subject
// services are written in, together with a tree-walking interpreter
// instrumented with Jalangi-style dynamic-analysis hooks.
//
// This package is the repository's stand-in for the paper's Node.js +
// Jalangi substrate. Services are written in a Go-syntax subset (parsed
// with go/parser), executed dynamically, and observed at statement
// granularity: every statement entry, variable read/write, and function
// invocation (with argument and result values) can be hooked. The EdgStr
// pipeline uses those hooks to build its RW-LOG facts, detect SQL
// commands and file URLs by argument inspection, and capture the state a
// service execution touches.
//
// The value universe mirrors JavaScript's: nil, bool, float64 numbers,
// strings, []byte buffers, *List arrays, and map[string]any objects.
// Interpreter instances are single-threaded, like a Node.js event loop;
// callers serialize invocations.
package script

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// List is the script's array type. It is a pointer type so that script
// code mutating a list through one variable is visible through aliases,
// matching JavaScript array semantics.
type List struct {
	Elems []any
}

// NewList returns a list holding the given elements.
func NewList(elems ...any) *List { return &List{Elems: elems} }

// Call carries the invocation context to a builtin function.
type Call struct {
	// Args holds the evaluated argument values. The slice is only valid
	// for the duration of the call: both evaluators reuse the backing
	// storage (the tree-walker's argument scratch, the VM's machine
	// stack window) across invocations, so a builtin that wants to keep
	// the arguments must copy them, not retain the slice.
	Args []any
	// Interp is the running interpreter; builtins may use it to add
	// metered compute cost or reach registered state.
	Interp *Interp
	// Recv is the Recv of the Object whose method is running (nil for a
	// plain builtin). It lets one method table serve many objects, each
	// method reading its own object's state through Recv.
	Recv any
}

// Arg returns the i-th argument or nil.
func (c *Call) Arg(i int) any {
	if i < len(c.Args) {
		return c.Args[i]
	}
	return nil
}

// StringArg coerces the i-th argument to a string.
func (c *Call) StringArg(i int) string { return ToString(c.Arg(i)) }

// NumArg coerces the i-th argument to a number.
func (c *Call) NumArg(i int) float64 {
	n, _ := ToNumber(c.Arg(i))
	return n
}

// Builtin is a native function callable from script code.
type Builtin func(c *Call) (any, error)

// Object is a native namespace of methods (e.g. db, fs, req, res,
// strings). Scripts invoke methods via selector calls: obj.Method(args).
type Object struct {
	// Name identifies the object in hook events and error messages.
	Name string
	// Methods maps method name to implementation. Objects of one kind
	// may share a table and keep their own state in Recv.
	Methods map[string]Builtin
	// Recv is passed to every method call on this object as Call.Recv.
	Recv any
}

// NewObject returns a named object with the given method table.
func NewObject(name string, methods map[string]Builtin) *Object {
	if methods == nil {
		methods = map[string]Builtin{}
	}
	return &Object{Name: name, Methods: methods}
}

// Truthy reports JavaScript-like truthiness.
func Truthy(v any) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case float64:
		return x != 0 && !math.IsNaN(x)
	case string:
		return x != ""
	case []byte:
		return len(x) > 0
	case *List:
		return true
	case map[string]any:
		return true
	default:
		return true
	}
}

// ToNumber coerces a value to a number; ok is false when the value has no
// numeric interpretation.
func ToNumber(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	case string:
		f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	case nil:
		return 0, true
	default:
		return 0, false
	}
}

// ToString renders a value the way the script language prints it.
func ToString(v any) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case bool:
		return strconv.FormatBool(x)
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			return strconv.FormatInt(int64(x), 10)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	case []byte:
		return fmt.Sprintf("bytes[%d]", len(x))
	case *List:
		parts := make([]string, len(x.Elems))
		for i, e := range x.Elems {
			parts[i] = ToString(e)
		}
		return "[" + strings.Join(parts, " ") + "]"
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + ":" + ToString(x[k])
		}
		return "{" + strings.Join(parts, " ") + "}"
	case *Object:
		return "<object " + x.Name + ">"
	default:
		return fmt.Sprint(x)
	}
}

// Equal reports deep value equality with numeric coercion between bools
// and numbers disabled (strict-ish equality).
func Equal(a, b any) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case float64:
		y, ok := b.(float64)
		return ok && x == y
	case string:
		y, ok := b.(string)
		return ok && x == y
	case []byte:
		y, ok := b.([]byte)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case *List:
		y, ok := b.(*List)
		if !ok || len(x.Elems) != len(y.Elems) {
			return false
		}
		for i := range x.Elems {
			if !Equal(x.Elems[i], y.Elems[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			yv, present := y[k]
			if !present || !Equal(v, yv) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// DeepCopy returns an independent copy of a script value. The checkpoint
// module uses it to save and restore global-variable state; the paper's
// analog is the generated get/set instrumentation that deeply copies all
// globals after server initialization.
func DeepCopy(v any) any {
	switch x := v.(type) {
	case []byte:
		cp := make([]byte, len(x))
		copy(cp, x)
		return cp
	case *List:
		cp := make([]any, len(x.Elems))
		for i, e := range x.Elems {
			cp[i] = DeepCopy(e)
		}
		return &List{Elems: cp}
	case map[string]any:
		cp := make(map[string]any, len(x))
		for k, e := range x {
			cp[k] = DeepCopy(e)
		}
		return cp
	default:
		// Scalars and native objects: scalars are immutable; native
		// objects (db, fs, …) are shared infrastructure by design.
		return x
	}
}

// SizeOf estimates the in-memory byte footprint of a value; the
// evaluation reports replicated-state sizes with it.
func SizeOf(v any) int64 {
	switch x := v.(type) {
	case nil:
		return 1
	case bool:
		return 1
	case float64:
		return 8
	case string:
		return int64(len(x))
	case []byte:
		return int64(len(x))
	case *List:
		var n int64 = 8
		for _, e := range x.Elems {
			n += SizeOf(e)
		}
		return n
	case map[string]any:
		var n int64 = 8
		for k, e := range x {
			n += int64(len(k)) + SizeOf(e)
		}
		return n
	default:
		return 16
	}
}
