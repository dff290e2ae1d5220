package script

import (
	"fmt"
	"testing"
)

// testReq and testRes model httpapp's req and res: every object of a
// kind shares one method table and keeps its own state in Recv.
type testReq struct {
	obj    Object
	params map[string]string
}

type testRes struct {
	obj    Object
	status float64
	sent   []any
}

var testReqMethods = map[string]Builtin{
	"param": func(c *Call) (any, error) {
		if v, ok := c.Recv.(*testReq).params[c.StringArg(0)]; ok {
			return v, nil
		}
		return nil, nil
	},
}

var testResMethods = map[string]Builtin{
	"status": func(c *Call) (any, error) {
		c.Recv.(*testRes).status = c.NumArg(0)
		return nil, nil
	},
	"send": func(c *Call) (any, error) {
		r := c.Recv.(*testRes)
		r.sent = append(r.sent, c.Arg(0))
		return float64(len(r.sent)), nil
	},
}

func newTestReq(params map[string]string) *testReq {
	r := &testReq{params: params}
	r.obj = Object{Name: "req", Methods: testReqMethods, Recv: r}
	return r
}

func newTestRes() *testRes {
	r := &testRes{status: 200}
	r.obj = Object{Name: "res", Methods: testResMethods, Recv: r}
	return r
}

// recvSrc calls methods on objects that share a table: directly, as
// method values kept in locals, passed to and called from other frames,
// and after nested script calls.
const recvSrc = `
func methodValue(req any, res any) any {
	f := req.param
	res.send(f("id"))
	return f("name")
}

func statusThenSend(req any, res any) any {
	res.status(404)
	return res.send(map[string]any{"error": "no such book", "id": req.param("id")})
}

func keepPastNested(req any, res any) any {
	r := req
	n := depth(4)
	send := res.send
	send(r.param("id"))
	return n + depth(2) + len(r.param("name"))
}

func depth(n any) any {
	if n <= 0 {
		return 0
	}
	return 1 + depth(n-1)
}

func passMethod(req any, res any) any {
	return apply(req.param, "id") + apply(res.send, "x")
}

func apply(f any, arg any) any {
	return f(arg)
}

func twoRequests(a any, b any) any {
	fa := a.param
	fb := b.param
	return fa("id") + fb("id") + a.param("name") + b.param("name")
}
`

// TestDifferentialReceiverMethods drives the receiver cases through
// both evaluators, bare and hooked, and requires equal results, hook
// streams, meters and receiver state.
func TestDifferentialReceiverMethods(t *testing.T) {
	calls := []struct {
		fn       string
		twoReqs  bool
		wantSent string // what res.send received, in order
	}{
		{"methodValue", false, "[7]"},
		{"statusThenSend", false, "[map[error:no such book id:7]]"},
		{"keepPastNested", false, "[7]"},
		{"passMethod", false, "[x]"},
		{"twoRequests", true, "[]"},
	}
	// side builds one evaluator's arguments: a req (two for twoReqs)
	// and the res whose state is checked afterwards.
	type side struct {
		args []any
		res  *testRes
	}
	newSide := func(twoReqs bool) side {
		a := newTestReq(map[string]string{"id": "7", "name": "sicp"})
		if twoReqs {
			return side{args: []any{&a.obj, &newTestReq(map[string]string{"id": "9", "name": "tapl"}).obj}}
		}
		res := newTestRes()
		return side{args: []any{&a.obj, &res.obj}, res: res}
	}
	for _, hooked := range []bool{false, true} {
		p := newDiffPair(t, recvSrc, hooked)
		for _, c := range calls {
			vm, ref := newSide(c.twoReqs), newSide(c.twoReqs)
			vmV, vmErr := p.vm.Call(c.fn, vm.args...)
			refV, refErr := p.ref.Call(c.fn, ref.args...)
			label := fmt.Sprintf("%s (hooked %v)", c.fn, hooked)
			if vmErr != nil || refErr != nil {
				t.Fatalf("%s: vm error %v, ref error %v", label, vmErr, refErr)
			}
			if got, want := renderVal(vmV), renderVal(refV); got != want {
				t.Fatalf("%s: result vm %s, ref %s", label, got, want)
			}
			if got, want := p.vm.Meter().Ops(), p.ref.Meter().Ops(); got != want {
				t.Fatalf("%s: meter vm %v, ref %v", label, got, want)
			}
			if hooked {
				if fmt.Sprint(p.vmLog.lines) != fmt.Sprint(p.refLog.lines) {
					t.Fatalf("%s: hook stream mismatch:\n%s", label, diffLines(p.vmLog.lines, p.refLog.lines))
				}
				p.vmLog.lines, p.refLog.lines = p.vmLog.lines[:0], p.refLog.lines[:0]
			}
			if c.twoReqs {
				if got := ToString(vmV); got != "79sicptapl" {
					t.Fatalf("%s: got %q, want each request's own params", label, got)
				}
				continue
			}
			for name, res := range map[string]*testRes{"vm": vm.res, "ref": ref.res} {
				if got := fmt.Sprint(res.sent); got != c.wantSent {
					t.Fatalf("%s: %s res sent %s, want %s", label, name, got, c.wantSent)
				}
			}
			if vm.res.status != ref.res.status {
				t.Fatalf("%s: status vm %v, ref %v", label, vm.res.status, ref.res.status)
			}
			if c.fn == "statusThenSend" && vm.res.status != 404 {
				t.Fatalf("%s: status %v, want 404", label, vm.res.status)
			}
		}
	}
}
