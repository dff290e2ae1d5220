package script

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestSharedProgramConcurrency runs many interpreters over ONE parsed
// Program concurrently. The bytecode is compiled once (under the
// program's compile lock) and shared read-only; each interpreter keeps
// its own globals, link table, and meter. Run under -race this pins the
// immutability of progComp and the safety of the shared machine pool.
func TestSharedProgramConcurrency(t *testing.T) {
	prog, err := Parse(`
var total = 0

func work(n any) any {
	s := 0
	for i := 0; i < n; i++ {
		s = s + i*i
	}
	total = total + 1
	return s
}`)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const calls = 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := New(prog)
			if err := in.RunInit(); err != nil {
				errs <- err
				return
			}
			for i := 0; i < calls; i++ {
				v, err := in.Call("work", 20.0)
				if err != nil {
					errs <- err
					return
				}
				if v != 2470.0 {
					errs <- fmt.Errorf("work(20) = %v, want 2470", v)
					return
				}
			}
			if g, _ := in.GetGlobal("total"); g != float64(calls) {
				errs <- fmt.Errorf("total = %v, want %d", g, calls)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestVMStatsAdvance checks the script.* observability counters move:
// one compile per program no matter how many interpreters share it, a
// cache hit per subsequent execution, and pooled frames once the pool
// is warm.
func TestVMStatsAdvance(t *testing.T) {
	before := ReadVMStats()
	prog, err := Parse(`func f(n any) any { return n + 1 }`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		in := New(prog)
		for j := 0; j < 10; j++ {
			if _, err := in.Call("f", 1.0); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := ReadVMStats()
	if got := after.ProgramsCompiled - before.ProgramsCompiled; got != 1 {
		t.Fatalf("ProgramsCompiled advanced by %d, want 1 (one shared compile)", got)
	}
	if after.FuncsCompiled <= before.FuncsCompiled {
		t.Fatal("FuncsCompiled did not advance")
	}
	if after.BytecodeCacheHits-before.BytecodeCacheHits < 25 {
		t.Fatalf("BytecodeCacheHits advanced by %d, want ≥25",
			after.BytecodeCacheHits-before.BytecodeCacheHits)
	}
	if after.FramesPooled <= before.FramesPooled {
		t.Fatal("FramesPooled did not advance (machine pool not reusing)")
	}
}

// TestReferenceEvalSwitch checks the per-interpreter switch selects the
// tree-walker for that instance only: a new interpreter starts on the
// VM, and a read-only fork keeps its parent's evaluator.
func TestReferenceEvalSwitch(t *testing.T) {
	prog, err := Parse(`func f(n any) any { return n * 2 }`)
	if err != nil {
		t.Fatal(err)
	}
	in := New(prog)
	in.SetReferenceEval(true)
	if v, err := in.Call("f", 21.0); err != nil || v != 42.0 {
		t.Fatalf("tree-walk f(21) = %v, %v", v, err)
	}
	in.SetReferenceEval(false)
	if v, err := in.Call("f", 21.0); err != nil || v != 42.0 {
		t.Fatalf("vm f(21) = %v, %v", v, err)
	}

	in.SetReferenceEval(true)
	in2 := New(prog)
	if in2.refEval {
		t.Fatal("new interpreter did not start on the VM")
	}
	if v, err := in2.Call("f", 21.0); err != nil || v != 42.0 {
		t.Fatalf("vm f(21) = %v, %v", v, err)
	}
	fork := in.ReadOnlyFork()
	if !fork.refEval {
		t.Fatal("read-only fork dropped its parent's evaluator")
	}
	if v, err := fork.Call("f", 21.0); err != nil || v != 42.0 {
		t.Fatalf("fork tree-walk f(21) = %v, %v", v, err)
	}
}

// TestVMErrorsIs checks error identity (not just text) survives
// compilation: undefined-name errors must satisfy errors.Is(ErrUndefined)
// in both evaluators, because callers branch on it.
func TestVMErrorsIs(t *testing.T) {
	prog, err := Parse(`func f(n any) any { return ghost }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []bool{false, true} {
		in := New(prog)
		in.SetReferenceEval(ref)
		_, err := in.Call("f")
		if !errors.Is(err, ErrUndefined) {
			t.Fatalf("refEval=%v: errors.Is(ErrUndefined) = false for %v", ref, err)
		}
	}
}

// TestVMDepthLimit checks the recursion guard fires with the identical
// message at the identical depth in both evaluators.
func TestVMDepthLimit(t *testing.T) {
	prog, err := Parse(`
var depth = 0

func f(n any) any {
	depth = depth + 1
	return f(n)
}`)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	var depths []any
	for _, ref := range []bool{false, true} {
		in := New(prog)
		in.SetReferenceEval(ref)
		if err := in.RunInit(); err != nil {
			t.Fatal(err)
		}
		_, err := in.Call("f", 0.0)
		if err == nil {
			t.Fatalf("refEval=%v: expected depth error", ref)
		}
		msgs = append(msgs, err.Error())
		d, _ := in.GetGlobal("depth")
		depths = append(depths, d)
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("depth error text differs:\n  vm:  %s\n  ref: %s", msgs[0], msgs[1])
	}
	if depths[0] != depths[1] {
		t.Fatalf("depth at failure differs: vm=%v ref=%v", depths[0], depths[1])
	}
	if !strings.Contains(msgs[0], "call depth exceeds") {
		t.Fatalf("unexpected depth error: %s", msgs[0])
	}
}
