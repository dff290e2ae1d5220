package core

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/statesync"
)

// afterInvokeErrs records the failures of one server's AfterInvoke step.
// The hook has no caller to return an error to, so every failure bumps
// the serve.after_invoke_errors.<server> counter and the first is kept
// for Observe: a full disk under the persister is not silent.
type afterInvokeErrs struct {
	counter *obs.Counter

	mu    sync.Mutex
	n     int64
	first error
}

func newAfterInvokeErrs(o *obs.Obs, server string) *afterInvokeErrs {
	return &afterInvokeErrs{counter: o.Counter("serve.after_invoke_errors." + server)}
}

func (r *afterInvokeErrs) note(err error) {
	r.mu.Lock()
	if r.first == nil {
		r.first = err
	}
	r.n++
	r.mu.Unlock()
	r.counter.Add(1)
}

// read returns the failure count and the first failure (nil when none).
func (r *afterInvokeErrs) read() (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n, r.first
}

// afterInvoke builds a server's AfterInvoke hook: mirror changed globals
// into the CRDT components, then persist the replica (when durable).
func afterInvoke(b *statesync.Binding, p *statesync.Persister, st *statesync.ReplicaState, errs *afterInvokeErrs) func() {
	return func() {
		if err := b.MirrorGlobals(); err != nil {
			errs.note(fmt.Errorf("core: mirroring globals: %w", err))
		}
		if p != nil {
			if err := p.Sync(st); err != nil {
				errs.note(fmt.Errorf("core: persisting replica: %w", err))
			}
		}
	}
}
