package qithread

import (
	"sync"
	"sync/atomic"

	"qithread/internal/core"
)

// Once is the pthread_once replacement: fn runs exactly once, and every
// caller returns only after fn has completed. The initializer runs outside
// the turn so it may itself perform synchronization operations.
type Once struct {
	rt   *Runtime
	dom  *Domain
	obj  uint64
	name string

	// Deterministic state, guarded by the turn.
	running bool
	done    bool

	nonce sync.Once
	vDone atomic.Int64 // virtual time at which the initializer completed
}

// NewOnce creates a one-time initializer gate.
func (rt *Runtime) NewOnce(t *Thread, name string) *Once {
	o := &Once{rt: rt, dom: t.dom, name: name}
	if rt.det() {
		s := t.dom.sched
		s.GetTurn(t.ct)
		o.obj = s.NewObjectKind("once:", name)
		s.TraceOp(t.ct, core.OpOnce, o.obj, core.StatusOK)
		t.release()
	}
	return o
}

// Do runs fn if no call has run it yet, otherwise waits until the running
// call completes.
func (o *Once) Do(t *Thread, fn func()) {
	if !o.rt.det() {
		o.nonce.Do(func() {
			fn()
			t.vAdd(vSyncCostNondet)
			o.vDone.Store(t.VNow())
		})
		t.vMeet(o.vDone.Load())
		return
	}
	s := o.dom.enter(t, "once", o.name)
	s.GetTurn(t.ct)
	for o.running {
		s.TraceOp(t.ct, core.OpOnce, o.obj, core.StatusBlocked)
		t.park(o.obj, core.NoTimeout)
	}
	if o.done {
		s.TraceOp(t.ct, core.OpOnce, o.obj, core.StatusOK)
		t.release()
		return
	}
	o.running = true
	s.TraceOp(t.ct, core.OpOnce, o.obj, core.StatusOK)
	t.release()
	fn()
	s.GetTurn(t.ct)
	o.running = false
	o.done = true
	s.Broadcast(t.ct, o.obj)
	s.TraceOp(t.ct, core.OpOnce, o.obj, core.StatusReturn)
	t.release()
}
