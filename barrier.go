package qithread

import (
	"sync"

	"qithread/internal/core"
)

// Barrier is the pthread_barrier_t replacement. The last arriving thread
// releases all waiters in deterministic FIFO order and is reported as the
// serial thread, mirroring PTHREAD_BARRIER_SERIAL_THREAD.
type Barrier struct {
	rt   *Runtime
	dom  *Domain
	obj  uint64
	name string
	n    int

	// Deterministic state, guarded by the turn.
	arrived int

	// Nondet state.
	nmu  sync.Mutex
	ncv  *sync.Cond
	narr int
	ngen uint64
	// vArrive is the running max of arrival virtual times for the current
	// generation; vRelease is the final max at which the latest generation
	// was released. Departing threads meet vRelease (all guarded by nmu).
	vArrive  int64
	vRelease int64
}

// NewBarrier creates a barrier for n threads.
func (rt *Runtime) NewBarrier(t *Thread, name string, n int) *Barrier {
	if n <= 0 {
		panic("qithread: barrier count must be positive")
	}
	b := &Barrier{rt: rt, dom: t.dom, name: name, n: n}
	if rt.det() {
		s := t.dom.sched
		s.GetTurn(t.ct)
		b.obj = s.NewObjectKind("barrier:", name)
		s.TraceOp(t.ct, core.OpBarrierInit, b.obj, core.StatusOK)
		t.release()
	} else {
		b.ncv = sync.NewCond(&b.nmu)
	}
	return b
}

// Wait blocks until n threads have arrived. It returns true in exactly one
// of the n threads (the serial thread).
func (b *Barrier) Wait(t *Thread) bool {
	if !b.rt.det() {
		b.nmu.Lock()
		gen := b.ngen
		b.narr++
		if v := t.VNow(); v > b.vArrive {
			b.vArrive = v
		}
		if b.narr == b.n {
			// Last arrival: this generation is released at the maximum
			// arrival virtual time.
			b.narr = 0
			b.ngen++
			b.vRelease = b.vArrive
			b.vArrive = 0
			rel := b.vRelease
			b.nmu.Unlock()
			t.vMeet(rel)
			t.vAdd(vSyncCostNondet)
			b.ncv.Broadcast()
			return true
		}
		for gen == b.ngen {
			b.ncv.Wait()
		}
		rel := b.vRelease
		b.nmu.Unlock()
		t.vMeet(rel)
		t.vAdd(vSyncCostNondet)
		return false
	}
	s := b.dom.enter(t, "barrier", b.name)
	s.GetTurn(t.ct)
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		s.Broadcast(t.ct, b.obj)
		s.TraceOp(t.ct, core.OpBarrierWait, b.obj, core.StatusOK)
		t.release()
		return true
	}
	s.TraceOp(t.ct, core.OpBarrierWait, b.obj, core.StatusBlocked)
	t.park(b.obj, core.NoTimeout)
	s.TraceOp(t.ct, core.OpBarrierWait, b.obj, core.StatusReturn)
	t.release()
	return false
}

// Destroy retires the barrier and releases its scheduler bookkeeping.
func (b *Barrier) Destroy(t *Thread) {
	if !b.rt.det() {
		return
	}
	s := b.dom.enter(t, "barrier", b.name)
	s.GetTurn(t.ct)
	s.TraceOp(t.ct, core.OpBarrierDestroy, b.obj, core.StatusOK)
	s.DestroyObject(t.ct, b.obj)
	t.release()
}
