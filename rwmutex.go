package qithread

import (
	"sync"
	"sync/atomic"

	"qithread/internal/core"
)

// RWMutex is the pthread_rwlock_t replacement. The deterministic
// implementation keeps reader/writer state under the turn and parks
// contenders on the scheduler wait queue; wake-ups happen via Broadcast so
// every contender deterministically re-evaluates in FIFO order. Writers are
// preferred once waiting, preventing writer starvation under read-heavy
// workloads such as the Berkeley DB and OpenLDAP models.
type RWMutex struct {
	rt   *Runtime
	dom  *Domain
	obj  uint64
	name string

	// Deterministic state, guarded by the turn.
	readers    int
	writer     bool
	waitingWri int

	nrw sync.RWMutex
	// Nondet accounting: virtual times of the last write release and the
	// running max of read releases.
	vWRel atomic.Int64
	vRRel atomic.Int64
}

// NewRWMutex creates a readers-writer lock.
func (rt *Runtime) NewRWMutex(t *Thread, name string) *RWMutex {
	rw := &RWMutex{rt: rt, dom: t.dom, name: name}
	if rt.det() {
		s := t.dom.sched
		s.GetTurn(t.ct)
		rw.obj = s.NewObjectKind("rwlock:", name)
		s.TraceOp(t.ct, core.OpRWInit, rw.obj, core.StatusOK)
		t.release()
	}
	return rw
}

// RLock acquires the lock for reading (pthread_rwlock_rdlock).
func (rw *RWMutex) RLock(t *Thread) {
	if !rw.rt.det() {
		rw.nrw.RLock()
		t.vMeet(rw.vWRel.Load())
		t.vAdd(vSyncCostNondet)
		return
	}
	s := rw.dom.enter(t, "rwlock", rw.name)
	s.GetTurn(t.ct)
	blocked := false
	for rw.writer || rw.waitingWri > 0 {
		s.TraceOp(t.ct, core.OpRLock, rw.obj, core.StatusBlocked)
		blocked = true
		t.park(rw.obj, core.NoTimeout)
	}
	rw.readers++
	st := core.StatusOK
	if blocked {
		st = core.StatusReturn
	}
	s.TraceOp(t.ct, core.OpRLock, rw.obj, st)
	// CSWhole deliberately does NOT retain the turn for read-side critical
	// sections: multiple readers hold the lock concurrently, and scheduling
	// one reader's section "as a whole" would serialize all of them — the
	// policy targets exclusive (mutex/writer) sections (Section 3.3).
	t.release()
}

// TryRLock attempts a read acquisition without blocking.
func (rw *RWMutex) TryRLock(t *Thread) bool {
	if !rw.rt.det() {
		return rw.nrw.TryRLock()
	}
	s := rw.dom.enter(t, "rwlock", rw.name)
	s.GetTurn(t.ct)
	ok := !rw.writer && rw.waitingWri == 0
	if ok {
		rw.readers++
	}
	s.TraceOp(t.ct, core.OpTryRLock, rw.obj, core.StatusOK)
	t.release()
	return ok
}

// WLock acquires the lock for writing (pthread_rwlock_wrlock).
func (rw *RWMutex) WLock(t *Thread) {
	if !rw.rt.det() {
		rw.nrw.Lock()
		t.vMeet(rw.vWRel.Load())
		t.vMeet(rw.vRRel.Load())
		t.vAdd(vSyncCostNondet)
		return
	}
	s := rw.dom.enter(t, "rwlock", rw.name)
	s.GetTurn(t.ct)
	blocked := false
	rw.waitingWri++
	for rw.writer || rw.readers > 0 {
		s.TraceOp(t.ct, core.OpWLock, rw.obj, core.StatusBlocked)
		blocked = true
		t.park(rw.obj, core.NoTimeout)
	}
	rw.waitingWri--
	rw.writer = true
	st := core.StatusOK
	if blocked {
		st = core.StatusReturn
	}
	s.TraceOp(t.ct, core.OpWLock, rw.obj, st)
	// CSWhole targets mutex critical sections (Section 3.3); writer
	// sections of database-style rwlocks are long, and retaining the turn
	// through them would serialize threads working on unrelated objects —
	// the "acquiring different mutexes" hazard the paper warns about.
	t.release()
}

// TryWLock attempts a write acquisition without blocking.
func (rw *RWMutex) TryWLock(t *Thread) bool {
	if !rw.rt.det() {
		return rw.nrw.TryLock()
	}
	s := rw.dom.enter(t, "rwlock", rw.name)
	s.GetTurn(t.ct)
	ok := !rw.writer && rw.readers == 0
	if ok {
		rw.writer = true
	}
	s.TraceOp(t.ct, core.OpTryWLock, rw.obj, core.StatusOK)
	t.release()
	return ok
}

// RUnlock releases a read acquisition.
func (rw *RWMutex) RUnlock(t *Thread) {
	if !rw.rt.det() {
		t.vAdd(vSyncCostNondet)
		amax(&rw.vRRel, t.VNow())
		rw.nrw.RUnlock()
		return
	}
	rw.unlock(t, false)
}

// WUnlock releases a write acquisition.
func (rw *RWMutex) WUnlock(t *Thread) {
	if !rw.rt.det() {
		t.vAdd(vSyncCostNondet)
		amax(&rw.vWRel, t.VNow())
		rw.nrw.Unlock()
		return
	}
	rw.unlock(t, true)
}

func (rw *RWMutex) unlock(t *Thread, write bool) {
	s := rw.dom.enter(t, "rwlock", rw.name)
	s.GetTurn(t.ct)
	if write {
		if !rw.writer {
			panic("qithread: WUnlock of rwlock not write-locked")
		}
		rw.writer = false
	} else {
		if rw.readers == 0 {
			panic("qithread: RUnlock of rwlock not read-locked")
		}
		rw.readers--
	}
	// All contenders re-evaluate deterministically; the scheduler wakes them
	// in FIFO order and each retries under its own turn.
	s.Broadcast(t.ct, rw.obj)
	s.TraceOp(t.ct, core.OpRWUnlock, rw.obj, core.StatusOK)
	t.release()
}

// Destroy retires the lock and releases its scheduler bookkeeping.
func (rw *RWMutex) Destroy(t *Thread) {
	if !rw.rt.det() {
		return
	}
	s := rw.dom.enter(t, "rwlock", rw.name)
	s.GetTurn(t.ct)
	s.TraceOp(t.ct, core.OpRWDestroy, rw.obj, core.StatusOK)
	s.DestroyObject(t.ct, rw.obj)
	t.release()
}
