package qithread

import (
	"sync"
	"sync/atomic"

	"qithread/internal/core"
)

// Sem is the POSIX counting semaphore (sem_t) replacement. Like condition
// variables, semaphores participate in the WakeAMAP policy: a thread posting
// a semaphore keeps the turn while more threads wait on it (Section 3.4), and
// the BranchedWake instrumentation targets branches that skip a sem_post
// (Figure 3, Figure 7b).
type Sem struct {
	rt   *Runtime
	dom  *Domain
	obj  uint64
	name string

	// val is the semaphore count. In deterministic modes it is guarded by
	// the turn; in Nondet mode by nmu.
	val int64

	nmu sync.Mutex
	ncv *sync.Cond

	// vPost is the virtual time of the latest post (Nondet accounting).
	vPost atomic.Int64
}

// NewSem creates a semaphore with the given initial value.
func (rt *Runtime) NewSem(t *Thread, name string, value int64) *Sem {
	sem := &Sem{rt: rt, dom: t.dom, name: name, val: value}
	if rt.det() {
		s := t.dom.sched
		s.GetTurn(t.ct)
		sem.obj = s.NewObjectKind("sem:", name)
		s.TraceOp(t.ct, core.OpSemInit, sem.obj, core.StatusOK)
		t.release()
	} else {
		sem.ncv = sync.NewCond(&sem.nmu)
	}
	return sem
}

// Wait decrements the semaphore, blocking while the count is zero (sem_wait).
func (sem *Sem) Wait(t *Thread) {
	if !sem.rt.det() {
		sem.nmu.Lock()
		for sem.val == 0 {
			sem.ncv.Wait()
		}
		sem.val--
		sem.nmu.Unlock()
		t.vMeet(sem.vPost.Load())
		t.vAdd(vSyncCostNondet)
		return
	}
	s := sem.dom.enter(t, "sem", sem.name)
	s.GetTurn(t.ct)
	blocked := false
	for sem.val == 0 {
		s.TraceOp(t.ct, core.OpSemWait, sem.obj, core.StatusBlocked)
		blocked = true
		t.park(sem.obj, core.NoTimeout)
	}
	sem.val--
	st := core.StatusOK
	if blocked {
		st = core.StatusReturn
	}
	s.TraceOp(t.ct, core.OpSemWait, sem.obj, st)
	t.release()
}

// TryWait decrements the semaphore if its count is positive and reports
// whether it did (sem_trywait).
func (sem *Sem) TryWait(t *Thread) bool {
	if !sem.rt.det() {
		sem.nmu.Lock()
		defer sem.nmu.Unlock()
		if sem.val == 0 {
			return false
		}
		sem.val--
		return true
	}
	s := sem.dom.enter(t, "sem", sem.name)
	s.GetTurn(t.ct)
	ok := sem.val > 0
	if ok {
		sem.val--
	}
	s.TraceOp(t.ct, core.OpSemTryWait, sem.obj, core.StatusOK)
	t.release()
	return ok
}

// TimedWait is Wait with a logical timeout in turns; it reports whether the
// semaphore was acquired (sem_timedwait).
func (sem *Sem) TimedWait(t *Thread, turns int64) bool {
	if !sem.rt.det() {
		// The catalog only uses timed semaphore waits deterministically;
		// Nondet mode falls back to an untimed wait.
		sem.Wait(t)
		return true
	}
	s := sem.dom.enter(t, "sem", sem.name)
	s.GetTurn(t.ct)
	for sem.val == 0 {
		s.TraceOp(t.ct, core.OpSemTimedWait, sem.obj, core.StatusBlocked)
		if st := t.park(sem.obj, turns); st == core.WaitTimeout {
			if sem.val > 0 {
				break // value arrived exactly with the timeout
			}
			s.TraceOp(t.ct, core.OpSemTimedWait, sem.obj, core.StatusReturn)
			t.release()
			return false
		}
	}
	sem.val--
	s.TraceOp(t.ct, core.OpSemTimedWait, sem.obj, core.StatusReturn)
	t.release()
	return true
}

// Post increments the semaphore and wakes one waiter (sem_post). Under
// WakeAMAP the caller keeps the turn while more threads wait on the
// semaphore.
func (sem *Sem) Post(t *Thread) {
	if !sem.rt.det() {
		t.vAdd(vSyncCostNondet)
		amax(&sem.vPost, t.VNow())
		sem.nmu.Lock()
		sem.val++
		sem.nmu.Unlock()
		sem.ncv.Signal()
		return
	}
	s := sem.dom.enter(t, "sem", sem.name)
	s.GetTurn(t.ct)
	sem.val++
	left := s.Signal(t.ct, sem.obj)
	s.TraceOp(t.ct, core.OpSemPost, sem.obj, core.StatusOK)
	if sem.dom.stack.NeedWaiters() {
		// Sticky retention (WakeAMAP) across the posting loop; see
		// Cond.Signal. The remaining waiter count comes straight from the
		// Signal call.
		sem.dom.stack.OnSignal(t.ct, left)
	}
	t.release()
}

// Value returns the current semaphore count (sem_getvalue).
func (sem *Sem) Value(t *Thread) int64 {
	if !sem.rt.det() {
		sem.nmu.Lock()
		defer sem.nmu.Unlock()
		return sem.val
	}
	s := sem.dom.enter(t, "sem", sem.name)
	s.GetTurn(t.ct)
	v := sem.val
	s.TraceOp(t.ct, core.OpSemGetValue, sem.obj, core.StatusOK)
	t.release()
	return v
}

// Destroy retires the semaphore and releases its scheduler bookkeeping
// (object name, empty wait-list entry).
func (sem *Sem) Destroy(t *Thread) {
	if !sem.rt.det() {
		return
	}
	s := sem.dom.enter(t, "sem", sem.name)
	s.GetTurn(t.ct)
	s.TraceOp(t.ct, core.OpSemDestroy, sem.obj, core.StatusOK)
	s.DestroyObject(t.ct, sem.obj)
	t.release()
}
