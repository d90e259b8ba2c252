package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"qithread/internal/policy"
	"qithread/internal/spin"
)

// Scheduler is the deterministic user-space scheduler. It maintains the three
// queues of Section 3.1 (run, wake-up, wait) and grants the turn by
// dispatching through its policy stack (internal/policy). Everything outside
// synchronization operations is delegated to the Go runtime scheduler,
// mirroring how Parrot and QiThread delegate non-synchronization execution to
// the OS scheduler (Figure 4).
//
// Every Table 1 primitive is O(1) or O(log n) in the number of blocked
// threads: the wait queue is keyed by object (waitLists), timed waiters are
// indexed by a deadline min-heap (timers), and a free turn is handed directly
// to the already-parked next-eligible thread (kickLocked), so wake-ups never
// rescan unrelated waiters and the woken thread resumes without re-taking the
// scheduler mutex.
type Scheduler struct {
	mu  sync.Mutex
	cfg Config

	// stack decides turn grants (PickNext) and wake-up routing (OnWake) and
	// observes block/register/exit transitions. It is fixed at construction.
	stack *policy.Stack

	// holder is the current turn holder, nil if the turn is free. It is
	// written only under mu, but stored atomically so GetTurn's uncontended
	// fast path (the caller already holds the turn) is a single load: a
	// thread observing itself as holder is stable, because only the holder
	// itself can release the turn.
	holder atomic.Pointer[Thread]

	runQ  tqueue // FIFO runnable queue
	wakeQ tqueue // FIFO just-woken queue (fed when a policy boosts wake-ups)

	// waitLists holds one FIFO wait list per object with blocked threads, so
	// Signal and the per-object waiter count are O(1) and Broadcast is
	// O(waiters on that object). Emptied lists stay in the map — objects are
	// waited on repeatedly, and re-allocating the list every time the last
	// waiter leaves is measurable churn on broadcast-heavy workloads — and are
	// released by DestroyObject, so the map is bounded by live objects.
	waitLists map[uint64]*wqueue
	nWaiting  int    // total blocked threads across all wait lists
	waitSeq   uint64 // global FIFO park order, the heap's deadline tie-break

	// timers indexes timed waiters by (deadline, seq): expiry is an O(1)
	// peek per turn advance and the idle-time jump reads the heap top.
	timers dheap

	// turn is logical time: completed scheduling turns. It is atomic because
	// the lease fast path of PutTurn advances it without the mutex; all other
	// writers run under mu (and never concurrently with a lease holder, see
	// leaseableLocked for the invariant).
	turn atomic.Int64

	// Turn-leasing state. leased is set while the current holder has a
	// scheduler lease: the solo-thread case where every queue-and-handoff
	// release would deterministically return the turn to the same thread, so
	// PutTurn short-circuits to a mutex-free time advance. The lease is
	// granted and revoked only under mu; leased is atomic so the holder's
	// mutex-free fast path and concurrent Register calls stay race-free.
	// leaseExtends counts fast-path releases (atomic for the same reason);
	// leaseHash folds every grant/revoke decision under mu (see Stats).
	leased       atomic.Bool
	leaseExtends atomic.Int64
	leaseHash    uint64

	nextTID int
	nextObj uint64
	objName map[uint64]objLabel // lazily created on first NewObject

	// threads maps thread ID → *Thread for O(1) replay-eligibility lookups.
	// Entries are cleared on Exit so long-running programs do not accumulate
	// dead threads.
	threads []*Thread

	// Virtual-time model (see core.go): vLastOp is the virtual end time of
	// the most recent synchronization operation (guarded by the turn, i.e.
	// only the holder updates it); vMakespan is the maximum final virtual
	// clock of exited threads.
	vLastOp   int64
	vMakespan int64

	live int // registered, not yet exited threads

	// trace is the retained schedule (Record without a sink). traceLen and
	// traceHash count and fold EVERY recorded event whether retained or
	// streamed (see TraceOp); suspended mutes recording during a checkpoint
	// restore's setup phase.
	trace     []Event
	traceLen  int64
	traceHash uint64
	suspended bool

	// Replay state (see replay.go).
	replay    []Event
	replayPos int

	// Choice-point state (see chooseTurnLocked). chosen is a turn-grant
	// override committed by the Chooser while the turn is free: it pins the
	// grantee until that thread actually takes the turn, so the chooser is
	// consulted exactly once per handoff no matter how many times the grant
	// loops run. chooseIDs/chooseCands are reusable candidate-enumeration
	// buffers (only touched under mu).
	chosen      *Thread
	chooseIDs   []int
	chooseCands []*Thread

	stats Stats
	// ops, signals, and broadcasts are atomic (not Stats fields under mu) so
	// the mutex-free fast paths — TraceOp with record/replay off, Signal and
	// Broadcast on objects without waiters — can count without taking mu.
	ops        atomic.Int64
	signals    atomic.Int64
	broadcasts atomic.Int64

	// onDeadlock, if non-nil, is invoked instead of panicking when the
	// scheduler detects that no thread can ever run again. Tests use it.
	onDeadlock func(msg string)
}

// objLabel is a synchronization object's debugging name, kept as the two
// parts the wrappers supply ("mutex:" + "reqs") so object creation never
// concatenates; rendering joins them on demand.
type objLabel struct {
	kind, name string
}

func (l objLabel) String() string {
	if l.kind == "" {
		return l.name
	}
	return l.kind + l.name
}

// waiter is one blocked thread's membership in a per-object wait list. It is
// embedded in Thread (wnode) so parking allocates nothing; heapIdx is the
// node's position in the deadline heap, -1 while untimed or delisted.
type waiter struct {
	t          *Thread
	obj        uint64
	deadline   int64 // absolute turn count; 0 means no timeout
	seq        uint64
	heapIdx    int
	prev, next *waiter
}

// New creates a scheduler with the given configuration.
func New(cfg Config) *Scheduler {
	if cfg.Stack == nil {
		panic("core: Config.Stack is required (see DefaultStack)")
	}
	if cfg.VSyncCost == 0 {
		cfg.VSyncCost = 12
	}
	// objName and waitLists are created lazily: a Runtime constructs one
	// scheduler per domain, and partitioned programs create domains in bulk.
	return &Scheduler{
		cfg:       cfg,
		stack:     cfg.Stack,
		traceHash: fnvOffset64,
		suspended: cfg.SuspendRecording,
	}
}

// Stack returns the policy stack the scheduler dispatches through.
func (s *Scheduler) Stack() *policy.Stack { return s.stack }

// VirtualMakespan returns the maximum final virtual clock over all exited
// threads — the critical-path estimate of parallel execution time. Call it
// after the program has finished.
func (s *Scheduler) VirtualMakespan() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vMakespan
}

// Config returns the scheduler configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// SetDeadlockHandler installs a handler called when the scheduler detects a
// deterministic deadlock (no runnable thread, no timed waiter). If no handler
// is installed the scheduler panics with a queue dump, which is the most
// useful behaviour for debugging workloads.
func (s *Scheduler) SetDeadlockHandler(fn func(msg string)) {
	s.mu.Lock()
	s.onDeadlock = fn
	s.mu.Unlock()
}

// Register adds a new thread to the tail of the run queue and returns its
// handle. Registration order determines thread IDs, so callers must register
// deterministically: the main thread before any concurrency starts, children
// from the create wrapper while holding the turn.
func (s *Scheduler) Register(name string) *Thread {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &Thread{
		id:    s.nextTID,
		name:  name,
		sched: s,
		grant: make(chan struct{}, 1),
		queue: qRun,
	}
	t.wnode.t = t
	t.wnode.heapIdx = -1
	// A new runnable thread invalidates the solo condition: the holder's next
	// release must queue and hand off normally or the newcomer never runs.
	// Registration during a lease only happens from the lease holder itself
	// (Create runs under the turn), so the revocation is ordered before the
	// holder's next PutTurn.
	if s.leased.Load() {
		s.revokeLeaseLocked()
	}
	s.nextTID++
	s.threads = append(s.threads, t)
	s.live++
	if s.live > s.stats.MaxLiveThreads {
		s.stats.MaxLiveThreads = s.live
	}
	s.stack.InitState(&t.pstate)
	s.runQ.pushBack(t)
	s.stack.OnRegister(t)
	return t
}

// NewObject allocates a deterministic ID for a synchronization object.
// Callers must allocate deterministically (under the turn, or before any
// concurrency), which the qithread wrappers guarantee.
func (s *Scheduler) NewObject(name string) uint64 { return s.NewObjectKind("", name) }

// NewObjectKind is NewObject with the name split into a kind prefix and the
// caller-supplied name ("mutex:", "reqs"). The two parts are stored as-is and
// only joined when a debugging name is actually rendered, so the wrappers'
// object creation paths never pay a string concatenation.
func (s *Scheduler) NewObjectKind(kind, name string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextObj++
	id := s.nextObj
	if s.objName == nil {
		s.objName = make(map[uint64]objLabel)
	}
	s.objName[id] = objLabel{kind: kind, name: name}
	return id
}

// DestroyObject releases the scheduler bookkeeping of a retired
// synchronization object: its debugging name and its (empty) wait-list
// entry, so long-running programs that create and destroy objects do not
// accumulate map entries. Destroying an object with blocked waiters is a
// program bug (as in pthreads); the wait list is then kept so the waiters
// remain wakeable and diagnosable. The caller must hold the turn, which the
// wrappers' Destroy methods guarantee.
func (s *Scheduler) DestroyObject(t *Thread, obj uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requireTurnLocked(t, "DestroyObject")
	delete(s.objName, obj)
	if q := s.waitLists[obj]; q != nil && q.len() == 0 {
		delete(s.waitLists, obj)
	}
}

// ObjectName returns the debugging name of an object ID.
func (s *Scheduler) ObjectName(id uint64) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.objName[id].String()
}

// TurnCount returns the number of completed scheduling turns, the logical
// time base used for deterministic timeouts.
func (s *Scheduler) TurnCount() int64 { return s.turn.Load() }

// Live returns the number of registered, not yet exited threads.
func (s *Scheduler) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// HasTurn reports whether t currently holds the turn.
func (s *Scheduler) HasTurn(t *Thread) bool { return s.holder.Load() == t }

// GetTurn blocks until t holds the turn. If t already holds the turn the call
// returns immediately, which is what makes turn retention by the CSWhole,
// WakeAMAP and CreateAll wrapper policies work: a retained turn simply makes
// the next wrapper's GetTurn a no-op.
//
// The already-holding check is a single atomic load with no mutex: holder can
// only be t if t itself was granted the turn (a happens-before edge through
// the grant channel) and only t can release it, so the observation is stable.
func (s *Scheduler) GetTurn(t *Thread) {
	if s.holder.Load() == t {
		return
	}
	s.mu.Lock()
	if t.exited {
		s.mu.Unlock()
		panic("core: GetTurn on exited thread " + t.String())
	}
	t.wantTurn = true
	s.kickLocked(t)
	if s.holder.Load() == t {
		// The free turn was granted straight to the requester (the common
		// uncontended case): no token was sent, nothing to receive.
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	// Exactly one grant token is sent per handoff, and the granter sets
	// holder = t before sending, so one receive suffices: on return t holds
	// the turn without re-taking the scheduler mutex. The channel is polled
	// briefly before parking (spin-then-park): on multi-core hosts the
	// handoff usually lands within the spin window, trading a park/unpark
	// round trip for a few loads.
	spin.Recv(t.grant)
}

// PutTurn releases the turn held by t: t moves to the tail of the run queue
// and the next eligible thread is granted the turn.
//
// When t is the only live thread of the scheduler — no other runnable
// thread, no waiter — every such release deterministically returns the turn
// to t itself: the baseline path would move t to the (otherwise empty) run
// queue, find nobody asking for the turn, store holder = nil, and t's next
// GetTurn would re-grant it. PutTurn therefore grants t a lease
// (leaseableLocked) and subsequent releases take the mutex-free fast path
// below: advance logical time, count the extension, keep the turn. The lease
// is trace-neutral — the same thread executes the same operations in the
// same turn order, so recorded schedules, replay, and fingerprints are
// byte-identical with leasing on or off — and is revoked the moment the solo
// condition can break (a thread registers, t blocks or exits).
func (s *Scheduler) PutTurn(t *Thread) {
	if s.leased.Load() {
		if s.holder.Load() != t {
			panic(fmt.Sprintf("core: PutTurn by %v which does not hold the turn (holder=%v)", t, s.holder.Load()))
		}
		if s.cfg.LeaseVeto == nil || !s.cfg.LeaseVeto() {
			// Lease extension: the whole turn completes with one atomic add.
			// Timed waiters cannot exist (the lease requires nWaiting == 0,
			// and only the holder could add one), so skipping expiry is
			// exact, not an approximation.
			s.turn.Add(1)
			if s.cfg.Mode == LogicalClock {
				t.clock.Add(syncClockTick)
			}
			s.leaseExtends.Add(1)
			return
		}
		// Vetoed: fall through to the slow path, which revokes or re-grants
		// under the mutex. Any veto interleaving is trace-neutral because
		// both paths schedule the same next thread.
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requireTurnLocked(t, "PutTurn")
	s.advanceTimeLocked(t)
	if s.leaseableLocked(t) {
		if !s.leased.Load() {
			s.grantLeaseLocked(t)
		}
		return
	}
	s.removeRunnableLocked(t)
	t.queue = qRun
	s.runQ.pushBack(t)
	s.releaseTurnLocked()
}

// Wait atomically releases the turn and blocks t on the wait list of obj,
// mirroring the wait primitive of Table 1. timeout, when positive, is a
// relative logical time in turns; NoTimeout (0) never expires. Wait returns
// once t has been woken (by Signal, Broadcast, or timeout) AND has been
// granted the turn, and reports how it was woken. Like GetTurn, the woken
// thread receives the turn by direct handoff: the granter publishes all wake
// state before sending the grant token, so no mutex round trip is needed
// here after parking.
func (s *Scheduler) Wait(t *Thread, obj uint64, timeout int64) WaitStatus {
	s.mu.Lock()
	s.requireTurnLocked(t, "Wait")
	s.stack.OnBlock(t)
	s.advanceTimeLocked(t)
	s.removeRunnableLocked(t)
	t.queue = qWait
	w := &t.wnode
	w.obj = obj
	w.deadline = 0
	if timeout > 0 {
		w.deadline = s.turn.Load() + timeout
	}
	s.waitSeq++
	w.seq = s.waitSeq
	s.waitListFor(obj).pushBack(w)
	s.nWaiting++
	if s.nWaiting > s.stats.MaxWaiting {
		s.stats.MaxWaiting = s.nWaiting
	}
	if w.deadline > 0 {
		s.timers.push(w)
		if s.timers.len() > s.stats.MaxTimedWaiters {
			s.stats.MaxTimedWaiters = s.timers.len()
		}
	}
	s.stats.Waits++
	t.wantTurn = true
	s.releaseTurnLocked()
	s.mu.Unlock()
	spin.Recv(t.grant)
	// waitStatus was written by wakeLocked before the grant was sent; the
	// channel receive provides the happens-before edge.
	return t.waitStatus
}

// Signal wakes the first thread waiting on obj, if any, and returns the
// number of threads still waiting there — an O(1) read of the per-object
// wait list that wrappers feed to the policy stack's OnSignal hook (WakeAMAP)
// without a second scheduler call. The woken thread joins the runnable queue
// chosen by the policy stack (the wake-up queue under BoostBlocked, the tail
// of the run queue otherwise — the vanilla Parrot behaviour). The caller
// keeps the turn.
func (s *Scheduler) Signal(t *Thread, obj uint64) int {
	s.signals.Add(1)
	if q := s.lookupWaitersFast(t, "Signal", obj); q == nil {
		return 0 // no waiters: nothing to move, no mutex needed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.waitLists[obj]
	remaining := q.len() - 1
	w := q.head
	if s.cfg.Chooser != nil && remaining > 0 {
		w = s.chooseWakeLocked(q)
	}
	s.detachLocked(w)
	s.wakeLocked(w.t, WaitSignaled, t.vtime.Load())
	return remaining
}

// chooseWakeLocked consults the chooser about which of obj's waiters this
// signal wakes — a choice point with one candidate per waiter, in FIFO park
// order, defaulting to the head (the unhooked behaviour). The caller holds
// the turn, so the wait list is frozen and the decision point is
// deterministic. Unlike turn choices, wake choices are consulted in replay
// runs too: replay enforces the schedule by thread id, which pins who runs
// but not which waiter a recorded signal woke, so reproducing an explored
// run feeds the recorded wake decisions back through a Chooser (see
// internal/explore).
func (s *Scheduler) chooseWakeLocked(q *wqueue) *waiter {
	ids := s.chooseIDs[:0]
	for w := q.head; w != nil; w = w.next {
		ids = append(ids, w.t.id)
	}
	s.chooseIDs = ids
	idx := s.consultLocked(policy.ChooseWake, ids, len(ids), 0)
	w := q.head
	if idx <= 0 || idx >= len(ids) {
		return w
	}
	for ; idx > 0; idx-- {
		w = w.next
	}
	return w
}

// Broadcast wakes all threads waiting on obj in wait-list (FIFO) order.
// The caller keeps the turn.
func (s *Scheduler) Broadcast(t *Thread, obj uint64) {
	s.broadcasts.Add(1)
	if q := s.lookupWaitersFast(t, "Broadcast", obj); q == nil {
		return // no waiters: nothing to move, no mutex needed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.waitLists[obj]
	for w := q.head; w != nil; w = q.head {
		s.detachLocked(w)
		s.wakeLocked(w.t, WaitSignaled, t.vtime.Load())
	}
}

// Waiters returns the number of threads currently blocked on obj, an O(1)
// per-object count. The caller must hold the turn; wrappers use this for
// diagnostics and tests.
func (s *Scheduler) Waiters(t *Thread, obj uint64) int {
	if q := s.lookupWaitersFast(t, "Waiters", obj); q != nil {
		return q.len()
	}
	return 0
}

// lookupWaitersFast asserts the caller holds the turn and returns obj's wait
// list, or nil if it has no waiters — all without the scheduler mutex. This
// is safe because waitLists (and each list's contents) is only ever mutated
// by the turn holder or, via kickLocked's idle expiry, while the turn is
// free: while t holds the turn the structure cannot change under it, and the
// turn's handoff chain (mutex + grant channel) orders every prior mutation
// before this read. Callers that go on to mutate the list still take mu for
// the run-queue surgery.
func (s *Scheduler) lookupWaitersFast(t *Thread, op string, obj uint64) *wqueue {
	if s.holder.Load() != t {
		panic(fmt.Sprintf("core: %s by %v which does not hold the turn (holder=%v)", op, t, s.holder.Load()))
	}
	if q := s.waitLists[obj]; q != nil && q.head != nil {
		return q
	}
	return nil
}

// Exit removes t from the scheduler. t must hold the turn. After Exit the
// thread may never call scheduler primitives again.
func (s *Scheduler) Exit(t *Thread) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requireTurnLocked(t, "Exit")
	s.advanceTimeLocked(t)
	if v := t.vtime.Load(); v > s.vMakespan {
		s.vMakespan = v
	}
	s.removeRunnableLocked(t)
	t.queue = qNone
	t.exited = true
	s.threads[t.id] = nil
	s.live--
	s.stack.OnExit(t)
	s.releaseTurnLocked()
}

// AddWork advances t's logical instruction clock by n. In LogicalClock mode
// clock changes can make a previously ineligible thread eligible, so the
// scheduler is re-kicked; RoundRobin mode never consults clocks and takes a
// lock-free fast path.
func (s *Scheduler) AddWork(t *Thread, n int64) {
	t.vtime.Add(n)
	switch s.cfg.Mode {
	case LogicalClock:
		// Clock changes can make a previously ineligible thread eligible.
		s.mu.Lock()
		t.clock.Add(n)
		s.kickLocked(nil)
		s.mu.Unlock()
	case VirtualParallel:
		// Virtual-clock changes drive eligibility here; the instruction
		// clock is still maintained so work accounting is consistent across
		// modes (the virtual-clock picker never reads it).
		s.mu.Lock()
		t.clock.Add(n)
		s.kickLocked(nil)
		s.mu.Unlock()
	default:
		t.clock.Add(n)
	}
}

// --- internals ---

func (s *Scheduler) requireTurnLocked(t *Thread, op string) {
	if s.holder.Load() != t {
		panic(fmt.Sprintf("core: %s by %v which does not hold the turn (holder=%v)", op, t, s.holder.Load()))
	}
}

// waitListFor returns the wait list of obj, creating it (and the lazily
// allocated map) on first use.
func (s *Scheduler) waitListFor(obj uint64) *wqueue {
	q := s.waitLists[obj]
	if q == nil {
		q = &wqueue{}
		if s.waitLists == nil {
			s.waitLists = make(map[uint64]*wqueue)
		}
		s.waitLists[obj] = q
	}
	return q
}

// detachLocked removes w from its object's wait list and, when timed, from
// the deadline heap. The (possibly emptied) list itself stays in waitLists
// until DestroyObject so repeated waits on the same object reuse it.
func (s *Scheduler) detachLocked(w *waiter) {
	s.waitLists[w.obj].remove(w)
	if w.heapIdx >= 0 {
		s.timers.remove(w)
	}
	s.nWaiting--
}

// syncClockTick is the amount added to a thread's logical clock per executed
// synchronization operation in LogicalClock mode (Kendo's deterministic
// logical clock). Round-robin mode ignores clocks entirely.
const syncClockTick = 1

// advanceTimeLocked completes a scheduling turn: logical time advances, the
// logical clock of the departing holder ticks (LogicalClock mode), and
// expired timed waiters are woken in FIFO order. The lease fast path of
// PutTurn performs exactly this — minus the expiry scan, which is vacuous
// with no waiters — without the mutex.
func (s *Scheduler) advanceTimeLocked(t *Thread) {
	s.turn.Add(1)
	if s.cfg.Mode == LogicalClock {
		t.clock.Add(syncClockTick)
	}
	s.expireLocked()
}

// leaseableLocked reports whether t, the current holder with its turn just
// advanced, may hold the scheduler lease: t is the sole runnable thread (the
// run queue is exactly [t], the wake-up queue is empty) and nobody waits —
// i.e. t is the only live thread, so every release deterministically
// re-selects t until a new thread registers. Replay runs never lease (the
// recorded schedule drives eligibility), NoLease disables it, and the veto
// hook can refuse a single decision.
func (s *Scheduler) leaseableLocked(t *Thread) bool {
	return !s.cfg.NoLease &&
		s.replay == nil &&
		s.runQ.head == t && t.qnext == nil &&
		s.wakeQ.head == nil &&
		s.nWaiting == 0 &&
		(s.cfg.LeaseVeto == nil || !s.cfg.LeaseVeto())
}

// grantLeaseLocked records a lease-grant decision and activates the fast
// release path. t stays the holder and stays where it is in the run queue,
// which is exactly the state the baseline release would have restored.
func (s *Scheduler) grantLeaseLocked(t *Thread) {
	s.leased.Store(true)
	s.stats.LeaseGrants++
	s.leaseHash = leaseHashFold(s.leaseHash, s.turn.Load(), int64(t.id))
}

// revokeLeaseLocked records a lease-revoke decision and deactivates the fast
// path. The holder (if any) keeps the turn; it simply releases through the
// normal queue-and-handoff path from now on.
func (s *Scheduler) revokeLeaseLocked() {
	s.leased.Store(false)
	s.stats.LeaseRevokes++
	s.leaseHash = leaseHashFold(s.leaseHash, s.turn.Load(), -1)
}

// leaseHashFold mixes one lease decision — the turn it was taken at and the
// thread it applied to (-1 for a revoke) — into the running decision hash
// (an FNV/Fibonacci-style mix; only determinism matters, not distribution).
func leaseHashFold(h uint64, turn, tid int64) uint64 {
	h ^= uint64(turn) * 0x9e3779b97f4a7c15
	return (h ^ uint64(tid)) * 1099511628211
}

// expireLocked wakes every timed waiter whose deadline has passed: heap pops
// in (deadline, seq) order, which is FIFO registration order among waiters
// sharing a deadline — the same order the old full-queue scan woke them in.
// When nothing has expired (the overwhelmingly common case on a turn
// advance) this is a single heap peek.
func (s *Scheduler) expireLocked() {
	for s.timers.len() > 0 {
		w := s.timers.top()
		if w.deadline > s.turn.Load() {
			return
		}
		s.detachLocked(w)
		s.wakeLocked(w.t, WaitTimeout, 0)
	}
}

// wakeLocked moves a thread out of the wait queue into the runnable queue
// chosen by the policy stack. wakerVTime, when positive, records the
// happens-before edge from the waking operation: the woken thread cannot
// resume before its waker reached the wake-up in virtual time.
func (s *Scheduler) wakeLocked(t *Thread, st WaitStatus, wakerVTime int64) {
	t.waitStatus = st
	if st == WaitTimeout {
		s.stats.WokenByTimeout++
	} else {
		s.stats.WokenBySignal++
	}
	if wakerVTime > 0 {
		t.MeetVTime(wakerVTime)
	}
	if s.stack.WakeQueue(t, st == WaitTimeout) == policy.QueueWake {
		t.queue = qWake
		s.wakeQ.pushBack(t)
	} else {
		t.queue = qRun
		s.runQ.pushBack(t)
	}
}

// removeRunnableLocked removes t from the run or wake-up queue.
func (s *Scheduler) removeRunnableLocked(t *Thread) {
	switch t.queue {
	case qRun:
		s.runQ.remove(t)
	case qWake:
		s.wakeQ.remove(t)
	default:
		panic(fmt.Sprintf("core: thread %v not runnable (queue=%v)", t, t.queue))
	}
}

// FrontRun returns the head of the run queue. It implements policy.View and
// is only meaningful during a PickNext dispatch (scheduler mutex held).
func (s *Scheduler) FrontRun() policy.Thread {
	if t := s.runQ.head; t != nil {
		return t
	}
	return nil
}

// FrontWake returns the head of the wake-up queue. It implements policy.View
// and is only meaningful during a PickNext dispatch (scheduler mutex held).
func (s *Scheduler) FrontWake() policy.Thread {
	if t := s.wakeQ.head; t != nil {
		return t
	}
	return nil
}

// NextRunnable walks the runnable threads in queue order (run queue first,
// then wake-up queue). It implements policy.View and is only meaningful
// during a PickNext dispatch (scheduler mutex held).
func (s *Scheduler) NextRunnable(after policy.Thread) policy.Thread {
	if after == nil {
		if t := s.runQ.head; t != nil {
			return t
		}
		return s.FrontWake()
	}
	t := after.(*Thread)
	if t.qnext != nil {
		return t.qnext
	}
	if t.queue == qRun {
		return s.FrontWake()
	}
	return nil
}

// eligibleLocked returns the thread that should hold the turn next, or nil if
// no thread is runnable. An active replay schedule takes precedence over the
// policy stack: the recording embeds all policy effects. A committed chooser
// override (chosen) takes precedence over the stack for the same reason.
func (s *Scheduler) eligibleLocked() *Thread {
	if s.replay != nil && s.replayPos < len(s.replay) {
		return s.replayEligibleLocked()
	}
	if s.chosen != nil {
		return s.chosen
	}
	t := s.stack.PickNext(s)
	if t == nil {
		return nil
	}
	def := t.(*Thread)
	if s.cfg.Chooser == nil || !def.wantTurn {
		return def
	}
	return s.chooseTurnLocked(def)
}

// chooseTurnLocked consults the chooser about which runnable thread the free
// turn goes to. It runs at the deterministic grant moment: the turn is free
// and the stack's pick is asking for it — the instant the unhooked scheduler
// would grant. The runnable set is frozen while the turn is free (queues are
// mutated only by the turn holder or by the deterministic idle-expiry path,
// which only runs when nothing is runnable), so the candidate enumeration,
// the default index, and therefore the decision point itself do not depend
// on when the grant loop happens to run. The chosen thread is committed in
// s.chosen until it actually takes the turn: a candidate that is still
// executing user code cannot be granted immediately, but being runnable it
// must eventually ask (every thread's next synchronization operation — and
// its exit — begins with GetTurn), and it cannot block or exit without the
// turn, so the commitment stays valid.
func (s *Scheduler) chooseTurnLocked(def *Thread) *Thread {
	ids := s.chooseIDs[:0]
	cands := s.chooseCands[:0]
	defIdx := 0
	for t := s.runQ.head; t != nil; t = t.qnext {
		if t == def {
			defIdx = len(cands)
		}
		ids = append(ids, t.id)
		cands = append(cands, t)
	}
	for t := s.wakeQ.head; t != nil; t = t.qnext {
		if t == def {
			defIdx = len(cands)
		}
		ids = append(ids, t.id)
		cands = append(cands, t)
	}
	s.chooseIDs, s.chooseCands = ids, cands
	if len(cands) < 2 {
		return def
	}
	pick := def
	if idx := s.consultLocked(policy.ChooseTurn, ids, len(cands), defIdx); idx >= 0 && idx < len(cands) {
		pick = cands[idx]
	}
	// Commit even when the chooser kept the default, so the chooser is asked
	// exactly once per handoff regardless of how many grant attempts follow.
	s.chosen = pick
	return pick
}

// consultLocked forwards one choice-point consultation to the configured
// chooser. A chooser implementing policy.TracePosChooser additionally
// receives the domain-local trace position of the decision — s.traceLen, the
// index the next recorded event will occupy — which is what lets the
// schedule-space explorer align decisions with trace events for
// happens-before pruning (internal/explore). Caller holds mu, so traceLen is
// stable for the duration of the consultation.
func (s *Scheduler) consultLocked(kind policy.ChoiceKind, ids []int, n, def int) int {
	if tp, ok := s.cfg.Chooser.(policy.TracePosChooser); ok {
		return tp.ChooseAt(s.traceLen, kind, ids, n, def)
	}
	return s.cfg.Chooser.Choose(kind, ids, n, def)
}

// kickLocked grants the free turn directly to the next eligible thread if
// that thread is currently parked waiting for it: holder is set and the
// grant token sent in one step, so the grantee resumes without touching the
// scheduler mutex. self is the thread executing this call (nil when unknown):
// when the grantee is self it is not parked — it will observe holder == self
// synchronously after kickLocked returns — so no token is sent at all, which
// keeps the uncontended GetTurn path free of channel operations. If no thread
// is runnable but timed waiters exist, logical time jumps forward
// deterministically to the earliest deadline — the heap top — (this is how a
// "logical sleep" in an otherwise idle program makes progress). If nothing
// can ever run, the deadlock handler fires.
func (s *Scheduler) kickLocked(self *Thread) {
	for {
		if s.holder.Load() != nil {
			return
		}
		if e := s.eligibleLocked(); e != nil {
			if e.wantTurn {
				e.wantTurn = false
				s.chosen = nil
				s.holder.Store(e)
				if e != self {
					s.stats.Handoffs++
					select {
					case e.grant <- struct{}{}:
					default:
					}
				}
			}
			return
		}
		if s.nWaiting == 0 {
			return // no threads at all: program finished or not started
		}
		// No runnable thread. Advance logical time to the earliest timed
		// deadline; if none exists the program is deadlocked.
		if s.timers.len() == 0 {
			s.deadlockLocked()
			return
		}
		s.turn.Store(s.timers.top().deadline)
		s.expireLocked()
	}
}

// releaseTurnLocked passes the turn from its current holder to the next
// eligible thread with a single atomic store: holder goes straight from the
// releasing thread to its successor (or to nil when nobody is asking for the
// turn), with no intermediate nil store. Every atomic pointer store is a full
// fence plus a GC write barrier, so the release hot path — PutTurn, Wait,
// Exit — should pay for exactly one. Leaving holder pointing at the releaser
// until the successor is known is safe: mutex-free readers only act on
// holder == self, and the releasing thread — the only one that could match —
// is busy executing this call.
func (s *Scheduler) releaseTurnLocked() {
	// Any lease ends here: Wait, Exit, and the vetoed or no-longer-solo
	// PutTurn all release through this path.
	if s.leased.Load() {
		s.revokeLeaseLocked()
	}
	for {
		if e := s.eligibleLocked(); e != nil {
			if e.wantTurn {
				e.wantTurn = false
				s.chosen = nil
				s.holder.Store(e)
				s.stats.Handoffs++
				select {
				case e.grant <- struct{}{}:
				default:
				}
			} else {
				s.holder.Store(nil)
			}
			return
		}
		if s.nWaiting == 0 {
			s.holder.Store(nil)
			return
		}
		if s.timers.len() == 0 {
			s.holder.Store(nil)
			s.deadlockLocked()
			return
		}
		s.turn.Store(s.timers.top().deadline)
		s.expireLocked()
	}
}

// deadlockLocked reports a deterministic deadlock: every live thread is
// blocked and no timed waiter can ever unblock one. The registered handler,
// if any, runs outside the scheduler mutex.
func (s *Scheduler) deadlockLocked() {
	msg := "core: deterministic deadlock: all threads blocked without timeout\n" + s.dumpLocked()
	if s.onDeadlock != nil {
		fn := s.onDeadlock
		s.mu.Unlock()
		fn(msg)
		s.mu.Lock()
		return
	}
	panic(msg)
}

// Dump renders the scheduler state — queues, holder, wait lists — for
// diagnostics (deadlock reports, failed quiescence drives).
func (s *Scheduler) Dump() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dumpLocked()
}

// dumpLocked renders the scheduler state for deadlock diagnostics, listing
// each object's wait list straight from the per-object structures.
func (s *Scheduler) dumpLocked() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  turn=%d holder=%v stack=%v\n", s.turn.Load(), s.holder.Load(), s.stack)
	fmt.Fprintf(&b, "  runQ: %s\n", threadNames(&s.runQ))
	fmt.Fprintf(&b, "  wakeQ: %s\n", threadNames(&s.wakeQ))
	keys := make([]uint64, 0, len(s.waitLists))
	for k := range s.waitLists {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if s.waitLists[k].head == nil {
			continue // retained-but-empty list: no blocked threads to report
		}
		var names []string
		for w := s.waitLists[k].head; w != nil; w = w.next {
			names = append(names, w.t.String())
		}
		fmt.Fprintf(&b, "  waitQ[%s#%d]: %s\n", s.objName[k].String(), k, strings.Join(names, " "))
	}
	return b.String()
}

func threadNames(q *tqueue) string {
	if q.head == nil {
		return "(empty)"
	}
	var names []string
	for t := q.head; t != nil; t = t.qnext {
		names = append(names, t.String())
	}
	return strings.Join(names, " ")
}
