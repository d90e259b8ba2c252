package qithread

import (
	"fmt"
	"sync"

	"qithread/internal/core"
	"qithread/internal/domain"
	"qithread/internal/policy"
)

// Domain is one scheduler domain of a Runtime: a disjoint group of threads
// and synchronization objects scheduled by its own deterministic turn
// mechanism with its own policy stack. Every Runtime has a default domain
// (id 0) that Run's main thread and everything it creates belong to;
// additional domains come from Config.Domains or NewDomain.
//
// Threads and synchronization objects bind to a domain at creation: a thread
// belongs to the domain of its creator (or the domain it was Started in),
// an object to the domain of the thread that created it. Using an object
// from a thread of another domain panics deterministically — the partition
// is part of the program's synchronization structure, not a best-effort
// optimization. The only legal cross-domain communication is an XPipe,
// whose deliveries are sequenced and logged (see NewXPipe).
//
// In Nondet mode domains are inert grouping labels: Start/Launch run threads
// and XPipes degrade to plain buffered channels, so one workload runs
// unchanged under every mode.
type Domain struct {
	rt    *Runtime
	id    int
	name  string
	inner *domain.Domain  // nil in Nondet mode
	sched *core.Scheduler // nil in Nondet mode
	stack *policy.Stack   // nil in Nondet mode

	mu       sync.Mutex
	launched bool
	pending  []pendingRoot
}

type pendingRoot struct {
	name string
	fn   func(*Thread)
}

// ID returns the domain's creation index within its runtime (the default
// domain is 0).
func (d *Domain) ID() int { return d.id }

// Name returns the domain's debugging name.
func (d *Domain) Name() string { return d.name }

func (d *Domain) label() string { return fmt.Sprintf("domain %d (%s)", d.id, d.name) }

func (d *Domain) String() string { return d.label() }

// enter verifies that t may operate on a synchronization object bound to
// this domain and returns the domain's scheduler. Cross-domain use is a
// deterministic panic: the offending operation occupies a fixed place in its
// thread's program order, so every run fails identically.
func (d *Domain) enter(t *Thread, kind, name string) *core.Scheduler {
	if t.dom != d {
		panic(fmt.Sprintf("qithread: %s %q of %s used by %v of %s; cross-domain synchronization is only legal through an XPipe",
			kind, name, d.label(), t, t.dom.label()))
	}
	return d.sched
}

// Trace returns the domain's recorded schedule (empty unless Config.Record;
// nil in Nondet mode). Event sequence numbers are domain-local.
func (d *Domain) Trace() []Event {
	if d.sched == nil {
		return nil
	}
	return d.sched.Trace()
}

// TurnCount returns the number of completed scheduling turns in this domain
// (0 in Nondet mode).
func (d *Domain) TurnCount() int64 {
	if d.sched == nil {
		return 0
	}
	return d.sched.TurnCount()
}

// SetReplay installs a previously recorded schedule of THIS domain to
// enforce, exactly like Config.Replay does for the default domain. It must
// be called before the domain is launched. Replay is per domain: a
// partitioned execution replays from one recording per domain (the
// cross-domain delivery values are reproduced by the sender domains
// replaying, not by the log).
func (d *Domain) SetReplay(events []Event) {
	if d.sched == nil {
		panic("qithread: Domain.SetReplay requires a deterministic Mode")
	}
	d.sched.SetReplay(events)
}

// Start queues a root thread for the domain: name and entry point, started
// when Launch is called. Roots must be queued before Launch; the Start order
// fixes their thread IDs and schedule positions. Starting roots on the
// default domain panics — the default domain's root is Run's main thread,
// and everything else there comes from Thread.Create.
func (d *Domain) Start(name string, fn func(*Thread)) {
	if d.id == 0 {
		panic("qithread: Start on the default domain; the main thread runs there — use Thread.Create")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.launched {
		panic(fmt.Sprintf("qithread: Start(%q) on %s after Launch", name, d.label()))
	}
	d.pending = append(d.pending, pendingRoot{name: name, fn: fn})
}

// Launch registers every queued root in Start order and then starts them.
// Registration happens before any root runs, so the domain's thread IDs and
// initial run queue are a pure function of the Start sequence regardless of
// goroutine timing. Launch may be called once per domain, typically by the
// main thread during setup; the launching thread does not block.
func (d *Domain) Launch() {
	d.mu.Lock()
	if d.launched {
		d.mu.Unlock()
		panic(fmt.Sprintf("qithread: %s launched twice", d.label()))
	}
	d.launched = true
	roots := d.pending
	d.pending = nil
	d.mu.Unlock()

	rt := d.rt
	threads := make([]*Thread, len(roots))
	for i, r := range roots {
		t := rt.newThread(r.name, d)
		if rt.det() {
			t.ct = d.sched.Register(r.name)
			t.joinObj = d.sched.NewObjectKind("thread:", r.name)
		}
		threads[i] = t
	}
	for i, r := range roots {
		t := threads[i]
		fn := r.fn
		rt.wg.Add(1)
		if !rt.det() {
			spawn(func() {
				defer rt.wg.Done()
				fn(t)
				t.exit()
			})
			continue
		}
		spawn(func() {
			defer rt.wg.Done()
			// thread_begin, exactly like a Create'd child: the root's
			// initialization is deterministically ordered within its domain.
			s := d.sched
			s.GetTurn(t.ct)
			s.TraceOp(t.ct, core.OpThreadBegin, 0, core.StatusOK)
			t.release()
			fn(t)
			t.exit()
		})
	}
}
